// Authenticated encryption for vault entries: ChaCha20 encrypt-then-MAC with
// HMAC-SHA-256 over (nonce || aad_len || aad || ciphertext). Keys are split
// from a 32-byte master key via DeriveKey so the cipher and MAC never share
// key material.
#ifndef SRC_CRYPTO_AEAD_H_
#define SRC_CRYPTO_AEAD_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/sha256.h"

namespace edna::crypto {

struct SealedBox {
  ChaChaNonce nonce{};
  std::vector<uint8_t> ciphertext;
  Sha256Digest mac{};

  // Flat wire form: nonce || mac || ciphertext.
  std::vector<uint8_t> Serialize() const;
  static StatusOr<SealedBox> Deserialize(const std::vector<uint8_t>& wire);
};

// The enc/MAC subkey pair split from one master key. Deriving it costs two
// HMAC chains; callers sealing or opening N entries under the same master key
// derive once and use the *With forms below instead of paying the derivation
// per entry.
struct SealKeys {
  ChaChaKey enc{};
  std::vector<uint8_t> mac;
};

SealKeys DeriveSealKeys(const std::vector<uint8_t>& master_key);

// Encrypts `plaintext` under `master_key` (32 bytes) with the given nonce.
// `aad` is authenticated but not encrypted (vault entry metadata).
SealedBox Seal(const std::vector<uint8_t>& master_key, const ChaChaNonce& nonce,
               const std::vector<uint8_t>& plaintext, std::string_view aad);

// Verifies and decrypts; kPermissionDenied on MAC failure (wrong key or
// tampered entry).
StatusOr<std::vector<uint8_t>> Open(const std::vector<uint8_t>& master_key,
                                    const SealedBox& box, std::string_view aad);

// Pre-derived-key forms: byte-identical to Seal/Open for the same master key.
SealedBox SealWith(const SealKeys& keys, const ChaChaNonce& nonce,
                   const std::vector<uint8_t>& plaintext, std::string_view aad);
StatusOr<std::vector<uint8_t>> OpenWith(const SealKeys& keys, const SealedBox& box,
                                        std::string_view aad);

}  // namespace edna::crypto

#endif  // SRC_CRYPTO_AEAD_H_
