#include "src/crypto/aead.h"

#include <cstring>

#include "src/crypto/hmac.h"

namespace edna::crypto {

namespace {

// MAC over (nonce || aad_len || aad || ciphertext).
Sha256Digest ComputeMac(const std::vector<uint8_t>& mac_key, const ChaChaNonce& nonce,
                        std::string_view aad, const std::vector<uint8_t>& ciphertext) {
  std::vector<uint8_t> buf;
  buf.reserve(nonce.size() + 8 + aad.size() + ciphertext.size());
  buf.insert(buf.end(), nonce.begin(), nonce.end());
  uint64_t aad_len = aad.size();
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<uint8_t>(aad_len >> (8 * i)));
  }
  buf.insert(buf.end(), aad.begin(), aad.end());
  buf.insert(buf.end(), ciphertext.begin(), ciphertext.end());
  return HmacSha256(mac_key, buf);
}

}  // namespace

SealKeys DeriveSealKeys(const std::vector<uint8_t>& master_key) {
  SealKeys keys;
  std::vector<uint8_t> ek = DeriveKey(master_key, "edna-vault-enc", kChaChaKeySize);
  std::memcpy(keys.enc.data(), ek.data(), keys.enc.size());
  keys.mac = DeriveKey(master_key, "edna-vault-mac", 32);
  return keys;
}

std::vector<uint8_t> SealedBox::Serialize() const {
  std::vector<uint8_t> wire;
  wire.reserve(nonce.size() + mac.size() + ciphertext.size());
  wire.insert(wire.end(), nonce.begin(), nonce.end());
  wire.insert(wire.end(), mac.begin(), mac.end());
  wire.insert(wire.end(), ciphertext.begin(), ciphertext.end());
  return wire;
}

StatusOr<SealedBox> SealedBox::Deserialize(const std::vector<uint8_t>& wire) {
  if (wire.size() < kChaChaNonceSize + kSha256DigestSize) {
    return InvalidArgument("sealed box too short");
  }
  SealedBox box;
  std::memcpy(box.nonce.data(), wire.data(), kChaChaNonceSize);
  std::memcpy(box.mac.data(), wire.data() + kChaChaNonceSize, kSha256DigestSize);
  box.ciphertext.assign(wire.begin() + kChaChaNonceSize + kSha256DigestSize, wire.end());
  return box;
}

SealedBox SealWith(const SealKeys& keys, const ChaChaNonce& nonce,
                   const std::vector<uint8_t>& plaintext, std::string_view aad) {
  SealedBox box;
  box.nonce = nonce;
  box.ciphertext = plaintext;
  ChaCha20Xor(keys.enc, nonce, 1, &box.ciphertext);
  box.mac = ComputeMac(keys.mac, nonce, aad, box.ciphertext);
  return box;
}

StatusOr<std::vector<uint8_t>> OpenWith(const SealKeys& keys, const SealedBox& box,
                                        std::string_view aad) {
  Sha256Digest expect = ComputeMac(keys.mac, box.nonce, aad, box.ciphertext);
  if (!DigestEqualConstantTime(expect, box.mac)) {
    return PermissionDenied("vault entry MAC check failed (wrong key or tampered data)");
  }
  std::vector<uint8_t> plaintext = box.ciphertext;
  ChaCha20Xor(keys.enc, box.nonce, 1, &plaintext);
  return plaintext;
}

SealedBox Seal(const std::vector<uint8_t>& master_key, const ChaChaNonce& nonce,
               const std::vector<uint8_t>& plaintext, std::string_view aad) {
  return SealWith(DeriveSealKeys(master_key), nonce, plaintext, aad);
}

StatusOr<std::vector<uint8_t>> Open(const std::vector<uint8_t>& master_key,
                                    const SealedBox& box, std::string_view aad) {
  return OpenWith(DeriveSealKeys(master_key), box, aad);
}

}  // namespace edna::crypto
