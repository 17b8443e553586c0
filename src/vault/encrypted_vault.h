// Encrypted per-user vault: the strongest deployment model of §4.2. Each
// record is sealed (ChaCha20 + HMAC) under the owning user's vault key; the
// application stores only ciphertext and key fingerprints. Reading a user's
// records requires the user's key, supplied through a KeyProvider — modeling
// "access might require explicit approval by the user, who holds the private
// key". Global records are sealed under an application-level key.
//
// Keys may additionally be escrowed via 2-of-3 secret sharing (crypto/key.h)
// so a lost user key is recoverable with user+app, user+third-party, or
// app+third-party cooperation.
//
// The vault is shared by BatchExecutor workers (perfbench mass_deletion runs
// it under four), so the crypto stays out of its critical section: mu_
// guards only the entry list, the fingerprints and the nonce rng. Key
// resolution (which may wait on a user's approval), subkey derivation,
// sealing, opening and record decoding run outside it, and one owner's slow
// KeyProvider never stalls another owner's stores and fetches.
#ifndef SRC_VAULT_ENCRYPTED_VAULT_H_
#define SRC_VAULT_ENCRYPTED_VAULT_H_

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "src/common/rng.h"
#include "src/crypto/aead.h"
#include "src/crypto/key.h"
#include "src/vault/vault.h"

namespace edna::vault {

// Returns the vault key for `uid`, or kPermissionDenied if the user (or
// their escrow quorum) declines / is unavailable. Runs outside the vault's
// lock, possibly on several threads at once, and may call back into the
// vault.
using KeyProvider = std::function<StatusOr<std::vector<uint8_t>>(const sql::Value& uid)>;

class EncryptedVault : public Vault {
 public:
  // `app_key` seals global records; `keys` resolves per-user keys; `rng`
  // supplies nonces (deterministic in tests).
  EncryptedVault(std::vector<uint8_t> app_key, KeyProvider keys, Rng rng);

  std::string ModelName() const override { return "encrypted"; }

  // Registers a user's key fingerprint (the key itself is never stored).
  void RegisterUser(const sql::Value& uid, const std::string& fingerprint);
  // A copy: another thread may re-register `uid` once the lock is released.
  std::optional<std::string> FindFingerprint(const sql::Value& uid) const;

  // Store is StoreBatch of one record. StoreBatch and the fetch loops derive
  // each owner key's enc/MAC subkey pair once (crypto::SealKeys) and reuse it
  // across that owner's records. Output bytes match a Store loop exactly.
  Status Store(const RevealRecord& record) override;
  Status StoreBatch(const std::vector<RevealRecord>& records) override;
  StatusOr<std::vector<RevealRecord>> FetchForUser(const sql::Value& uid) override;
  StatusOr<std::vector<RevealRecord>> FetchForDisguise(uint64_t disguise_id) override;
  StatusOr<std::vector<RevealRecord>> FetchGlobal() override;
  Status Remove(uint64_t disguise_id) override;
  StatusOr<std::vector<uint64_t>> ListDisguiseIds() const override;
  StatusOr<size_t> ExpireBefore(TimePoint cutoff) override;
  size_t NumRecords() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    uint64_t disguise_id;
    sql::Value user_id;  // Null = global
    TimePoint created;
    crypto::SealedBox box;
  };

  static std::string RenderOwner(const sql::Value& uid);
  std::optional<std::string> FingerprintLocked(const sql::Value& uid) const;
  // The key sealing `uid`'s records: the app key for global records, else
  // the KeyProvider's key, checked against `fingerprint` (the one registered
  // for `uid`, copied under mu_) when there is one. Called without mu_.
  StatusOr<std::vector<uint8_t>> ResolveKey(const sql::Value& uid,
                                            const std::optional<std::string>& fingerprint) const;
  // Runs the fail point, resolves keys and seals outside mu_; takes it to
  // copy fingerprints, to draw nonces in record order, and to append.
  Status StoreRecords(std::span<const RevealRecord> records);
  // Opens an entry copied out from under mu_.
  StatusOr<RevealRecord> OpenEntry(const Entry& e, const crypto::SealKeys& keys);

  const std::vector<uint8_t> app_key_;
  const KeyProvider keys_;
  // Guards entries_, fingerprints_ and the nonce rng, nothing else.
  mutable std::mutex mu_;
  Rng rng_;
  std::map<std::string, std::string> fingerprints_;  // rendered uid -> fp
  std::vector<Entry> entries_;
};

}  // namespace edna::vault

#endif  // SRC_VAULT_ENCRYPTED_VAULT_H_
