#include "src/vault/encrypted_vault.h"

#include <set>

#include "src/common/failpoint.h"

namespace edna::vault {

EncryptedVault::EncryptedVault(std::vector<uint8_t> app_key, KeyProvider keys, Rng rng)
    : app_key_(std::move(app_key)), keys_(std::move(keys)), rng_(rng) {}

std::string EncryptedVault::RenderOwner(const sql::Value& uid) {
  return uid.is_null() ? std::string() : uid.ToSqlString();
}

void EncryptedVault::RegisterUser(const sql::Value& uid, const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  fingerprints_[RenderOwner(uid)] = fingerprint;
}

const std::string* EncryptedVault::FindFingerprintLocked(const sql::Value& uid) const {
  auto it = fingerprints_.find(RenderOwner(uid));
  return it == fingerprints_.end() ? nullptr : &it->second;
}

const std::string* EncryptedVault::FindFingerprint(const sql::Value& uid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindFingerprintLocked(uid);
}

StatusOr<std::vector<uint8_t>> EncryptedVault::KeyFor(const sql::Value& uid) {
  if (uid.is_null()) {
    return app_key_;
  }
  if (!keys_) {
    return PermissionDenied("no key provider configured");
  }
  ASSIGN_OR_RETURN(std::vector<uint8_t> key, keys_(uid));
  // Verify against the registered fingerprint when one exists, so a wrong
  // key fails loudly instead of producing a MAC error deep in a reveal.
  const std::string* fp = FindFingerprintLocked(uid);
  if (fp != nullptr && crypto::KeyFingerprint(key) != *fp) {
    return PermissionDenied("supplied key does not match registered fingerprint for " +
                            uid.ToSqlString());
  }
  return key;
}

void EncryptedVault::SealAndAppend(const RevealRecord& record,
                                   const crypto::SealKeys& keys) {
  Entry e;
  e.disguise_id = record.disguise_id;
  e.user_id = record.user_id;
  e.created = record.created;
  crypto::ChaChaNonce nonce{};
  std::vector<uint8_t> nbytes = rng_.NextBytes(nonce.size());
  std::copy(nbytes.begin(), nbytes.end(), nonce.begin());
  // Owner + disguise id are authenticated-but-visible metadata: the vault
  // must route records without decrypting them.
  std::string aad = RenderOwner(e.user_id) + "#" + std::to_string(e.disguise_id);
  e.box = crypto::SealWith(keys, nonce, record.Serialize(), aad);
  ++stats_.crypto_ops;
  ++stats_.stores;
  stats_.bytes_stored += e.box.ciphertext.size() + e.box.nonce.size() + e.box.mac.size();
  entries_.push_back(std::move(e));
}

Status EncryptedVault::Store(const RevealRecord& record) {
  EDNA_FAIL_POINT(failpoints::kVaultStore);
  std::lock_guard<std::mutex> lock(mu_);
  ASSIGN_OR_RETURN(std::vector<uint8_t> key, KeyFor(record.user_id));
  SealAndAppend(record, crypto::DeriveSealKeys(key));
  return OkStatus();
}

Status EncryptedVault::StoreBatch(const std::vector<RevealRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  // Seal keys derived once per distinct owner key across the batch. Keyed by
  // the raw key bytes (not the owner) so a KeyProvider that rotates keys
  // mid-batch can never pair a record with stale subkeys.
  std::map<std::vector<uint8_t>, crypto::SealKeys> derived;
  for (const RevealRecord& record : records) {
    // Same per-record sequence as Store: fail point, key resolution, nonce
    // draw, seal — so crash batteries and deterministic-rng fingerprints see
    // an identical schedule, and output bytes match a Store loop exactly.
    EDNA_FAIL_POINT(failpoints::kVaultStore);
    ASSIGN_OR_RETURN(std::vector<uint8_t> key, KeyFor(record.user_id));
    auto [it, inserted] = derived.try_emplace(key);
    if (inserted) {
      it->second = crypto::DeriveSealKeys(key);
    }
    SealAndAppend(record, it->second);
  }
  return OkStatus();
}

StatusOr<RevealRecord> EncryptedVault::OpenEntry(const Entry& e,
                                                 const crypto::SealKeys& keys) {
  std::string aad = RenderOwner(e.user_id) + "#" + std::to_string(e.disguise_id);
  ++stats_.crypto_ops;
  ASSIGN_OR_RETURN(std::vector<uint8_t> plain, crypto::OpenWith(keys, e.box, aad));
  return RevealRecord::Deserialize(plain);
}

StatusOr<std::vector<RevealRecord>> EncryptedVault::FetchForUser(const sql::Value& uid) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fetches;
  std::vector<RevealRecord> out;
  bool any = false;
  crypto::SealKeys keys;
  for (const Entry& e : entries_) {
    if (e.user_id.is_null() || uid.is_null() || !e.user_id.SqlEquals(uid)) {
      continue;
    }
    if (!any) {
      // One approval and one subkey split per fetch, not per record.
      ASSIGN_OR_RETURN(std::vector<uint8_t> key, KeyFor(uid));
      keys = crypto::DeriveSealKeys(key);
      any = true;
    }
    ASSIGN_OR_RETURN(RevealRecord rec, OpenEntry(e, keys));
    out.push_back(std::move(rec));
    ++stats_.records_fetched;
  }
  return out;
}

StatusOr<std::vector<RevealRecord>> EncryptedVault::FetchForDisguise(uint64_t disguise_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fetches;
  std::vector<RevealRecord> out;
  std::map<std::vector<uint8_t>, crypto::SealKeys> derived;
  for (const Entry& e : entries_) {
    if (e.disguise_id != disguise_id) {
      continue;
    }
    ASSIGN_OR_RETURN(std::vector<uint8_t> key, KeyFor(e.user_id));
    auto [it, inserted] = derived.try_emplace(key);
    if (inserted) {
      it->second = crypto::DeriveSealKeys(key);
    }
    ASSIGN_OR_RETURN(RevealRecord rec, OpenEntry(e, it->second));
    out.push_back(std::move(rec));
    ++stats_.records_fetched;
  }
  return out;
}

StatusOr<std::vector<RevealRecord>> EncryptedVault::FetchGlobal() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fetches;
  std::vector<RevealRecord> out;
  bool have_keys = false;
  crypto::SealKeys app_keys;
  for (const Entry& e : entries_) {
    if (!e.user_id.is_null()) {
      continue;
    }
    if (!have_keys) {
      app_keys = crypto::DeriveSealKeys(app_key_);
      have_keys = true;
    }
    ASSIGN_OR_RETURN(RevealRecord rec, OpenEntry(e, app_keys));
    out.push_back(std::move(rec));
    ++stats_.records_fetched;
  }
  return out;
}

Status EncryptedVault::Remove(uint64_t disguise_id) {
  EDNA_FAIL_POINT(failpoints::kVaultRemove);
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_, [&](const Entry& e) { return e.disguise_id == disguise_id; });
  return OkStatus();
}

StatusOr<std::vector<uint64_t>> EncryptedVault::ListDisguiseIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<uint64_t> ids;
  for (const Entry& e : entries_) {
    ids.insert(e.disguise_id);
  }
  return std::vector<uint64_t>(ids.begin(), ids.end());
}

StatusOr<size_t> EncryptedVault::ExpireBefore(TimePoint cutoff) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t before = entries_.size();
  std::erase_if(entries_, [&](const Entry& e) { return e.created < cutoff; });
  return before - entries_.size();
}

}  // namespace edna::vault
