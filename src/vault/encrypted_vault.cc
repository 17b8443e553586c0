#include "src/vault/encrypted_vault.h"

#include <iterator>
#include <set>

#include "src/common/failpoint.h"

namespace edna::vault {

EncryptedVault::EncryptedVault(std::vector<uint8_t> app_key, KeyProvider keys, Rng rng)
    : app_key_(std::move(app_key)), keys_(std::move(keys)), rng_(rng) {}

std::string EncryptedVault::RenderOwner(const sql::Value& uid) {
  return uid.is_null() ? std::string() : uid.ToSqlString();
}

namespace {

std::string Aad(const std::string& owner, uint64_t disguise_id) {
  // Owner + disguise id are authenticated-but-visible metadata: the vault
  // must route records without decrypting them.
  return owner + "#" + std::to_string(disguise_id);
}

}  // namespace

void EncryptedVault::RegisterUser(const sql::Value& uid, const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  fingerprints_[RenderOwner(uid)] = fingerprint;
}

std::optional<std::string> EncryptedVault::FindFingerprint(const sql::Value& uid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FingerprintLocked(uid);
}

std::optional<std::string> EncryptedVault::FingerprintLocked(const sql::Value& uid) const {
  if (uid.is_null()) {
    return std::nullopt;
  }
  auto it = fingerprints_.find(RenderOwner(uid));
  if (it == fingerprints_.end()) {
    return std::nullopt;
  }
  return it->second;
}

StatusOr<std::vector<uint8_t>> EncryptedVault::ResolveKey(
    const sql::Value& uid, const std::optional<std::string>& fingerprint) const {
  if (uid.is_null()) {
    return app_key_;
  }
  if (!keys_) {
    return PermissionDenied("no key provider configured");
  }
  ASSIGN_OR_RETURN(std::vector<uint8_t> key, keys_(uid));
  // Verify against the registered fingerprint when one exists, so a wrong
  // key fails loudly instead of producing a MAC error deep in a reveal.
  if (fingerprint.has_value() && crypto::KeyFingerprint(key) != *fingerprint) {
    return PermissionDenied("supplied key does not match registered fingerprint for " +
                            uid.ToSqlString());
  }
  return key;
}

Status EncryptedVault::Store(const RevealRecord& record) {
  return StoreRecords(std::span<const RevealRecord>(&record, 1));
}

Status EncryptedVault::StoreBatch(const std::vector<RevealRecord>& records) {
  return StoreRecords(records);
}

Status EncryptedVault::StoreRecords(std::span<const RevealRecord> records) {
  std::vector<std::optional<std::string>> fingerprints;
  fingerprints.reserve(records.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const RevealRecord& record : records) {
      fingerprints.push_back(FingerprintLocked(record.user_id));
    }
  }

  // Per record, as a Store loop runs them: the fail point, then the key,
  // stopping at the first failure; the records before it are still stored.
  // Seal keys are derived once per distinct owner key across the batch,
  // keyed by the raw key bytes (not the owner) so a KeyProvider that rotates
  // keys mid-batch can never pair a record with stale subkeys.
  Status status;
  std::map<std::vector<uint8_t>, crypto::SealKeys> derived;
  std::vector<const crypto::SealKeys*> keys;
  keys.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    status = FailPoints::Instance().Check(failpoints::kVaultStore);
    if (!status.ok()) {
      break;
    }
    StatusOr<std::vector<uint8_t>> key = ResolveKey(records[i].user_id, fingerprints[i]);
    if (!key.ok()) {
      status = key.status();
      break;
    }
    auto [it, inserted] = derived.try_emplace(*std::move(key));
    if (inserted) {
      it->second = crypto::DeriveSealKeys(it->first);
    }
    keys.push_back(&it->second);
  }

  // Nonces in record order, so deterministic-rng fingerprints match a Store
  // loop.
  std::vector<crypto::ChaChaNonce> nonces(keys.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (crypto::ChaChaNonce& nonce : nonces) {
      std::vector<uint8_t> nbytes = rng_.NextBytes(crypto::kChaChaNonceSize);
      std::copy(nbytes.begin(), nbytes.end(), nonce.begin());
    }
  }

  std::vector<Entry> sealed;
  sealed.reserve(nonces.size());
  for (size_t i = 0; i < nonces.size(); ++i) {
    const RevealRecord& record = records[i];
    Entry& e = sealed.emplace_back();
    e.disguise_id = record.disguise_id;
    e.user_id = record.user_id;
    e.created = record.created;
    e.box = crypto::SealWith(*keys[i], nonces[i], record.Serialize(),
                             Aad(RenderOwner(e.user_id), e.disguise_id));
    ++stats_.crypto_ops;
    ++stats_.stores;
    stats_.bytes_stored += e.box.ciphertext.size() + e.box.nonce.size() + e.box.mac.size();
  }
  if (!sealed.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.insert(entries_.end(), std::make_move_iterator(sealed.begin()),
                    std::make_move_iterator(sealed.end()));
  }
  return status;
}

StatusOr<RevealRecord> EncryptedVault::OpenEntry(const Entry& e,
                                                 const crypto::SealKeys& keys) {
  ++stats_.crypto_ops;
  ASSIGN_OR_RETURN(std::vector<uint8_t> plain,
                   crypto::OpenWith(keys, e.box, Aad(RenderOwner(e.user_id), e.disguise_id)));
  ASSIGN_OR_RETURN(RevealRecord rec, RevealRecord::Deserialize(plain));
  ++stats_.records_fetched;
  return rec;
}

StatusOr<std::vector<RevealRecord>> EncryptedVault::FetchForUser(const sql::Value& uid) {
  ++stats_.fetches;
  std::vector<Entry> matched;
  std::optional<std::string> fingerprint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (!e.user_id.is_null() && !uid.is_null() && e.user_id.SqlEquals(uid)) {
        matched.push_back(e);
      }
    }
    fingerprint = FingerprintLocked(uid);
  }
  std::vector<RevealRecord> out;
  if (matched.empty()) {
    return out;
  }
  // One approval and one subkey split per fetch, not per record.
  ASSIGN_OR_RETURN(std::vector<uint8_t> key, ResolveKey(uid, fingerprint));
  const crypto::SealKeys keys = crypto::DeriveSealKeys(key);
  out.reserve(matched.size());
  for (const Entry& e : matched) {
    ASSIGN_OR_RETURN(RevealRecord rec, OpenEntry(e, keys));
    out.push_back(std::move(rec));
  }
  return out;
}

StatusOr<std::vector<RevealRecord>> EncryptedVault::FetchForDisguise(uint64_t disguise_id) {
  ++stats_.fetches;
  std::vector<Entry> matched;
  std::vector<std::optional<std::string>> fingerprints;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.disguise_id == disguise_id) {
        matched.push_back(e);
        fingerprints.push_back(FingerprintLocked(e.user_id));
      }
    }
  }
  std::vector<RevealRecord> out;
  out.reserve(matched.size());
  std::map<std::vector<uint8_t>, crypto::SealKeys> derived;
  for (size_t i = 0; i < matched.size(); ++i) {
    ASSIGN_OR_RETURN(std::vector<uint8_t> key, ResolveKey(matched[i].user_id, fingerprints[i]));
    auto [it, inserted] = derived.try_emplace(std::move(key));
    if (inserted) {
      it->second = crypto::DeriveSealKeys(it->first);
    }
    ASSIGN_OR_RETURN(RevealRecord rec, OpenEntry(matched[i], it->second));
    out.push_back(std::move(rec));
  }
  return out;
}

StatusOr<std::vector<RevealRecord>> EncryptedVault::FetchGlobal() {
  ++stats_.fetches;
  std::vector<Entry> matched;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.user_id.is_null()) {
        matched.push_back(e);
      }
    }
  }
  std::vector<RevealRecord> out;
  if (matched.empty()) {
    return out;
  }
  const crypto::SealKeys app_keys = crypto::DeriveSealKeys(app_key_);
  out.reserve(matched.size());
  for (const Entry& e : matched) {
    ASSIGN_OR_RETURN(RevealRecord rec, OpenEntry(e, app_keys));
    out.push_back(std::move(rec));
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
