// Two-tier vault: the multi-tier design sketched in §4.2. Records route by
// owner. Ownerless records go to a first-tier vault freely accessible to the
// disguising tool; owned records go to a second-tier per-user (typically
// encrypted) vault. A user-invoked disguise stores one owned record. A
// global disguise such as ConfAnon stores one shard per owner, which land
// in the user tier (that is what lets a later per-user disguise compose by
// reading one user's records), then its ownerless remainder, which lands in
// the global tier. Reversing a global disguise therefore reads both tiers,
// and the owner shards' reversal needs their owners' keys.
#ifndef SRC_VAULT_TWO_TIER_VAULT_H_
#define SRC_VAULT_TWO_TIER_VAULT_H_

#include <algorithm>
#include <iterator>
#include <memory>

#include "src/vault/vault.h"

namespace edna::vault {

class TwoTierVault : public Vault {
 public:
  // Takes ownership of both tiers.
  TwoTierVault(std::unique_ptr<Vault> global_tier, std::unique_ptr<Vault> user_tier)
      : global_tier_(std::move(global_tier)), user_tier_(std::move(user_tier)) {}

  std::string ModelName() const override {
    return "two-tier(" + global_tier_->ModelName() + "," + user_tier_->ModelName() + ")";
  }

  Status Store(const RevealRecord& record) override {
    ++stats_.stores;
    if (record.user_id.is_null()) {
      return global_tier_->Store(record);
    }
    return user_tier_->Store(record);
  }

  StatusOr<std::vector<RevealRecord>> FetchForUser(const sql::Value& uid) override {
    ++stats_.fetches;
    return user_tier_->FetchForUser(uid);
  }

  StatusOr<std::vector<RevealRecord>> FetchForDisguise(uint64_t disguise_id) override {
    ++stats_.fetches;
    // Store order: a global disguise's owner shards (user tier) come before
    // its ownerless remainder (global tier).
    ASSIGN_OR_RETURN(std::vector<RevealRecord> records,
                     user_tier_->FetchForDisguise(disguise_id));
    ASSIGN_OR_RETURN(std::vector<RevealRecord> global,
                     global_tier_->FetchForDisguise(disguise_id));
    records.insert(records.end(), std::make_move_iterator(global.begin()),
                   std::make_move_iterator(global.end()));
    return records;
  }

  StatusOr<std::vector<RevealRecord>> FetchGlobal() override {
    ++stats_.fetches;
    return global_tier_->FetchGlobal();
  }

  Status Remove(uint64_t disguise_id) override {
    RETURN_IF_ERROR(global_tier_->Remove(disguise_id));
    return user_tier_->Remove(disguise_id);
  }

  StatusOr<std::vector<uint64_t>> ListDisguiseIds() const override {
    ASSIGN_OR_RETURN(std::vector<uint64_t> ids, global_tier_->ListDisguiseIds());
    ASSIGN_OR_RETURN(std::vector<uint64_t> user_ids, user_tier_->ListDisguiseIds());
    ids.insert(ids.end(), user_ids.begin(), user_ids.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }

  StatusOr<size_t> ExpireBefore(TimePoint cutoff) override {
    ASSIGN_OR_RETURN(size_t a, global_tier_->ExpireBefore(cutoff));
    ASSIGN_OR_RETURN(size_t b, user_tier_->ExpireBefore(cutoff));
    return a + b;
  }

  size_t NumRecords() const override {
    return global_tier_->NumRecords() + user_tier_->NumRecords();
  }

  VaultStats CombinedStats() const override {
    VaultStats out = stats_;
    for (const Vault* tier : {global_tier_.get(), user_tier_.get()}) {
      VaultStats s = tier->CombinedStats();
      out.records_fetched += s.records_fetched;
      out.bytes_stored += s.bytes_stored;
      out.crypto_ops += s.crypto_ops;
    }
    return out;
  }

  Vault* global_tier() { return global_tier_.get(); }
  Vault* user_tier() { return user_tier_.get(); }

 private:
  std::unique_ptr<Vault> global_tier_;
  std::unique_ptr<Vault> user_tier_;
};

}  // namespace edna::vault

#endif  // SRC_VAULT_TWO_TIER_VAULT_H_
