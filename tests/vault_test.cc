// Unit tests for the vault subsystem: codec, reveal-record serialization,
// and all four deployment backends (table, offline, encrypted, two-tier).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/failpoint.h"
#include "src/common/rng.h"
#include "src/crypto/key.h"
#include "src/sql/codec.h"
#include "src/vault/encrypted_vault.h"
#include "src/vault/offline_vault.h"
#include "src/vault/reveal_record.h"
#include "src/vault/table_vault.h"
#include "src/vault/two_tier_vault.h"

namespace edna::vault {
namespace {

using sql::Value;

// --- Codec -------------------------------------------------------------------

TEST(CodecTest, ScalarRoundTrips) {
  sql::ByteWriter w;
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.F64(2.5);
  w.String("hello");
  std::vector<uint8_t> wire = w.Take();

  sql::ByteReader r(wire);
  EXPECT_EQ(*r.U8(), 7);
  EXPECT_EQ(*r.U32(), 0xdeadbeefu);
  EXPECT_EQ(*r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.I64(), -42);
  EXPECT_EQ(*r.F64(), 2.5);
  EXPECT_EQ(*r.String(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, ValueRoundTrips) {
  std::vector<Value> values{
      Value::Null(),          Value::Int(-7),         Value::Double(3.25),
      Value::Bool(true),      Value::Bool(false),     Value::String("it's"),
      Value::Blob({1, 2, 3}), Value::String(""),      Value::Int(INT64_MIN),
  };
  sql::ByteWriter w;
  for (const Value& v : values) {
    w.Value(v);
  }
  std::vector<uint8_t> wire = w.Take();
  sql::ByteReader r(wire);
  for (const Value& v : values) {
    auto back = r.Value();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, TruncationDetected) {
  sql::ByteWriter w;
  w.String("hello");
  std::vector<uint8_t> wire = w.Take();
  wire.pop_back();
  sql::ByteReader r(wire);
  EXPECT_FALSE(r.String().ok());
}

TEST(CodecTest, BadValueTagRejected) {
  std::vector<uint8_t> wire{0xff};
  sql::ByteReader r(wire);
  EXPECT_FALSE(r.Value().ok());
}

// --- RevealRecord ---------------------------------------------------------------

RevealRecord MakeRecord() {
  RevealRecord rec;
  rec.disguise_id = 42;
  rec.disguise_name = "HotCRP-GDPR+";
  rec.user_id = Value::Int(19);
  rec.created = 12345;
  rec.ops.push_back(RevealOp::DropPlaceholder("ContactInfo", 99));
  rec.ops.push_back(RevealOp::RestoreColumn("PaperReview", 8, "contactId",
                                            Value::Int(19), Value::Int(295)));
  rec.ops.push_back(RevealOp::RestoreRow(
      "ContactInfo", 19,
      db::Row{Value::Int(19), Value::String("Bea"), Value::Null(), Value::Bool(false)}));
  return rec;
}

TEST(RevealRecordTest, SerializeRoundTrip) {
  RevealRecord rec = MakeRecord();
  auto back = RevealRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->disguise_id, rec.disguise_id);
  EXPECT_EQ(back->disguise_name, rec.disguise_name);
  EXPECT_EQ(back->user_id, rec.user_id);
  EXPECT_EQ(back->created, rec.created);
  ASSERT_EQ(back->ops.size(), 3u);
  EXPECT_EQ(back->ops[0].kind, RevealOp::Kind::kDropPlaceholder);
  EXPECT_EQ(back->ops[1].kind, RevealOp::Kind::kRestoreColumn);
  EXPECT_EQ(back->ops[1].column, "contactId");
  EXPECT_EQ(back->ops[1].old_value, Value::Int(19));
  EXPECT_EQ(back->ops[1].new_value, Value::Int(295));
  EXPECT_EQ(back->ops[2].kind, RevealOp::Kind::kRestoreRow);
  EXPECT_EQ(back->ops[2].row.size(), 4u);
}

TEST(RevealRecordTest, GlobalRecordHasNullOwner) {
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.disguise_name = "ConfAnon";
  rec.user_id = Value::Null();
  auto back = RevealRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->user_id.is_null());
}

TEST(RevealRecordTest, CorruptionRejected) {
  std::vector<uint8_t> wire = MakeRecord().Serialize();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(RevealRecord::Deserialize(wire).ok());
  wire.clear();
  EXPECT_FALSE(RevealRecord::Deserialize(wire).ok());
}

// --- Backend conformance (parameterized over deployment models) ----------------

enum class Backend { kOffline, kTable, kEncrypted, kTwoTier };

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kOffline:
      return "offline";
    case Backend::kTable:
      return "table";
    case Backend::kEncrypted:
      return "encrypted";
    case Backend::kTwoTier:
      return "two_tier";
  }
  return "?";
}

class VaultConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    // Per-user keys for the encrypted backends: every user shares a test key
    // derived from their id.
    key_provider_ = [](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
      std::vector<uint8_t> key(32, static_cast<uint8_t>(uid.is_int() ? uid.AsInt() : 7));
      return key;
    };
    switch (GetParam()) {
      case Backend::kOffline:
        vault_ = std::make_unique<OfflineVault>();
        break;
      case Backend::kTable: {
        auto v = TableVault::Create(&db_);
        ASSERT_TRUE(v.ok()) << v.status();
        vault_ = std::move(*v);
        break;
      }
      case Backend::kEncrypted:
        vault_ = std::make_unique<EncryptedVault>(std::vector<uint8_t>(32, 0xee),
                                                  key_provider_, Rng(1));
        break;
      case Backend::kTwoTier:
        vault_ = std::make_unique<TwoTierVault>(
            std::make_unique<OfflineVault>(),
            std::make_unique<EncryptedVault>(std::vector<uint8_t>(32, 0xee),
                                             key_provider_, Rng(2)));
        break;
    }
  }

  RevealRecord Record(uint64_t id, Value owner) {
    RevealRecord rec;
    rec.disguise_id = id;
    rec.disguise_name = "spec-" + std::to_string(id);
    rec.user_id = std::move(owner);
    rec.created = static_cast<TimePoint>(100 * id);
    rec.ops.push_back(RevealOp::DropPlaceholder("T", id));
    return rec;
  }

  db::Database db_;
  KeyProvider key_provider_;
  std::unique_ptr<Vault> vault_;
};

TEST_P(VaultConformanceTest, StoreAndFetchByUser) {
  ASSERT_TRUE(vault_->Store(Record(1, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Store(Record(2, Value::Int(20))).ok());
  ASSERT_TRUE(vault_->Store(Record(3, Value::Int(19))).ok());

  auto recs = vault_->FetchForUser(Value::Int(19));
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[0].disguise_id, 1u);
  EXPECT_EQ((*recs)[1].disguise_id, 3u);  // oldest first
  EXPECT_EQ(vault_->NumRecords(), 3u);
}

TEST_P(VaultConformanceTest, FetchForDisguise) {
  ASSERT_TRUE(vault_->Store(Record(7, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Store(Record(8, Value::Null())).ok());
  auto recs = vault_->FetchForDisguise(7);
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].disguise_name, "spec-7");
  auto global = vault_->FetchForDisguise(8);
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global->size(), 1u);
  auto none = vault_->FetchForDisguise(99);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_P(VaultConformanceTest, GlobalRecordsSeparateFromUserRecords) {
  ASSERT_TRUE(vault_->Store(Record(1, Value::Null())).ok());
  ASSERT_TRUE(vault_->Store(Record(2, Value::Int(19))).ok());
  auto global = vault_->FetchGlobal();
  ASSERT_TRUE(global.ok()) << global.status();
  ASSERT_EQ(global->size(), 1u);
  EXPECT_EQ((*global)[0].disguise_id, 1u);
  auto user = vault_->FetchForUser(Value::Int(19));
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user->size(), 1u);
}

TEST_P(VaultConformanceTest, RemoveDropsRecords) {
  ASSERT_TRUE(vault_->Store(Record(1, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Store(Record(2, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Remove(1).ok());
  EXPECT_EQ(vault_->NumRecords(), 1u);
  auto recs = vault_->FetchForUser(Value::Int(19));
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].disguise_id, 2u);
}

TEST_P(VaultConformanceTest, ExpireBeforeMakesDisguisesIrreversible) {
  ASSERT_TRUE(vault_->Store(Record(1, Value::Int(19))).ok());  // created = 100
  ASSERT_TRUE(vault_->Store(Record(5, Value::Int(19))).ok());  // created = 500
  auto expired = vault_->ExpireBefore(300);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(*expired, 1u);
  EXPECT_EQ(vault_->NumRecords(), 1u);
  auto gone = vault_->FetchForDisguise(1);
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());
}

TEST_P(VaultConformanceTest, PayloadSurvivesRoundTrip) {
  RevealRecord rec = Record(9, Value::Int(19));
  rec.ops.push_back(RevealOp::RestoreColumn("Review", 8, "contactId", Value::Int(19),
                                            Value::Int(295)));
  ASSERT_TRUE(vault_->Store(rec).ok());
  auto recs = vault_->FetchForDisguise(9);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  ASSERT_EQ((*recs)[0].ops.size(), 2u);
  EXPECT_EQ((*recs)[0].ops[1].old_value, Value::Int(19));
}

// A global disguise stores one shard per owner, then one ownerless record,
// all under one disguise id (engine_apply.cc). Reversal needs every one of
// them, in store order, from whichever tiers they landed in.
TEST_P(VaultConformanceTest, FetchForDisguiseReturnsOwnedAndOwnerlessInStoreOrder) {
  ASSERT_TRUE(vault_->Store(Record(4, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Store(Record(4, Value::Int(20))).ok());
  ASSERT_TRUE(vault_->Store(Record(5, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Store(Record(4, Value::Null())).ok());
  auto recs = vault_->FetchForDisguise(4);
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 3u);
  EXPECT_EQ((*recs)[0].user_id, Value::Int(19));
  EXPECT_EQ((*recs)[1].user_id, Value::Int(20));
  EXPECT_TRUE((*recs)[2].user_id.is_null());
  for (const RevealRecord& rec : *recs) {
    EXPECT_EQ(rec.disguise_id, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, VaultConformanceTest,
                         ::testing::Values(Backend::kOffline, Backend::kTable,
                                           Backend::kEncrypted, Backend::kTwoTier),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendName(info.param);
                         });

// --- Encrypted-vault specifics ----------------------------------------------------

TEST(EncryptedVaultTest, DeniedKeyProviderBlocksAccess) {
  int calls = 0;
  KeyProvider deny = [&calls](const Value&) -> StatusOr<std::vector<uint8_t>> {
    ++calls;
    return PermissionDenied("user declined");
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), deny, Rng(3));
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.user_id = Value::Int(19);
  EXPECT_EQ(vault.Store(rec).code(), StatusCode::kPermissionDenied);
  EXPECT_GT(calls, 0);
}

TEST(EncryptedVaultTest, FingerprintMismatchDetected) {
  KeyProvider wrong_key = [](const Value&) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, 0xbb);
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), wrong_key, Rng(4));
  // Register the fingerprint of a DIFFERENT key.
  vault.RegisterUser(Value::Int(19), crypto::KeyFingerprint(std::vector<uint8_t>(32, 0xcc)));
  EXPECT_EQ(vault.FindFingerprint(Value::Int(19)),
            crypto::KeyFingerprint(std::vector<uint8_t>(32, 0xcc)));
  EXPECT_FALSE(vault.FindFingerprint(Value::Int(20)).has_value());
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.user_id = Value::Int(19);
  EXPECT_EQ(vault.Store(rec).code(), StatusCode::kPermissionDenied);
}

TEST(EncryptedVaultTest, GlobalRecordsNeedNoUserKey) {
  KeyProvider deny = [](const Value&) -> StatusOr<std::vector<uint8_t>> {
    return PermissionDenied("no");
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), deny, Rng(5));
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.user_id = Value::Null();
  ASSERT_TRUE(vault.Store(rec).ok());
  auto global = vault.FetchGlobal();
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global->size(), 1u);
}

TEST(EncryptedVaultTest, CryptoOpsCounted) {
  KeyProvider provider = [](const Value&) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, 0xaa);
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), provider, Rng(6));
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.user_id = Value::Int(19);
  ASSERT_TRUE(vault.Store(rec).ok());
  ASSERT_TRUE(vault.FetchForUser(Value::Int(19)).ok());
  EXPECT_GE(vault.stats().crypto_ops, 2u);  // one seal + one open
}

// The KeyProvider runs outside the vault's lock: while user 1's provider
// waits on an approval, user 2's store and fetch must finish. Every wait is
// bounded and the approval is granted on every path, so a vault that holds
// its lock across the provider fails here instead of hanging.
TEST(EncryptedVaultTest, SlowKeyProviderDoesNotStallOtherOwners) {
  using namespace std::chrono_literals;
  struct Approval {
    std::mutex mu;
    std::condition_variable cv;
    bool asked = false;
    bool granted = false;
    bool other_done = false;
  } approval;
  KeyProvider provider = [&approval](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
    if (uid.AsInt() == 1) {
      std::unique_lock<std::mutex> lock(approval.mu);
      approval.asked = true;
      approval.cv.notify_all();
      approval.cv.wait_for(lock, 60s, [&] { return approval.granted; });
    }
    return std::vector<uint8_t>(32, static_cast<uint8_t>(uid.AsInt()));
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), provider, Rng(9));
  RevealRecord slow = MakeRecord();
  slow.disguise_id = 1;
  slow.user_id = Value::Int(1);
  RevealRecord fast = MakeRecord();
  fast.disguise_id = 2;
  fast.user_id = Value::Int(2);

  Status slow_store;
  Status fast_store;
  StatusOr<std::vector<RevealRecord>> fast_fetch = std::vector<RevealRecord>{};
  std::thread slow_thread;
  std::thread fast_thread;
  // Grants user 1's approval and joins both threads, on every path out.
  class GrantAndJoin {
   public:
    GrantAndJoin(Approval* approval, std::thread* slow, std::thread* fast)
        : approval_(approval), threads_{slow, fast} {}
    GrantAndJoin(const GrantAndJoin&) = delete;
    GrantAndJoin& operator=(const GrantAndJoin&) = delete;
    ~GrantAndJoin() { Run(); }

    void Run() {
      {
        std::lock_guard<std::mutex> lock(approval_->mu);
        approval_->granted = true;
      }
      approval_->cv.notify_all();
      for (std::thread* t : threads_) {
        if (t->joinable()) {
          t->join();
        }
      }
    }

   private:
    Approval* approval_;
    std::thread* threads_[2];
  } grant_and_join(&approval, &slow_thread, &fast_thread);

  slow_thread = std::thread([&] { slow_store = vault.Store(slow); });
  {
    std::unique_lock<std::mutex> lock(approval.mu);
    ASSERT_TRUE(approval.cv.wait_for(lock, 10s, [&] { return approval.asked; }))
        << "user 1's store never asked for a key";
  }
  fast_thread = std::thread([&] {
    fast_store = vault.Store(fast);
    fast_fetch = vault.FetchForUser(Value::Int(2));
    std::lock_guard<std::mutex> lock(approval.mu);
    approval.other_done = true;
    approval.cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(approval.mu);
    EXPECT_TRUE(approval.cv.wait_for(lock, 10s, [&] { return approval.other_done; }))
        << "user 2's store and fetch waited on user 1's key provider";
    EXPECT_FALSE(approval.granted);
  }
  grant_and_join.Run();
  EXPECT_TRUE(slow_store.ok()) << slow_store;
  EXPECT_TRUE(fast_store.ok()) << fast_store;
  ASSERT_TRUE(fast_fetch.ok()) << fast_fetch.status();
  EXPECT_EQ(fast_fetch->size(), 1u);
  auto slow_fetch = vault.FetchForUser(Value::Int(1));
  ASSERT_TRUE(slow_fetch.ok()) << slow_fetch.status();
  ASSERT_EQ(slow_fetch->size(), 1u);
  EXPECT_EQ((*slow_fetch)[0].disguise_id, 1u);
  EXPECT_EQ(vault.NumRecords(), 2u);
}

// StoreBatch derives each owner key's subkeys once for the whole batch; a
// Store loop derives them per record. Both must leave vaults that nobody
// can tell apart: same records per owner, per disguise and global, and the
// same counters (bytes_stored covers the sealed sizes).
TEST(EncryptedVaultTest, StoreBatchMatchesStoreLoop) {
  KeyProvider provider = [](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, static_cast<uint8_t>(uid.AsInt()));
  };
  std::vector<RevealRecord> records;
  for (int64_t owner : {19, 7, 19, 23, 7, 19}) {
    RevealRecord rec = MakeRecord();
    rec.disguise_id = 100 + records.size() % 3;
    rec.user_id = Value::Int(owner);
    rec.created = 1000 + static_cast<TimePoint>(records.size());
    records.push_back(std::move(rec));
  }
  RevealRecord global = MakeRecord();
  global.disguise_id = 101;
  global.user_id = Value::Null();
  records.push_back(std::move(global));

  EncryptedVault batched(std::vector<uint8_t>(32, 1), provider, Rng(8));
  EncryptedVault looped(std::vector<uint8_t>(32, 1), provider, Rng(8));
  ASSERT_TRUE(batched.StoreBatch(records).ok());
  for (const RevealRecord& rec : records) {
    ASSERT_TRUE(looped.Store(rec).ok());
  }

  auto serialized = [](const StatusOr<std::vector<RevealRecord>>& fetched) {
    EXPECT_TRUE(fetched.ok()) << fetched.status();
    std::vector<std::vector<uint8_t>> out;
    if (fetched.ok()) {
      for (const RevealRecord& rec : *fetched) {
        out.push_back(rec.Serialize());
      }
    }
    return out;
  };
  for (int64_t owner : {7, 19, 23}) {
    auto want = serialized(looped.FetchForUser(Value::Int(owner)));
    EXPECT_FALSE(want.empty()) << "owner " << owner;
    EXPECT_EQ(serialized(batched.FetchForUser(Value::Int(owner))), want) << "owner " << owner;
  }
  for (uint64_t id : {100, 101, 102}) {
    auto want = serialized(looped.FetchForDisguise(id));
    EXPECT_FALSE(want.empty()) << "disguise " << id;
    EXPECT_EQ(serialized(batched.FetchForDisguise(id)), want) << "disguise " << id;
  }
  auto want_global = serialized(looped.FetchGlobal());
  EXPECT_EQ(want_global.size(), 1u);
  EXPECT_EQ(serialized(batched.FetchGlobal()), want_global);

  const VaultStats& a = batched.stats();
  const VaultStats& b = looped.stats();
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.fetches, b.fetches);
  EXPECT_EQ(a.records_fetched, b.records_fetched);
  EXPECT_EQ(a.bytes_stored, b.bytes_stored);
  EXPECT_EQ(a.crypto_ops, b.crypto_ops);
  EXPECT_EQ(a.stores, records.size());
}

// A vault.store failure at record k stops a batch as it stops a Store loop:
// records 0..k-1 are stored, the injected error is returned, and the
// KeyProvider is never asked for record k's key or any later one.
TEST(EncryptedVaultTest, StoreBatchStopsAtFailPointLikeStoreLoop) {
  FailPoints& fail_points = FailPoints::Instance();
  fail_points.DisableAll();
  std::vector<RevealRecord> records;
  for (int64_t owner : {19, 7, 19, 23, 7}) {
    RevealRecord rec = MakeRecord();
    rec.disguise_id = 100 + records.size();
    rec.user_id = Value::Int(owner);
    records.push_back(std::move(rec));
  }
  int key_requests = 0;
  KeyProvider provider = [&key_requests](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
    ++key_requests;
    return std::vector<uint8_t>(32, static_cast<uint8_t>(uid.AsInt()));
  };
  const FailPointConfig third_store{.action = FailPointAction::kReturnError,
                                    .trigger = FailPointTrigger::kOneShot,
                                    .n = 3};

  EncryptedVault batched(std::vector<uint8_t>(32, 1), provider, Rng(8));
  fail_points.Enable(failpoints::kVaultStore, third_store);
  EXPECT_FALSE(batched.StoreBatch(records).ok());
  EXPECT_EQ(key_requests, 2);

  key_requests = 0;
  EncryptedVault looped(std::vector<uint8_t>(32, 1), provider, Rng(8));
  fail_points.Enable(failpoints::kVaultStore, third_store);
  Status looped_status;
  for (const RevealRecord& rec : records) {
    looped_status = looped.Store(rec);
    if (!looped_status.ok()) {
      break;
    }
  }
  fail_points.DisableAll();
  EXPECT_FALSE(looped_status.ok());
  EXPECT_EQ(key_requests, 2);

  const std::vector<uint64_t> stored = {100, 101};
  auto batched_ids = batched.ListDisguiseIds();
  auto looped_ids = looped.ListDisguiseIds();
  ASSERT_TRUE(batched_ids.ok() && looped_ids.ok());
  EXPECT_EQ(*batched_ids, stored);
  EXPECT_EQ(*looped_ids, stored);
  EXPECT_EQ(batched.stats().bytes_stored, looped.stats().bytes_stored);
}

// --- Table-vault specifics ----------------------------------------------------------

TEST(TableVaultTest, LivesInsideApplicationDatabase) {
  db::Database db;
  auto vault = TableVault::Create(&db);
  ASSERT_TRUE(vault.ok());
  EXPECT_TRUE(db.HasTable(kVaultTableName));
  RevealRecord rec;
  rec.disguise_id = 3;
  rec.user_id = Value::Int(19);
  ASSERT_TRUE((*vault)->Store(rec).ok());
  EXPECT_EQ(db.FindTable(kVaultTableName)->num_rows(), 1u);
}

TEST(TableVaultTest, ParticipatesInTransactions) {
  db::Database db;
  auto vault = TableVault::Create(&db);
  ASSERT_TRUE(vault.ok());
  ASSERT_TRUE(db.Begin().ok());
  RevealRecord rec;
  rec.disguise_id = 3;
  rec.user_id = Value::Int(19);
  ASSERT_TRUE((*vault)->Store(rec).ok());
  ASSERT_TRUE(db.Rollback().ok());
  // The vault write was part of the aborted transaction — gone with it.
  EXPECT_EQ((*vault)->NumRecords(), 0u);
}

TEST(TableVaultTest, CreateTwiceReusesTable) {
  db::Database db;
  ASSERT_TRUE(TableVault::Create(&db).ok());
  EXPECT_TRUE(TableVault::Create(&db).ok());
}

// --- Two-tier specifics ---------------------------------------------------------------

TEST(TwoTierVaultTest, RoutesByOwner) {
  auto global = std::make_unique<OfflineVault>();
  auto user = std::make_unique<OfflineVault>();
  OfflineVault* global_ptr = global.get();
  OfflineVault* user_ptr = user.get();
  TwoTierVault vault(std::move(global), std::move(user));

  RevealRecord g;
  g.disguise_id = 1;
  g.user_id = Value::Null();
  RevealRecord u;
  u.disguise_id = 2;
  u.user_id = Value::Int(19);
  ASSERT_TRUE(vault.Store(g).ok());
  ASSERT_TRUE(vault.Store(u).ok());
  EXPECT_EQ(global_ptr->NumRecords(), 1u);
  EXPECT_EQ(user_ptr->NumRecords(), 1u);
  EXPECT_EQ(vault.NumRecords(), 2u);
  EXPECT_NE(vault.ModelName().find("two-tier"), std::string::npos);
}

}  // namespace
}  // namespace edna::vault
