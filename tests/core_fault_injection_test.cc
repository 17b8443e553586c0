// Fault-injection sweep of the apply/reveal crash-consistency protocol.
//
// Every registered fail point (src/common/failpoint.h) is armed in turn — in
// both return-error and simulated-crash mode, at every hit index it reaches
// during a representative apply / composed-apply / reveal sequence — and the
// suite asserts that after the failure (plus DisguiseEngine::Recover() where
// the failure froze state) AuditConsistency() reports zero violations and
// the engine remains fully usable. The final test asserts 100% fail-point
// coverage: every canonical site fired at least once in this binary.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/generator.h"
#include "src/common/clock.h"
#include "src/common/failpoint.h"
#include "src/common/rng.h"
#include "src/core/batch.h"
#include "src/core/engine.h"
#include "src/db/storage.h"
#include "src/disguise/spec_parser.h"
#include "src/sql/parser.h"
#include "src/vault/offline_vault.h"
#include "src/vault/table_vault.h"

namespace edna::core {
namespace {

using sql::Value;

// The canonical engine-path sites the sweep must cover (storage.save/load
// are exercised separately; they sit outside the apply/reveal protocol).
const char* const kEngineSites[] = {
    failpoints::kDbBegin,          failpoints::kDbCommit,
    failpoints::kDbRollback,       failpoints::kVaultStore,
    failpoints::kVaultRemove,      failpoints::kLogAppend,
    failpoints::kLogUnappend,      failpoints::kLogMarkRevealed,
    failpoints::kApplyBeforeCommit, failpoints::kApplyAfterCommit,
    failpoints::kRevealBeforeCommit, failpoints::kRevealAfterCommit,
};

// users (id, name, email, disabled) <- notes (id, user_id, text)
void BuildTinySchema(db::Database* db) {
  db::TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "name", .type = db::ColumnType::kString, .nullable = false})
      .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = true})
      .AddColumn({.name = "disabled", .type = db::ColumnType::kBool, .nullable = false,
                  .default_value = sql::Value::Bool(false)})
      .SetPrimaryKey({"id"});
  ASSERT_TRUE(db->CreateTable(std::move(users)).ok());

  db::TableSchema notes("notes");
  notes
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "user_id", .type = db::ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "text", .type = db::ColumnType::kString})
      .SetPrimaryKey({"id"})
      .AddForeignKey({.column = "user_id", .parent_table = "users", .parent_column = "id",
                      .on_delete = db::FkAction::kRestrict});
  ASSERT_TRUE(db->CreateTable(std::move(notes)).ok());
}

constexpr char kScrubSpec[] = R"(
disguise_name: "Scrub"
user_to_disguise: $UID
reversible: true
table users:
  generate_placeholder:
    "name" <- Random
    "email" <- Const(NULL)
    "disabled" <- Const(TRUE)
  transformations:
    Remove(pred: "id" = $UID)
table notes:
  transformations:
    Decorrelate(pred: "user_id" = $UID, foreign_key: ("user_id", users))
)";

constexpr char kRedactAllSpec[] = R"(
disguise_name: "RedactAll"
reversible: true
table notes:
  transformations:
    Modify(pred: TRUE, column: "text", value: Redact)
)";

// Global disguise that decorrelates every note: its reveal records shard
// per owner, so a single apply issues several vault Store calls.
constexpr char kAnonAllSpec[] = R"(
disguise_name: "AnonAll"
reversible: true
table users:
  generate_placeholder:
    "name" <- Random
    "email" <- Const(NULL)
    "disabled" <- Const(TRUE)
table notes:
  transformations:
    Decorrelate(pred: TRUE, foreign_key: ("user_id", users))
)";

// A fresh tiny world per sweep iteration: a crash freezes engine state, so
// iterations must not share engines.
struct World {
  db::Database db;
  vault::OfflineVault vault;
  SimulatedClock clock{1000};
  std::unique_ptr<DisguiseEngine> engine;

  explicit World(bool strict = true) {
    BuildTinySchema(&db);
    EngineOptions options;
    options.protect_disguised_data = strict;
    engine = std::make_unique<DisguiseEngine>(&db, &vault, &clock, options);
    for (const char* text : {kScrubSpec, kRedactAllSpec, kAnonAllSpec}) {
      auto spec = disguise::ParseDisguiseSpec(text);
      ASSERT_TRUE_OR_DIE(spec.ok());
      ASSERT_TRUE_OR_DIE(engine->RegisterSpec(*std::move(spec)).ok());
    }
    InsertUser("Bea", "bea@uni.edu");
    InsertUser("Axl", "axl@uni.edu");
    InsertUser("Cyd", "cyd@uni.edu");
    InsertNote(1, "first note");
    InsertNote(1, "second note");
    InsertNote(2, "axl note");
    InsertNote(3, "cyd note");
  }

  // gtest ASSERTs need a void function; constructors aren't. Die loudly.
  static void ASSERT_TRUE_OR_DIE(bool ok) {
    if (!ok) {
      std::abort();
    }
  }

  void InsertUser(const std::string& name, const std::string& email) {
    ASSERT_TRUE_OR_DIE(db.InsertValues("users", {{"name", Value::String(name)},
                                                 {"email", Value::String(email)}})
                           .ok());
  }
  void InsertNote(int64_t uid, const std::string& text) {
    ASSERT_TRUE_OR_DIE(db.InsertValues("notes", {{"user_id", Value::Int(uid)},
                                                 {"text", Value::String(text)}})
                           .ok());
  }
};

// The representative operation sequence the sweep drives: per-user apply,
// global sharded apply composed on top, reveal of the first, then a second
// per-user apply composed with the global one.
Status RunSequence(World* w) {
  ASSIGN_OR_RETURN(ApplyResult a1, w->engine->ApplyForUser("Scrub", Value::Int(1)));
  RETURN_IF_ERROR(w->engine->Apply("AnonAll", {}).status());
  RETURN_IF_ERROR(w->engine->Reveal(a1.disguise_id).status());
  RETURN_IF_ERROR(w->engine->ApplyForUser("Scrub", Value::Int(2)).status());
  return OkStatus();
}

// Snapshot of per-site hit counters, for measuring deltas without resetting
// the process-wide counters (the final coverage test needs them cumulative).
std::map<std::string, uint64_t> SnapshotHits() {
  std::map<std::string, uint64_t> out;
  for (const char* site : kEngineSites) {
    out[site] = FailPoints::Instance().Hits(site);
  }
  return out;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().DisableAll(); }
  void TearDown() override { FailPoints::Instance().DisableAll(); }

  // Asserts the audit is clean, with a readable dump on failure.
  static void ExpectConsistent(World* w, const std::string& context) {
    auto audit = w->engine->AuditConsistency();
    ASSERT_TRUE(audit.ok()) << context << ": " << audit.status();
    EXPECT_TRUE(audit->ok()) << context << ":\n" << audit->ToString();
  }
};

// Baseline: the sequence runs clean, the audit passes, and it registers
// every apply/reveal-path fail point we are about to sweep.
TEST_F(FaultInjectionTest, CleanSequencePassesAuditAndHitsAllSites) {
  auto before = SnapshotHits();
  World w;
  ASSERT_TRUE(RunSequence(&w).ok());
  ExpectConsistent(&w, "clean sequence");
  EXPECT_EQ(w.engine->journal().size(), 0u);

  for (const char* site : kEngineSites) {
    if (site == std::string(failpoints::kDbRollback) ||
        site == std::string(failpoints::kLogUnappend)) {
      continue;  // only hit on failure paths; swept via double-fault tests
    }
    EXPECT_GT(FailPoints::Instance().Hits(site), before[site])
        << site << " never evaluated by the clean sequence";
  }
}

// The sweep: for every site the clean sequence evaluates, for both actions,
// for every hit index, arm a one-shot fail point and run the sequence. After
// the injected failure, Recover() must leave a state with zero audit
// violations and the engine must complete the remaining work.
TEST_F(FaultInjectionTest, SweepEveryFailPointDuringApplyRevealCompose) {
  // Profile the clean sequence to learn per-site hit counts.
  std::map<std::string, uint64_t> hits;
  {
    auto before = SnapshotHits();
    World w;
    ASSERT_TRUE(RunSequence(&w).ok());
    for (const char* site : kEngineSites) {
      hits[site] = FailPoints::Instance().Hits(site) - before[site];
    }
  }

  size_t iterations = 0;
  for (const auto& [site, count] : hits) {
    for (uint64_t k = 1; k <= count; ++k) {
      for (FailPointAction action :
           {FailPointAction::kReturnError, FailPointAction::kCrash}) {
        SCOPED_TRACE(site + " action=" +
                     (action == FailPointAction::kCrash ? std::string("crash")
                                                        : std::string("error")) +
                     " hit=" + std::to_string(k));
        ++iterations;
        World w;
        FailPoints::Instance().Enable(
            site, {.action = action, .trigger = FailPointTrigger::kOneShot, .n = k});
        Status run = RunSequence(&w);
        FailPoints::Instance().DisableAll();
        ASSERT_FALSE(run.ok()) << "one-shot at hit " << k << " of " << count
                               << " did not fail the sequence";
        EXPECT_EQ(FailPoints::IsSimulatedCrash(run),
                  action == FailPointAction::kCrash)
            << run;

        auto recovered = w.engine->Recover();
        ASSERT_TRUE(recovered.ok()) << recovered.status();
        ExpectConsistent(&w, "after recovery");

        // The engine must still be fully usable: run a fresh apply + reveal.
        auto again = w.engine->ApplyForUser("Scrub", Value::Int(3));
        ASSERT_TRUE(again.ok()) << again.status();
        auto reveal = w.engine->Reveal(again->disguise_id);
        ASSERT_TRUE(reveal.ok()) << reveal.status();
        ExpectConsistent(&w, "after post-recovery apply+reveal");
        EXPECT_EQ(w.engine->journal().size(), 0u);
      }
    }
  }
  // 10 sites x 2 actions x their hit counts: a real sweep, not a smoke test.
  EXPECT_GE(iterations, 2 * hits.size());
}

// Satellite: a commit refusal must roll the transaction back, not strand it.
// (The old code returned with the transaction still open, poisoning the next
// operation.) Error mode compensates cleanly — no Recover() needed.
TEST_F(FaultInjectionTest, CommitFailureRollsBackInsteadOfStrandingTxn) {
  World w;
  FailPoints::Instance().Enable(failpoints::kDbCommit,
                                {.action = FailPointAction::kReturnError});
  auto r = w.engine->ApplyForUser("Scrub", Value::Int(1));
  FailPoints::Instance().DisableAll();
  ASSERT_FALSE(r.ok());

  EXPECT_FALSE(w.db.InTransaction()) << "failed commit left the transaction open";
  EXPECT_EQ(w.vault.NumRecords(), 0u);
  EXPECT_EQ(w.engine->log().size(), 0u);
  EXPECT_EQ(w.engine->journal().size(), 0u);
  ExpectConsistent(&w, "after commit failure (no recovery)");

  // Same for reveal: commit-first ordering means a refused commit leaves the
  // disguise applied and still revealable.
  auto applied = w.engine->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(applied.ok()) << applied.status();
  FailPoints::Instance().Enable(failpoints::kDbCommit,
                                {.action = FailPointAction::kReturnError});
  auto revealed = w.engine->Reveal(applied->disguise_id);
  FailPoints::Instance().DisableAll();
  ASSERT_FALSE(revealed.ok());
  EXPECT_FALSE(w.db.InTransaction());
  EXPECT_GT(w.vault.NumRecords(), 0u) << "vault records consumed by failed reveal";
  ExpectConsistent(&w, "after reveal commit failure");
  auto revealed_again = w.engine->Reveal(applied->disguise_id);
  EXPECT_TRUE(revealed_again.ok()) << revealed_again.status();
  ExpectConsistent(&w, "after successful second reveal");
}

// Satellite: partial vault-shard storage. AnonAll shards reveal records per
// note owner; failing the store midway through the shard loop must leave no
// shard behind, no log entry, and a clean audit — without recovery.
TEST_F(FaultInjectionTest, PartialVaultShardStoreLeavesNothingBehind) {
  // Clean profile: count the Store calls one AnonAll apply issues.
  uint64_t stores;
  {
    uint64_t before = FailPoints::Instance().Hits(failpoints::kVaultStore);
    World w;
    ASSERT_TRUE(w.engine->Apply("AnonAll", {}).ok());
    stores = FailPoints::Instance().Hits(failpoints::kVaultStore) - before;
  }
  ASSERT_GE(stores, 3u) << "AnonAll should store per-owner shards plus a "
                           "global record; got "
                        << stores << " Store call(s)";

  // Fail each shard position in turn, including the final global record.
  for (uint64_t k = 2; k <= stores; ++k) {
    SCOPED_TRACE("failing Store call " + std::to_string(k) + " of " +
                 std::to_string(stores));
    World w;
    FailPoints::Instance().Enable(failpoints::kVaultStore,
                                  {.action = FailPointAction::kReturnError,
                                   .trigger = FailPointTrigger::kOneShot,
                                   .n = k});
    auto r = w.engine->Apply("AnonAll", {});
    FailPoints::Instance().DisableAll();
    ASSERT_FALSE(r.ok());

    EXPECT_EQ(w.vault.NumRecords(), 0u) << "a partial shard survived";
    EXPECT_EQ(w.engine->log().size(), 0u) << "log entry of failed apply survived";
    EXPECT_EQ(w.engine->journal().size(), 0u);
    EXPECT_FALSE(w.db.InTransaction());
    ExpectConsistent(&w, "after partial shard store failure (no recovery)");
  }
}

// Double fault: the compensation path itself fails (rollback refuses or
// crashes while unwinding a failed vault store). The returned status must
// surface the primary cause, and Recover() must still repair everything.
TEST_F(FaultInjectionTest, DoubleFaultDuringCompensation) {
  for (FailPointAction rollback_action :
       {FailPointAction::kReturnError, FailPointAction::kCrash}) {
    SCOPED_TRACE(rollback_action == FailPointAction::kCrash ? "rollback crashes"
                                                            : "rollback errors");
    World w;
    FailPoints::Instance().Enable(failpoints::kVaultStore,
                                  {.action = FailPointAction::kReturnError});
    FailPoints::Instance().Enable(failpoints::kDbRollback,
                                  {.action = rollback_action});
    auto r = w.engine->ApplyForUser("Scrub", Value::Int(1));
    FailPoints::Instance().DisableAll();
    ASSERT_FALSE(r.ok());

    auto recovered = w.engine->Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_FALSE(w.db.InTransaction());
    ExpectConsistent(&w, "after double-fault recovery");

    // log.unappend double fault: the log drop fails while unwinding.
    World w2;
    FailPoints::Instance().Enable(failpoints::kVaultStore,
                                  {.action = FailPointAction::kReturnError,
                                   .trigger = FailPointTrigger::kOneShot,
                                   .n = 1});
    FailPoints::Instance().Enable(failpoints::kLogUnappend,
                                  {.action = rollback_action});
    auto r2 = w2.engine->ApplyForUser("Scrub", Value::Int(1));
    FailPoints::Instance().DisableAll();
    ASSERT_FALSE(r2.ok());
    auto recovered2 = w2.engine->Recover();
    ASSERT_TRUE(recovered2.ok()) << recovered2.status();
    ExpectConsistent(&w2, "after log-unappend double-fault recovery");
  }
}

// Double fault, then another apply before recovery: the failed apply's
// unwind cannot remove its vault records, so its journal entry stays pending
// under its disguise id. The next apply must get a fresh id; were it handed
// the pending one, Recover() would clear that committed apply's vault
// records and log entry, and the account it removed could never come back.
TEST_F(FaultInjectionTest, FailedUnwindDoesNotLendItsIdToTheNextApply) {
  World w;
  FailPoints::Instance().Enable(failpoints::kApplyBeforeCommit,
                                {.action = FailPointAction::kReturnError,
                                 .trigger = FailPointTrigger::kOneShot,
                                 .n = 1});
  FailPoints::Instance().Enable(failpoints::kVaultRemove,
                                {.action = FailPointAction::kReturnError,
                                 .trigger = FailPointTrigger::kOneShot,
                                 .n = 1});
  auto failed = w.engine->ApplyForUser("Scrub", Value::Int(1));
  FailPoints::Instance().DisableAll();
  ASSERT_FALSE(failed.ok());
  ASSERT_EQ(w.engine->journal().size(), 1u) << "the failed unwind left nothing pending";

  auto axl = sql::ParseExpression("\"id\" = 2 AND \"name\" = 'Axl'");
  ASSERT_TRUE(axl.ok()) << axl.status();
  auto applied = w.engine->ApplyForUser("Scrub", Value::Int(2));
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_TRUE(w.db.Select("users", axl->get(), {})->empty());

  auto recovered = w.engine->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->applies_rolled_back, 1u);
  ExpectConsistent(&w, "after recovering the failed apply");

  // Recovery dropped only the failed apply; the committed one reverses.
  ASSERT_EQ(w.engine->log().size(), 1u);
  EXPECT_EQ(w.engine->log().entries().front().id, applied->disguise_id);
  auto revealed = w.engine->Reveal(applied->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  EXPECT_EQ(w.db.Select("users", axl->get(), {})->size(), 1u);
  ExpectConsistent(&w, "after revealing the committed apply");
}

// Crash after commit: the apply is durable; recovery rolls it forward and
// the disguise remains revealable.
TEST_F(FaultInjectionTest, CrashAfterApplyCommitRollsForward) {
  World w;
  FailPoints::Instance().Enable(failpoints::kApplyAfterCommit,
                                {.action = FailPointAction::kCrash});
  auto r = w.engine->ApplyForUser("Scrub", Value::Int(1));
  FailPoints::Instance().DisableAll();
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(FailPoints::IsSimulatedCrash(r.status()));
  ASSERT_EQ(w.engine->journal().size(), 1u);

  auto recovered = w.engine->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->applies_rolled_forward, 1u);
  ExpectConsistent(&w, "after roll-forward");

  // The committed disguise survived and reverses.
  ASSERT_EQ(w.engine->log().size(), 1u);
  uint64_t id = w.engine->log().entries().front().id;
  auto revealed = w.engine->Reveal(id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  ExpectConsistent(&w, "after revealing the rolled-forward disguise");
}

// Crash after reveal commit: the database restore is durable; recovery
// finishes the log/vault bookkeeping (roll forward).
TEST_F(FaultInjectionTest, CrashAfterRevealCommitRollsForward) {
  World w;
  auto applied = w.engine->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(applied.ok()) << applied.status();

  FailPoints::Instance().Enable(failpoints::kRevealAfterCommit,
                                {.action = FailPointAction::kCrash});
  auto r = w.engine->Reveal(applied->disguise_id);
  FailPoints::Instance().DisableAll();
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(FailPoints::IsSimulatedCrash(r.status()));

  auto recovered = w.engine->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->reveals_rolled_forward, 1u);
  EXPECT_EQ(w.vault.NumRecords(), 0u) << "consumed reveal records not dropped";
  EXPECT_FALSE(w.engine->log().entries().front().active);
  ExpectConsistent(&w, "after reveal roll-forward");
}

// Crash before reveal commit: rollback restores the disguised state and the
// disguise stays applied and revealable.
TEST_F(FaultInjectionTest, CrashBeforeRevealCommitRollsBack) {
  World w;
  auto applied = w.engine->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(applied.ok()) << applied.status();
  size_t vault_before = w.vault.NumRecords();

  FailPoints::Instance().Enable(failpoints::kRevealBeforeCommit,
                                {.action = FailPointAction::kCrash});
  auto r = w.engine->Reveal(applied->disguise_id);
  FailPoints::Instance().DisableAll();
  ASSERT_FALSE(r.ok());

  auto recovered = w.engine->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->reveals_rolled_back, 1u);
  EXPECT_EQ(recovered->transactions_rolled_back, 1u);
  EXPECT_EQ(w.vault.NumRecords(), vault_before);
  ExpectConsistent(&w, "after reveal roll-back");

  auto revealed = w.engine->Reveal(applied->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  ExpectConsistent(&w, "after retried reveal");
}

// Recovery is idempotent: running it twice (and on a healthy engine) makes
// no further repairs.
TEST_F(FaultInjectionTest, RecoverIsIdempotent) {
  World w;
  FailPoints::Instance().Enable(failpoints::kDbCommit,
                                {.action = FailPointAction::kCrash});
  ASSERT_FALSE(w.engine->ApplyForUser("Scrub", Value::Int(1)).ok());
  FailPoints::Instance().DisableAll();

  auto first = w.engine->Recover();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GT(first->TotalRepairs(), 0u);

  auto second = w.engine->Recover();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->TotalRepairs(), 0u) << second->ToString();
  ExpectConsistent(&w, "after double recovery");
}

// The audit actually detects corruption (it is not vacuously green): an
// orphan vault record and a stranded transaction both produce violations,
// and Recover() repairs both.
TEST_F(FaultInjectionTest, AuditDetectsInjectedCorruption) {
  World w;
  vault::RevealRecord orphan;
  orphan.disguise_id = 999;
  orphan.disguise_name = "Ghost";
  orphan.user_id = Value::Null();
  orphan.created = 1;
  ASSERT_TRUE(w.vault.Store(orphan).ok());
  ASSERT_TRUE(w.db.Begin().ok());

  auto audit = w.engine->AuditConsistency();
  ASSERT_TRUE(audit.ok()) << audit.status();
  EXPECT_GE(audit->violations.size(), 2u) << audit->ToString();

  auto recovered = w.engine->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->orphan_vault_disguises_dropped, 1u);
  EXPECT_EQ(recovered->transactions_rolled_back, 1u);
  ExpectConsistent(&w, "after repairing injected corruption");
}

// Storage fail points guard the image save/load path used by the CLI.
TEST_F(FaultInjectionTest, StorageFailPointsCoverSaveAndLoad) {
  World w;
  std::string path = ::testing::TempDir() + "/failpoint_storage.edb";
  FailPoints::Instance().Enable(failpoints::kStorageSave,
                                {.action = FailPointAction::kReturnError});
  EXPECT_FALSE(db::SaveDatabaseToFile(w.db, path).ok());
  FailPoints::Instance().DisableAll();
  ASSERT_TRUE(db::SaveDatabaseToFile(w.db, path).ok());

  FailPoints::Instance().Enable(failpoints::kStorageLoad,
                                {.action = FailPointAction::kCrash});
  EXPECT_FALSE(db::LoadDatabaseFromFile(path).ok());
  FailPoints::Instance().DisableAll();
  EXPECT_TRUE(db::LoadDatabaseFromFile(path).ok());
}

// The environment grammar drives the same machinery as the API.
TEST_F(FaultInjectionTest, EnableFromSpecParsesTheEnvGrammar) {
  auto& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.EnableFromSpec("db.commit=crash;vault.store=error:everynth:2").ok());
  World w;
  auto r = w.engine->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(FailPoints::IsSimulatedCrash(r.status()));
  fp.DisableAll();

  EXPECT_FALSE(fp.EnableFromSpec("db.commit").ok()) << "missing '=' must be rejected";
  EXPECT_FALSE(fp.EnableFromSpec("db.commit=explode").ok());
  EXPECT_FALSE(fp.EnableFromSpec("db.commit=error:sometimes").ok());
  fp.DisableAll();
}

// The journal's wire form round-trips (sidecar-file model, docs/FORMATS.md).
TEST_F(FaultInjectionTest, CommitJournalWireFormatRoundTrips) {
  CommitJournal j;
  sql::ParamMap params;
  params.emplace("UID", Value::Int(7));
  uint64_t id1 = j.Begin(JournalOp::kApply, "Scrub", params, Value::Int(7), 0, 1000);
  j.SetDisguiseId(id1, 3);
  j.Advance(id1, JournalPhase::kVaultStored);
  j.Begin(JournalOp::kReveal, "AnonAll", {}, Value::Null(), 2, 2000);

  auto restored = CommitJournal::Deserialize(j.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->size(), 2u);
  const JournalEntry& e1 = restored->pending()[0];
  EXPECT_EQ(e1.journal_id, id1);
  EXPECT_EQ(e1.op, JournalOp::kApply);
  EXPECT_EQ(e1.phase, JournalPhase::kVaultStored);
  EXPECT_EQ(e1.spec_name, "Scrub");
  EXPECT_EQ(e1.disguise_id, 3u);
  EXPECT_EQ(e1.params.at("UID").AsInt(), 7);
  const JournalEntry& e2 = restored->pending()[1];
  EXPECT_EQ(e2.op, JournalOp::kReveal);
  EXPECT_TRUE(e2.user_id.is_null());

  // Phase markers never move backward.
  restored->Advance(id1, JournalPhase::kIntent);
  EXPECT_EQ(restored->Find(id1)->phase, JournalPhase::kVaultStored);

  EXPECT_FALSE(CommitJournal::Deserialize({1, 2, 3, 4}).ok());
}

// Property test: randomized seeded crash schedules over apply / reveal /
// compose sequences on the HotCRP dataset. After every injected failure,
// Recover() + AuditConsistency() must come back clean, regardless of where
// in the protocol the crash lands.
TEST_F(FaultInjectionTest, RandomizedCrashSchedulesOnHotCrpStayConsistent) {
  const std::vector<std::string> sites(kEngineSites,
                                       kEngineSites + std::size(kEngineSites));
  for (uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);

    db::Database db;
    hotcrp::Config config;
    config.num_users = 24;
    config.num_pc = 6;
    config.num_papers = 12;
    config.num_reviews = 36;
    config.seed = seed;
    auto generated = hotcrp::Populate(&db, config);
    ASSERT_TRUE(generated.ok()) << generated.status();

    auto vault = vault::TableVault::Create(&db);
    ASSERT_TRUE(vault.ok()) << vault.status();
    SimulatedClock clock{1000};
    DisguiseEngine engine(&db, vault->get(), &clock);
    for (auto spec_fn : {hotcrp::GdprSpec, hotcrp::GdprPlusSpec, hotcrp::ConfAnonSpec}) {
      auto spec = spec_fn();
      ASSERT_TRUE(spec.ok()) << spec.status();
      ASSERT_TRUE(engine.RegisterSpec(*std::move(spec)).ok());
    }
    const std::vector<std::string> per_user_specs = {hotcrp::kGdprName,
                                                     hotcrp::kGdprPlusName};

    std::set<int64_t> disguised_uids;
    constexpr int kRounds = 30;
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      // Arm a random site with a random action and a small random one-shot
      // index, with 1/3 probability. Unarmed rounds advance the workload so
      // later injections land on composed state.
      bool armed = rng.NextBool(1.0 / 3);
      if (armed) {
        FailPoints::Instance().Enable(
            rng.Pick(sites),
            {.action = rng.NextBool() ? FailPointAction::kCrash
                                      : FailPointAction::kReturnError,
             .trigger = FailPointTrigger::kOneShot,
             .n = static_cast<uint64_t>(rng.NextInt(1, 4))});
      }

      // Random operation: per-user apply, global apply, or reveal.
      Status op_status = OkStatus();
      switch (rng.NextBounded(3)) {
        case 0: {
          int64_t uid = rng.Pick(generated->pc_contact_ids);
          if (disguised_uids.count(uid) == 0) {
            auto r = engine.ApplyForUser(rng.Pick(per_user_specs), Value::Int(uid));
            op_status = r.status();
            if (r.ok()) {
              disguised_uids.insert(uid);
            }
          }
          break;
        }
        case 1:
          op_status = engine.Apply(hotcrp::kConfAnonName, {}).status();
          break;
        default: {
          std::vector<uint64_t> active;
          for (const LogEntry& e : engine.log().entries()) {
            if (e.active && e.reversible) {
              active.push_back(e.id);
            }
          }
          if (!active.empty()) {
            uint64_t id = rng.Pick(active);
            auto r = engine.Reveal(id);
            op_status = r.status();
            if (r.ok()) {
              disguised_uids.clear();  // conservatively allow re-disguising
            }
          }
          break;
        }
      }
      FailPoints::Instance().DisableAll();

      if (!op_status.ok()) {
        auto recovered = engine.Recover();
        ASSERT_TRUE(recovered.ok()) << recovered.status();
      }
      auto audit = engine.AuditConsistency();
      ASSERT_TRUE(audit.ok()) << audit.status();
      ASSERT_TRUE(audit->ok()) << "round " << round << ":\n" << audit->ToString();
      ASSERT_TRUE(db.CheckIntegrity().ok());
    }
  }
}

// Batch crash schedules (the healthy parallel path lives in
// tests/core_batch_test.cc): a simulated crash inside ONE worker's apply
// halts the whole BatchExecutor run — tasks not yet started abort without
// touching the engine, exactly as a process death would strand them. The
// crash site varies across the commit protocol: mid vault-shard write,
// just before the database commit (transaction must roll back), and just
// after it (the apply is durable and must roll FORWARD). In every schedule
// Recover() repairs the frozen state — including the crashed worker's open
// transaction — the audit comes back clean, and resubmitting the
// not-yet-applied users through a fresh batch completes the job.
TEST_F(FaultInjectionTest, BatchCrashSchedulesRecoverConsistently) {
  struct Schedule {
    const char* site;
    uint64_t hit;
  };
  const Schedule schedules[] = {
      {failpoints::kVaultStore, 4},
      {failpoints::kApplyBeforeCommit, 3},
      {failpoints::kApplyAfterCommit, 2},
  };
  constexpr int kExtraUsers = 20;  // on top of World's baseline 3
  const int total_users = 3 + kExtraUsers;

  for (const Schedule& s : schedules) {
    SCOPED_TRACE(std::string(s.site) + " hit=" + std::to_string(s.hit));
    World w;
    for (int i = 0; i < kExtraUsers; ++i) {
      w.InsertUser("u" + std::to_string(i), "u" + std::to_string(i) + "@x");
      w.InsertNote(4 + i, "batch note");
    }

    FailPoints::Instance().Enable(s.site, {.action = FailPointAction::kCrash,
                                           .trigger = FailPointTrigger::kOneShot,
                                           .n = s.hit});
    BatchReport report;
    {
      BatchExecutor executor(w.engine.get(), {.num_threads = 4});
      for (int uid = 1; uid <= total_users; ++uid) {
        executor.Submit(BatchTask::Apply("Scrub", Value::Int(uid)));
      }
      report = executor.Drain();
    }
    FailPoints::Instance().DisableAll();

    EXPECT_TRUE(report.halted) << report.ToString();
    EXPECT_GE(report.failed, 1u);
    bool saw_crash = false;
    for (const BatchTaskResult& r : report.results) {
      saw_crash = saw_crash || FailPoints::IsSimulatedCrash(r.status);
    }
    EXPECT_TRUE(saw_crash) << "no task surfaced the simulated crash";

    auto recovered = w.engine->Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ExpectConsistent(&w, "after batch crash recovery");
    EXPECT_FALSE(w.db.AnyTransactionActive())
        << "crashed worker's transaction survived recovery";
    EXPECT_EQ(w.engine->journal().size(), 0u);

    // Finish the job: resubmit every user recovery left undisguised (an
    // after-commit crash rolls FORWARD, so its user needs no resubmission).
    BatchExecutor executor(w.engine.get(), {.num_threads = 4});
    size_t resubmitted = 0;
    for (const BatchTaskResult& r : report.results) {
      if (r.status.ok() ||
          w.engine->log().LatestActiveFor("Scrub", r.task.uid).has_value()) {
        continue;
      }
      executor.Submit(r.task);
      ++resubmitted;
    }
    BatchReport second = executor.Drain();
    EXPECT_FALSE(second.halted);
    EXPECT_EQ(second.failed, 0u) << second.ToString();
    EXPECT_EQ(second.succeeded, resubmitted);
    ExpectConsistent(&w, "after resubmitted batch");

    // Every user ended up disguised exactly once.
    for (int uid = 1; uid <= total_users; ++uid) {
      EXPECT_TRUE(
          w.engine->log().LatestActiveFor("Scrub", Value::Int(uid)).has_value())
          << "user " << uid << " not disguised after recovery + resubmission";
    }
  }
}

// 100% fail-point coverage, self-contained (ctest runs each test in its own
// process, so this cannot rely on counters from the other tests): every
// canonical site is armed in turn and driven to fire through a real
// operation, and afterwards the registry knows exactly the canonical sites.
TEST_F(FaultInjectionTest, EveryRegisteredFailPointCanFire) {
  auto& fp = FailPoints::Instance();
  std::vector<std::string> all(kEngineSites, kEngineSites + std::size(kEngineSites));
  all.push_back(failpoints::kStorageSave);
  all.push_back(failpoints::kStorageLoad);

  std::string path = ::testing::TempDir() + "/failpoint_coverage.edb";
  for (const std::string& site : all) {
    SCOPED_TRACE(site);
    uint64_t fires_before = fp.Fires(site);
    fp.Enable(site, {.action = FailPointAction::kReturnError});
    if (site == failpoints::kDbRollback || site == failpoints::kLogUnappend) {
      // Failure-path sites: trip compensation via a failed vault store.
      fp.Enable(failpoints::kVaultStore, {.action = FailPointAction::kReturnError,
                                          .trigger = FailPointTrigger::kOneShot,
                                          .n = 1});
      World w;
      EXPECT_FALSE(w.engine->ApplyForUser("Scrub", Value::Int(1)).ok());
    } else if (site == failpoints::kStorageSave) {
      World w;
      EXPECT_FALSE(db::SaveDatabaseToFile(w.db, path).ok());
    } else if (site == failpoints::kStorageLoad) {
      {
        fp.DisableAll();
        World w;
        ASSERT_TRUE(db::SaveDatabaseToFile(w.db, path).ok());
        fp.Enable(site, {.action = FailPointAction::kReturnError});
      }
      EXPECT_FALSE(db::LoadDatabaseFromFile(path).ok());
    } else {
      World w;
      EXPECT_FALSE(RunSequence(&w).ok());
    }
    fp.DisableAll();
    EXPECT_GT(fp.Fires(site), fires_before) << site << " did not fire";
  }

  std::set<std::string> registered;
  for (const std::string& site : fp.RegisteredSites()) {
    registered.insert(site);
  }
  for (const std::string& site : all) {
    EXPECT_TRUE(registered.count(site)) << site << " missing from the registry";
  }
}

}  // namespace
}  // namespace edna::core
