// Concurrency battery for BatchExecutor (src/core/batch.h): a worker pool
// applying and revealing hundreds of users' disguises at once over ONE
// engine, checked three ways:
//  * AuditConsistency() reports zero violations after every batch,
//  * the final database state is BIT-IDENTICAL to a serial replay oracle —
//    a fresh engine with the same deterministic-rng seed executing the same
//    per-user tasks one at a time (possible because deterministic_rng
//    derives each operation's randomness from (seed, spec, uid, invocation)
//    rather than from a shared stream),
//  * per-user FIFO: a reveal submitted after its apply always finds the
//    active disguise, even with every worker racing.
// The oracle test runs over the offline and the encrypted vault. Runs under
// the tsan preset (BatchTest).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/core/batch.h"
#include "src/core/engine.h"
#include "src/db/database.h"
#include "src/disguise/spec_parser.h"
#include "src/vault/encrypted_vault.h"
#include "src/vault/offline_vault.h"

namespace edna::core {
namespace {

using sql::Value;

// users (id, name, email, disabled) <- notes (id, user_id, text); plus a
// one-row site_stats table every ScrubCounted apply bumps, to force
// write-write conflicts between different users' tasks.
void BuildSchema(db::Database* db) {
  db::TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "name", .type = db::ColumnType::kString, .nullable = false})
      .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = true})
      .AddColumn({.name = "disabled", .type = db::ColumnType::kBool, .nullable = false,
                  .default_value = Value::Bool(false)})
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

  db::TableSchema stats("site_stats");
  stats
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "disguised", .type = db::ColumnType::kInt, .nullable = false})
      .SetPrimaryKey({"id"});
  ASSERT_TRUE(db->CreateTable(std::move(stats)).ok());
  ASSERT_TRUE(
      db->InsertValues("site_stats", {{"id", Value::Int(1)}, {"disguised", Value::Int(0)}})
          .ok());
}

// Per-user GDPR-style disguise: remove the account, detach the notes.
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

// Per-user note redaction (composes on top of Scrub for re-disguised users).
constexpr char kRedactNotesSpec[] = R"(
disguise_name: "RedactNotes"
user_to_disguise: $UID
reversible: true
table notes:
  transformations:
    Modify(pred: "user_id" = $UID, column: "text", value: Redact)
)";

// Per-user disguise that ALSO writes the shared site_stats row: different
// users' applications collide there, exercising kAborted + retry.
constexpr char kScrubCountedSpec[] = R"(
disguise_name: "ScrubCounted"
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
table site_stats:
  transformations:
    Modify(pred: "id" = 1, column: "disguised", value: Const(1))
)";

// Global anonymization (exclusive-gate path in the executor).
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

// The vaults the oracle test runs over: OfflineVault, and EncryptedVault,
// which seals, opens and removes under concurrent workers.
enum class VaultKind { kOffline, kEncrypted };

const char* VaultKindName(VaultKind kind) {
  return kind == VaultKind::kOffline ? "offline" : "encrypted";
}

std::unique_ptr<vault::Vault> MakeVault(VaultKind kind) {
  if (kind == VaultKind::kOffline) {
    return std::make_unique<vault::OfflineVault>();
  }
  vault::KeyProvider keys = [](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, static_cast<uint8_t>(uid.is_int() ? uid.AsInt() : 1));
  };
  return std::make_unique<vault::EncryptedVault>(std::vector<uint8_t>(32, 0x42), keys, Rng(7));
}

struct World {
  db::Database db;
  std::unique_ptr<vault::Vault> vault;
  SimulatedClock clock{1000};
  std::unique_ptr<DisguiseEngine> engine;

  explicit World(int num_users, VaultKind vault_kind = VaultKind::kOffline)
      : vault(MakeVault(vault_kind)) {
    BuildSchema(&db);
    EngineOptions options;
    options.deterministic_rng = true;
    options.rng_seed = 0x5eed;
    engine = std::make_unique<DisguiseEngine>(&db, vault.get(), &clock, options);
    for (const char* text :
         {kScrubSpec, kRedactNotesSpec, kScrubCountedSpec, kAnonAllSpec}) {
      auto spec = disguise::ParseDisguiseSpec(text);
      if (!spec.ok() || !engine->RegisterSpec(*std::move(spec)).ok()) {
        std::abort();
      }
    }
    for (int i = 0; i < num_users; ++i) {
      std::string n = std::to_string(i);
      if (!db.InsertValues("users", {{"name", Value::String("user" + n)},
                                     {"email", Value::String("u" + n + "@x.org")}})
               .ok()) {
        std::abort();
      }
    }
    // Two notes per user so Decorrelate has real work.
    for (int i = 0; i < num_users; ++i) {
      for (int j = 0; j < 2; ++j) {
        if (!db.InsertValues("notes",
                             {{"user_id", Value::Int(i + 1)},
                              {"text", Value::String("note " + std::to_string(j) +
                                                     " of user " + std::to_string(i))}})
                 .ok()) {
          std::abort();
        }
      }
    }
  }
};

// table name -> sorted stringified rows; equality = bit-identical contents.
// Reserved engine tables (the disguise-log mirror) are excluded: they are
// created lazily and record disguise ids, which are assigned in completion
// order and so legitimately differ between interleavings.
std::map<std::string, std::vector<std::string>> Fingerprint(db::Database* db) {
  std::map<std::string, std::vector<std::string>> out;
  for (const db::TableSchema& ts : db->schema().tables()) {
    if (ts.name().rfind("__edna", 0) == 0) {
      continue;
    }
    auto rows = db->SelectRows(ts.name(), nullptr, {});
    EXPECT_TRUE(rows.ok()) << ts.name() << ": " << rows.status();
    std::vector<std::string> reps;
    if (rows.ok()) {
      for (const db::Row& row : *rows) {
        std::string rep;
        for (const Value& v : row) {
          rep += v.ToSqlString();
          rep += "|";
        }
        reps.push_back(std::move(rep));
      }
    }
    std::sort(reps.begin(), reps.end());
    out[ts.name()] = std::move(reps);
  }
  return out;
}

void ExpectAuditClean(World* w, const std::string& context) {
  auto audit = w->engine->AuditConsistency();
  ASSERT_TRUE(audit.ok()) << context << ": " << audit.status();
  EXPECT_TRUE(audit->ok()) << context << ":\n" << audit->ToString();
}

// The task mix of the headline tests: every user gets a Scrub; every third
// user reveals it again; every fifth (non-third) user gets RedactNotes
// composed on top. Per-user order is meaningful — FIFO must preserve it.
std::vector<BatchTask> MixedTasks(int num_users) {
  std::vector<BatchTask> tasks;
  for (int u = 1; u <= num_users; ++u) {
    Value uid = Value::Int(u);
    tasks.push_back(BatchTask::Apply("Scrub", uid));
    if (u % 3 == 0) {
      tasks.push_back(BatchTask::Reveal("Scrub", uid));
    } else if (u % 5 == 0) {
      tasks.push_back(BatchTask::Apply("RedactNotes", uid));
    }
  }
  return tasks;
}

// Headline: 8 workers x 200 users, applies interleaved with reveals, zero
// failures, clean audit, and a final database bit-identical to the serial
// replay oracle. Run over each vault in the table: RedactNotes composes on
// Scrub (a fetch by owner), and reveals fetch by disguise and remove, so the
// encrypted vault seals, opens and removes concurrently.
TEST(BatchTest, ParallelBatchMatchesSerialReplayOracle) {
  constexpr int kUsers = 200;
  const std::vector<BatchTask> tasks = MixedTasks(kUsers);

  for (VaultKind kind : {VaultKind::kOffline, VaultKind::kEncrypted}) {
    SCOPED_TRACE(std::string("vault: ") + VaultKindName(kind));
    World parallel(kUsers, kind);
    {
      BatchOptions options;
      options.num_threads = 8;
      BatchExecutor executor(parallel.engine.get(), options);
      for (const BatchTask& t : tasks) {
        executor.Submit(t);
      }
      BatchReport report = executor.Drain();
      EXPECT_EQ(report.submitted, tasks.size());
      EXPECT_EQ(report.failed, 0u) << report.ToString();
      EXPECT_EQ(report.succeeded, tasks.size());
      EXPECT_FALSE(report.halted);
      EXPECT_GT(report.queries, 0u);
      for (const BatchTaskResult& r : report.results) {
        EXPECT_TRUE(r.status.ok())
            << "task " << r.index << " (" << r.task.spec_name << ", uid "
            << r.task.uid.ToSqlString() << "): " << r.status;
      }
    }
    ExpectAuditClean(&parallel, "after parallel batch");
    ASSERT_TRUE(parallel.db.CheckIntegrity().ok());

    // Serial oracle: same seed, same tasks, one at a time in submission
    // order. Per-user tasks commute across users under deterministic_rng
    // (placeholder keys and generated values depend only on (seed, spec,
    // uid, invocation)), and within one user the executor's FIFO routing
    // preserves submission order — so this serial execution must land on
    // the identical state.
    World serial(kUsers, kind);
    for (const BatchTask& t : tasks) {
      if (t.kind == BatchTask::Kind::kApply) {
        auto r = serial.engine->ApplyForUser(t.spec_name, t.uid);
        ASSERT_TRUE(r.ok()) << t.spec_name << " uid " << t.uid.ToSqlString() << ": "
                            << r.status();
      } else {
        auto entry = serial.engine->log().LatestActiveFor(t.spec_name, t.uid);
        ASSERT_TRUE(entry.has_value());
        auto r = serial.engine->Reveal(entry->id);
        ASSERT_TRUE(r.ok()) << r.status();
      }
    }
    ExpectAuditClean(&serial, "after serial replay");

    auto parallel_fp = Fingerprint(&parallel.db);
    auto serial_fp = Fingerprint(&serial.db);
    ASSERT_EQ(parallel_fp.size(), serial_fp.size());
    for (const auto& [table, rows] : serial_fp) {
      EXPECT_EQ(parallel_fp[table], rows)
          << "table \"" << table << "\" diverged from the serial oracle";
    }

    // Same amount of disguising happened (ids differ by interleaving; the
    // per-(spec,user) active counts may not).
    EXPECT_EQ(parallel.engine->log().size(), serial.engine->log().size());
    EXPECT_EQ(parallel.vault->NumRecords(), serial.vault->NumRecords());
  }
}

// Per-user FIFO: an apply+reveal pair per user, all racing across 8 workers.
// If task order within a user could invert, a reveal would run first and
// fail NotFound; FIFO routing makes every pair succeed and leaves the
// database exactly as it started.
TEST(BatchTest, PerUserFifoKeepsApplyBeforeReveal) {
  constexpr int kUsers = 120;
  World w(kUsers);
  auto before = Fingerprint(&w.db);

  BatchOptions options;
  options.num_threads = 8;
  BatchExecutor executor(w.engine.get(), options);
  for (int u = 1; u <= kUsers; ++u) {
    executor.Submit(BatchTask::Apply("Scrub", Value::Int(u)));
    executor.Submit(BatchTask::Reveal("Scrub", Value::Int(u)));
  }
  BatchReport report = executor.Drain();
  EXPECT_EQ(report.failed, 0u) << report.ToString();
  EXPECT_EQ(report.succeeded, size_t{kUsers} * 2);
  ExpectAuditClean(&w, "after apply+reveal pairs");

  auto after = Fingerprint(&w.db);
  EXPECT_EQ(before, after) << "apply+reveal did not round-trip the database";
  EXPECT_EQ(w.vault->NumRecords(), 0u);
}

// Write-write conflicts: every ScrubCounted apply updates the one shared
// site_stats row, so concurrent tasks collide; the executor's retry loop
// must absorb every kAborted and still complete all tasks.
TEST(BatchTest, ConflictingTasksRetryUntilSuccess) {
  constexpr int kUsers = 80;
  World w(kUsers);

  BatchOptions options;
  options.num_threads = 8;
  options.max_attempts = 50;  // the shared row makes conflicts the norm
  BatchExecutor executor(w.engine.get(), options);
  for (int u = 1; u <= kUsers; ++u) {
    executor.Submit(BatchTask::Apply("ScrubCounted", Value::Int(u)));
  }
  BatchReport report = executor.Drain();
  EXPECT_EQ(report.failed, 0u) << report.ToString();
  EXPECT_EQ(report.succeeded, size_t{kUsers});
  ExpectAuditClean(&w, "after conflicting batch");
  ASSERT_TRUE(w.db.CheckIntegrity().ok());

  auto v = w.db.GetColumn("site_stats", 1, "disguised");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 1);
}

// Global disguises run under the exclusive gate, so mixing them with
// per-user tasks neither livelocks nor corrupts state.
TEST(BatchTest, GlobalAndPerUserTasksCoexist) {
  constexpr int kUsers = 60;
  World w(kUsers);

  BatchOptions options;
  options.num_threads = 8;
  BatchExecutor executor(w.engine.get(), options);
  for (int u = 1; u <= kUsers; ++u) {
    executor.Submit(BatchTask::Apply("Scrub", Value::Int(u)));
    if (u == kUsers / 2) {
      executor.Submit(BatchTask::Apply("AnonAll", Value::Null()));
    }
  }
  BatchReport report = executor.Drain();
  EXPECT_EQ(report.failed, 0u) << report.ToString();
  ExpectAuditClean(&w, "after mixed global/per-user batch");
  ASSERT_TRUE(w.db.CheckIntegrity().ok());
}

// Tiny queues force Submit() to block on backpressure; the batch still
// completes, and the executor is reusable for a second batch (reveals).
TEST(BatchTest, BackpressureAndExecutorReuse) {
  constexpr int kUsers = 64;
  World w(kUsers);
  auto before = Fingerprint(&w.db);

  BatchOptions options;
  options.num_threads = 4;
  options.queue_capacity = 2;  // Submit blocks constantly
  BatchExecutor executor(w.engine.get(), options);

  for (int u = 1; u <= kUsers; ++u) {
    executor.Submit(BatchTask::Apply("Scrub", Value::Int(u)));
  }
  BatchReport applies = executor.Drain();
  EXPECT_EQ(applies.failed, 0u) << applies.ToString();
  EXPECT_EQ(applies.succeeded, size_t{kUsers});
  ExpectAuditClean(&w, "after batch 1 (applies)");

  // Batch 2 through the SAME executor: reveal everything.
  for (int u = 1; u <= kUsers; ++u) {
    executor.Submit(BatchTask::Reveal("Scrub", Value::Int(u)));
  }
  BatchReport reveals = executor.Drain();
  EXPECT_EQ(reveals.failed, 0u) << reveals.ToString();
  EXPECT_EQ(reveals.succeeded, size_t{kUsers});
  ExpectAuditClean(&w, "after batch 2 (reveals)");

  EXPECT_EQ(Fingerprint(&w.db), before);
  EXPECT_EQ(w.vault->NumRecords(), 0u);
}

// Error reporting: unknown specs and reveals of never-disguised users fail
// with their own statuses without poisoning the healthy tasks around them.
TEST(BatchTest, BadTasksFailIndividually) {
  constexpr int kUsers = 20;
  World w(kUsers);

  BatchExecutor executor(w.engine.get(), {.num_threads = 4});
  executor.Submit(BatchTask::Apply("Scrub", Value::Int(1)));
  executor.Submit(BatchTask::Apply("NoSuchSpec", Value::Int(2)));
  executor.Submit(BatchTask::Reveal("Scrub", Value::Int(3)));  // never applied
  executor.Submit(BatchTask::Apply("Scrub", Value::Int(4)));
  BatchReport report = executor.Drain();

  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_TRUE(report.results[0].status.ok());
  EXPECT_FALSE(report.results[1].status.ok());
  EXPECT_EQ(report.results[2].status.code(), StatusCode::kNotFound)
      << report.results[2].status;
  EXPECT_TRUE(report.results[3].status.ok());
  EXPECT_EQ(report.succeeded, 2u);
  EXPECT_EQ(report.failed, 2u);
  ExpectAuditClean(&w, "after batch with bad tasks");
}

// Results preserve submission order and carry per-task metadata the CLI's
// batch command prints (attempts, statement counts, disguise ids).
TEST(BatchTest, ReportCarriesPerTaskMetadata) {
  constexpr int kUsers = 10;
  World w(kUsers);

  BatchExecutor executor(w.engine.get(), {.num_threads = 2});
  for (int u = 1; u <= kUsers; ++u) {
    executor.Submit(BatchTask::Apply("Scrub", Value::Int(u)));
  }
  BatchReport report = executor.Drain();
  ASSERT_EQ(report.results.size(), size_t{kUsers});
  for (size_t i = 0; i < report.results.size(); ++i) {
    const BatchTaskResult& r = report.results[i];
    EXPECT_EQ(r.index, i) << "results not in submission order";
    EXPECT_GE(r.attempts, 1);
    EXPECT_GT(r.queries, 0u);
    EXPECT_GT(r.disguise_id, 0u);
  }
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_NE(report.ToString().find("submitted=10"), std::string::npos);
}

// num_threads <= 1 takes the inline fast path: tasks execute on the Submit
// thread with no queue or worker wakeups. Semantics must be indistinguishable
// from the pool — same per-task results, FIFO order, reusable Drain — and
// the final database must match the pooled run bit-for-bit.
TEST(BatchTest, SingleThreadInlineFastPathMatchesPool) {
  constexpr int kUsers = 40;
  const std::vector<BatchTask> tasks = MixedTasks(kUsers);

  World pooled(kUsers);
  {
    BatchExecutor executor(pooled.engine.get(), {.num_threads = 4});
    for (const BatchTask& t : tasks) executor.Submit(t);
    BatchReport report = executor.Drain();
    ASSERT_EQ(report.failed, 0u) << report.ToString();
  }

  for (int threads : {0, 1}) {
    World inline_world(kUsers);
    BatchOptions options;
    options.num_threads = threads;
    BatchExecutor executor(inline_world.engine.get(), options);
    // Inline mode runs eagerly on the Submit thread: the first apply is in
    // the disguise log before Drain is ever called.
    executor.Submit(tasks[0]);
    EXPECT_EQ(inline_world.engine->log().size(), 1u)
        << "inline Submit did not execute the task synchronously";
    for (size_t i = 1; i < tasks.size(); ++i) {
      executor.Submit(tasks[i]);
    }
    BatchReport report = executor.Drain();
    EXPECT_EQ(report.submitted, tasks.size());
    EXPECT_EQ(report.failed, 0u) << report.ToString();
    EXPECT_EQ(report.succeeded, tasks.size());
    for (size_t i = 0; i < report.results.size(); ++i) {
      EXPECT_EQ(report.results[i].index, i) << "inline mode broke FIFO order";
      EXPECT_EQ(report.results[i].attempts, 1)
          << "inline mode has no concurrency, so no retries";
    }
    ExpectAuditClean(&inline_world, "after inline batch");
    EXPECT_EQ(Fingerprint(&inline_world.db), Fingerprint(&pooled.db))
        << "threads=" << threads << " diverged from the pooled run";
  }
}

}  // namespace
}  // namespace edna::core
