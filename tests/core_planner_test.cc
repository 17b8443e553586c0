// End-to-end planner regression battery: the disguise hot path must not fall
// back to a full table scan, and every predicate the shipped specs run must
// select exactly what a row-by-row reference filter selects.
//
// Workloads mirror the paper's evaluation:
//  * "tab1": HotCRP ConfAnon (global) composed with per-user GDPR+, with a
//    TableVault so the vault's own FetchForUser / FetchGlobal queries run
//    through the planner too.
//  * "ablG": mass per-user deletion over a worker pool (BatchExecutor).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/generator.h"
#include "src/apps/lobsters/disguises.h"
#include "src/apps/lobsters/generator.h"
#include "src/common/clock.h"
#include "src/core/batch.h"
#include "src/core/engine.h"
#include "src/db/database.h"
#include "src/disguise/spec.h"
#include "src/disguise/spec_parser.h"
#include "src/vault/offline_vault.h"
#include "src/vault/table_vault.h"
#include "tests/reference_oracle.h"

namespace edna::core {
namespace {

using sql::Value;

// Checks every transformation and assertion predicate of `spec` against the
// reference, once per sampled user id bound to $UID.
void ExpectSpecPredicatesMatchReference(const db::Database& db,
                                        const disguise::DisguiseSpec& spec,
                                        const std::vector<int64_t>& uids) {
  std::vector<std::pair<std::string, const sql::Expr*>> preds;
  for (const disguise::TableDisguise& td : spec.tables()) {
    for (const disguise::Transformation& t : td.transformations) {
      preds.emplace_back(td.table, t.predicate());
    }
  }
  for (const disguise::Assertion& a : spec.assertions()) {
    preds.emplace_back(a.table, a.predicate.get());
  }
  ASSERT_FALSE(preds.empty()) << spec.name();
  for (int64_t uid : uids) {
    const sql::ParamMap params = {{disguise::kUidParam, Value::Int(uid)}};
    for (const auto& [table, pred] : preds) {
      ASSERT_NE(pred, nullptr) << spec.name() << " on " << table;
      EXPECT_TRUE(oracle::SelectMatchesReference(db, table, *pred, params))
          << spec.name() << ", uid " << uid;
    }
  }
}

// Every 7th id plus the last: a spread of PC members and authors.
std::vector<int64_t> SampleIds(const std::vector<int64_t>& ids) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < ids.size(); i += 7) {
    out.push_back(ids[i]);
  }
  if (!ids.empty()) {
    out.push_back(ids.back());
  }
  return out;
}

// ---------------------------------------------------------------------------
// tab1: HotCRP composition workload.
// ---------------------------------------------------------------------------

class HotCrpPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hotcrp::Config config;
    config.num_users = 60;
    config.num_pc = 8;
    config.num_papers = 40;
    config.num_reviews = 120;
    auto generated = hotcrp::Populate(&db_, config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    gen_ = *generated;
    auto vault = vault::TableVault::Create(&db_);
    ASSERT_TRUE(vault.ok()) << vault.status();
    vault_ = *std::move(vault);
    engine_ = std::make_unique<DisguiseEngine>(&db_, vault_.get(), &clock_);
    ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::GdprPlusSpec()).ok());
    ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::ConfAnonSpec()).ok());
  }

  db::Database db_;
  hotcrp::Generated gen_;
  std::unique_ptr<vault::TableVault> vault_;
  SimulatedClock clock_{0};
  std::unique_ptr<DisguiseEngine> engine_;
};

// The headline acceptance criterion: ConfAnon followed by composed GDPR+
// applications and a reveal — every predicate-bearing statement, including
// the vault's FetchForUser / FetchGlobal ("userId" IS NULL), must be served
// by an index probe or a constant plan. Zero full scans.
TEST_F(HotCrpPlannerTest, CompositionWorkloadNeverFullScans) {
  db_.ResetStats();

  ASSERT_TRUE(engine_->Apply(hotcrp::kConfAnonName, {}).ok());
  uint64_t reveal_target = 0;
  for (size_t i = 0; i < 4 && i < gen_.pc_contact_ids.size(); ++i) {
    auto applied = engine_->ApplyForUser(hotcrp::kGdprPlusName,
                                         Value::Int(gen_.pc_contact_ids[i]));
    ASSERT_TRUE(applied.ok()) << applied.status();
    // ConfAnon is active, so every GDPR+ apply goes down the composition
    // path (vault fetches + recorrelation) — the expensive case we planned.
    EXPECT_TRUE(applied->composed);
    reveal_target = applied->disguise_id;
  }
  ASSERT_TRUE(engine_->Reveal(reveal_target).ok());

  EXPECT_EQ(db_.stats().full_scans, 0u)
      << "a disguise hot-path statement fell back to a full table scan";
  // Sanity: the workload really exercised the planner.
  EXPECT_GT(db_.stats().index_lookups, 0u);
  EXPECT_GT(db_.stats().plan_cache_hits, 0u);
  ASSERT_TRUE(db_.CheckIntegrity().ok());
}

// The shipped HotCRP specs' predicates select what the reference does, on
// the generated conference and again after ConfAnon has decorrelated and
// scrubbed it (placeholder contacts, NULLed identities, rewritten fields).
TEST_F(HotCrpPlannerTest, SpecPredicatesMatchReferenceBeforeAndAfterConfAnon) {
  std::vector<disguise::DisguiseSpec> specs;
  for (auto spec : {hotcrp::GdprSpec(), hotcrp::GdprPlusSpec(), hotcrp::ConfAnonSpec()}) {
    ASSERT_TRUE(spec.ok()) << spec.status();
    specs.push_back(*std::move(spec));
  }
  const std::vector<int64_t> uids = SampleIds(gen_.all_contact_ids);
  for (const disguise::DisguiseSpec& spec : specs) {
    ExpectSpecPredicatesMatchReference(db_, spec, uids);
  }
  ASSERT_TRUE(engine_->Apply(hotcrp::kConfAnonName, {}).ok());
  for (const disguise::DisguiseSpec& spec : specs) {
    ExpectSpecPredicatesMatchReference(db_, spec, uids);
  }
}

TEST(LobstersPlannerTest, SpecPredicatesMatchReference) {
  db::Database db;
  lobsters::Config config = lobsters::Config{}.Scaled(0.1);
  auto generated = lobsters::Populate(&db, config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto spec = lobsters::GdprSpec();
  ASSERT_TRUE(spec.ok()) << spec.status();
  ExpectSpecPredicatesMatchReference(db, *spec, SampleIds(generated->user_ids));
}

// ---------------------------------------------------------------------------
// ablG: mass deletion through the batch executor.
// ---------------------------------------------------------------------------

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

struct MassWorld {
  db::Database db;
  vault::OfflineVault vault;
  SimulatedClock clock{1000};
  std::unique_ptr<DisguiseEngine> engine;

  explicit MassWorld(int num_users, uint64_t seed = 0x5eed) {
    BuildSchema();
    EngineOptions options;
    options.deterministic_rng = true;
    options.rng_seed = seed;
    engine = std::make_unique<DisguiseEngine>(&db, &vault, &clock, options);
    auto spec = disguise::ParseDisguiseSpec(kScrubSpec);
    if (!spec.ok() || !engine->RegisterSpec(*std::move(spec)).ok()) {
      std::abort();
    }
    for (int i = 0; i < num_users; ++i) {
      std::string n = std::to_string(i);
      if (!db.InsertValues("users", {{"name", Value::String("user" + n)},
                                     {"email", Value::String("u" + n + "@x.org")}})
               .ok()) {
        std::abort();
      }
    }
    for (int i = 0; i < num_users; ++i) {
      for (int j = 0; j < 2; ++j) {
        if (!db.InsertValues("notes", {{"user_id", Value::Int(i + 1)},
                                       {"text", Value::String("note " + std::to_string(j))}})
                 .ok()) {
          std::abort();
        }
      }
    }
  }

  void BuildSchema() {
    db::TableSchema users("users");
    users
        .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "name", .type = db::ColumnType::kString, .nullable = false})
        .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = true})
        .AddColumn({.name = "disabled", .type = db::ColumnType::kBool, .nullable = false,
                    .default_value = Value::Bool(false)})
        .SetPrimaryKey({"id"});
    if (!db.CreateTable(std::move(users)).ok()) std::abort();

    db::TableSchema notes("notes");
    notes
        .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "user_id", .type = db::ColumnType::kInt, .nullable = false})
        .AddColumn({.name = "text", .type = db::ColumnType::kString})
        .SetPrimaryKey({"id"})
        .AddForeignKey({.column = "user_id", .parent_table = "users",
                        .parent_column = "id", .on_delete = db::FkAction::kRestrict});
    if (!db.CreateTable(std::move(notes)).ok()) std::abort();
  }
};

// Ablation G's workload: scrub every user through the worker pool. The PK
// probe ("id" = $UID) and the FK hash probe ("user_id" = $UID) must cover
// every statement — no scans, even with workers planning concurrently.
TEST(PlannerBatchTest, MassDeletionNeverFullScans) {
  constexpr int kUsers = 120;
  MassWorld world(kUsers);
  world.db.ResetStats();

  BatchOptions options;
  options.num_threads = 4;
  BatchExecutor executor(world.engine.get(), options);
  for (int u = 1; u <= kUsers; ++u) {
    executor.Submit(BatchTask::Apply("Scrub", Value::Int(u)));
  }
  BatchReport report = executor.Drain();
  EXPECT_EQ(report.failed, 0u) << report.ToString();
  EXPECT_EQ(report.succeeded, static_cast<size_t>(kUsers));

  EXPECT_EQ(world.db.stats().full_scans, 0u)
      << "mass deletion fell back to a full table scan";
  // This workload is all indexed equality, which the fast path serves
  // without plan-cache traffic at all.
  EXPECT_GT(world.db.stats().index_lookups, 0u);
  ASSERT_TRUE(world.db.CheckIntegrity().ok());
}

}  // namespace
}  // namespace edna::core
