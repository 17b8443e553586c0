// Query planner tests (src/db/plan.{h,cc} + Database::MatchRows): index
// probe selection (equality, IN, range/BETWEEN, IS NULL, OR union, conjunct
// intersection), plan cache behavior and invalidation, the DbStats counter
// contract, ordered-index maintenance under transaction rollback, and the
// compiled residual filter checked against a row-by-row reference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/sql/compile.h"
#include "src/sql/parser.h"
#include "src/sql/verify.h"
#include "tests/reference_oracle.h"

namespace edna::db {
namespace {

using sql::Value;

sql::ExprPtr Pred(const std::string& text) {
  auto e = sql::ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status();
  return std::move(*e);
}

// events: id (PK), user_id (FK-style declared index), score (declared
// index, ordered), kind (declared index), note (unindexed). Row i (RowId
// i + 1): user_id cycles 1..5 with every 6th NULL; score = i; kind
// alternates click/view; note = "n<i>".
void BuildEvents(Database* db, int rows) {
  TableSchema events("events");
  events
      .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "user_id", .type = ColumnType::kInt, .nullable = true})
      .AddColumn({.name = "score", .type = ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "kind", .type = ColumnType::kString, .nullable = false})
      .AddColumn({.name = "note", .type = ColumnType::kString, .nullable = true})
      .SetPrimaryKey({"id"})
      .AddIndex("user_id")
      .AddIndex("score")
      .AddIndex("kind");
  ASSERT_TRUE(db->CreateTable(std::move(events)).ok());
  for (int i = 0; i < rows; ++i) {
    Value uid = (i % 6 == 5) ? Value::Null() : Value::Int(1 + (i % 5));
    auto id = db->InsertValues("events", {{"user_id", uid},
                                          {"score", Value::Int(i)},
                                          {"kind", Value::String(i % 2 == 0 ? "click" : "view")},
                                          {"note", Value::String("n" + std::to_string(i))}});
    ASSERT_TRUE(id.ok()) << id.status();
  }
  db->ResetStats();
}

// Every predicate shape this suite plans: probes with and without residuals,
// unions, full scans, constants, params, NULL handling.
const char* const kPlannerCorpus[] = {
    "\"score\" >= 10 AND \"score\" < 15",
    "\"score\" BETWEEN 7 AND 9",
    "\"id\" <= 3",
    "\"score\" IN (3, 17, 99)",
    "\"user_id\" = 2 AND \"kind\" = 'click'",
    "\"user_id\" = 1 OR \"kind\" = 'view'",
    "\"user_id\" = 1 OR \"note\" = 'n3'",
    "\"score\" = 4 OR \"user_id\" = 3",
    "\"user_id\" IS NULL",
    "\"user_id\" IS NOT NULL",
    "\"user_id\" IS NOT NULL AND \"score\" > 20",
    "\"note\" = 'n7'",
    "TRUE",
    "1 = 2",
    "\"user_id\" = $UID",
    "\"user_id\" = $UID AND \"score\" > $MIN",
    "NOT (\"kind\" = 'click' AND \"score\" < 10)",
    "NOT (\"kind\" = 'click') AND \"score\" < 9",
    "\"kind\" LIKE 'cl%'",
    "\"kind\" LIKE 'cl%' AND \"user_id\" > 1",
    "\"kind\" = 'view' AND \"note\" LIKE 'n1%'",
    "\"score\" IN (3, 17, 99) AND \"note\" <> 'n3'",
    "\"score\" * 2 >= 40",
};

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildEvents(&db_, 30); }

  std::vector<int64_t> SelectScores(const std::string& pred_text,
                                    const sql::ParamMap& params = {}) {
    auto pred = Pred(pred_text);
    auto rows = db_.Select("events", pred.get(), params);
    EXPECT_TRUE(rows.ok()) << rows.status();
    std::vector<int64_t> scores;
    for (const RowRef& ref : *rows) {
      scores.push_back((*ref.row)[2].AsInt());
    }
    return scores;
  }

  Database db_;
};

TEST_F(PlannerTest, RangeProbeAvoidsFullScan) {
  auto scores = SelectScores("\"score\" >= 10 AND \"score\" < 15");
  EXPECT_EQ(scores, (std::vector<int64_t>{10, 11, 12, 13, 14}));
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().range_probes, 1u);
  // The residual only examined the 5 in-range candidates, not all 30 rows.
  EXPECT_EQ(db_.stats().rows_examined, 5u);
}

TEST_F(PlannerTest, BetweenProbesOrderedIndex) {
  auto scores = SelectScores("\"score\" BETWEEN 7 AND 9");
  EXPECT_EQ(scores, (std::vector<int64_t>{7, 8, 9}));
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().range_probes, 1u);
}

TEST_F(PlannerTest, PkRangeUsesPrimaryKeyOrder) {
  auto pred = Pred("\"id\" <= 3");
  auto rows = db_.Select("events", pred.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().range_probes, 1u);
}

TEST_F(PlannerTest, InListIsMultiProbe) {
  auto scores = SelectScores("\"score\" IN (3, 17, 99)");
  EXPECT_EQ(scores, (std::vector<int64_t>{3, 17}));
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().index_lookups, 3u);  // one per IN item
  // The lone IN conjunct IS the plan (exact): no residual row work at all.
  EXPECT_EQ(db_.stats().rows_examined, 0u);
}

TEST_F(PlannerTest, EqualityConjunctsIntersect) {
  // Both conjuncts indexed: candidates = intersection, so the residual
  // examines at most min(|user_id=2|, |kind=click|) rows.
  auto scores = SelectScores("\"user_id\" = 2 AND \"kind\" = 'click'");
  for (int64_t s : scores) {
    EXPECT_EQ(s % 2, 0);  // click rows have even scores
  }
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().index_lookups, 2u);
  EXPECT_LE(db_.stats().rows_examined, 5u);  // |user_id=2| = 5
}

TEST_F(PlannerTest, OrOfIndexableArmsIsUnionProbe) {
  auto scores = SelectScores("\"score\" = 4 OR \"user_id\" = 3");
  EXPECT_FALSE(scores.empty());
  EXPECT_EQ(db_.stats().full_scans, 0u);
  // Every row in the union satisfies one arm; no duplicates.
  std::vector<int64_t> dedup = scores;
  std::sort(dedup.begin(), dedup.end());
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  EXPECT_EQ(dedup.size(), scores.size());
}

TEST_F(PlannerTest, OrWithUnindexableArmFallsBackToScan) {
  auto scores = SelectScores("\"score\" = 4 OR \"note\" = 'n8'");
  EXPECT_EQ(scores, (std::vector<int64_t>{4, 8}));
  EXPECT_EQ(db_.stats().full_scans, 1u);
}

TEST_F(PlannerTest, IsNullProbesTheNullSet) {
  auto scores = SelectScores("\"user_id\" IS NULL");
  EXPECT_EQ(scores, (std::vector<int64_t>{5, 11, 17, 23, 29}));
  EXPECT_EQ(db_.stats().full_scans, 0u);
  // Exact plan: the null set answers outright, no residual evaluation.
  EXPECT_EQ(db_.stats().rows_examined, 0u);
}

TEST_F(PlannerTest, IsNotNullStaysResidualOnly) {
  auto scores = SelectScores("\"user_id\" IS NOT NULL");
  EXPECT_EQ(scores.size(), 25u);
  EXPECT_EQ(db_.stats().full_scans, 1u);  // IS NOT NULL cannot narrow
}

TEST_F(PlannerTest, UnindexedPredicateStillScans) {
  auto scores = SelectScores("\"note\" = 'n8'");
  EXPECT_EQ(scores, (std::vector<int64_t>{8}));
  EXPECT_EQ(db_.stats().full_scans, 1u);
  EXPECT_EQ(db_.stats().rows_examined, 30u);
}

TEST_F(PlannerTest, NoPredicateIsNotAFullScan) {
  // A read with no WHERE clause is a deliberate whole-table read, not a
  // planner fallback.
  auto rows = db_.Select("events", nullptr, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 30u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_EQ(db_.stats().rows_examined, 0u);
}

TEST_F(PlannerTest, ConstantPredicateSkipsPerRowEvaluation) {
  auto pred_true = Pred("TRUE");
  auto rows = db_.Select("events", pred_true.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 30u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_EQ(db_.stats().rows_examined, 0u);  // one constant fold, no row work

  auto pred_false = Pred("1 = 2");
  rows = db_.Select("events", pred_false.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(PlannerTest, ParamsProbeThroughTheIndex) {
  auto pred = Pred("\"user_id\" = $UID");
  auto rows = db_.Select("events", pred.get(), {{"UID", Value::Int(4)}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  // Different binding, same fast path — parameterized equality probes the
  // index without any plan-cache traffic.
  rows = db_.Select("events", pred.get(), {{"UID", Value::Int(99)}});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(db_.stats().plan_cache_hits + db_.stats().plan_cache_misses, 0u);
  EXPECT_GE(db_.stats().index_lookups, 2u);
}

TEST_F(PlannerTest, PlanCacheHitsOnRepeatAndInvalidatesOnDdl) {
  // An OR shape so the statement stays on the cached-plan path (single
  // `col = literal` takes the cache-bypassing fast path instead).
  auto pred = Pred("\"note\" = 'n3' OR \"note\" = 'n4'");
  ASSERT_TRUE(db_.Select("events", pred.get(), {}).ok());
  EXPECT_EQ(db_.stats().plan_cache_misses, 1u);
  ASSERT_TRUE(db_.Select("events", pred.get(), {}).ok());
  EXPECT_EQ(db_.stats().plan_cache_hits, 1u);
  EXPECT_EQ(db_.stats().full_scans, 2u);  // note is unindexed so far

  // DDL invalidates: after CreateIndex the same predicate replans to a
  // union probe.
  ASSERT_TRUE(db_.CreateIndex("events", "note").ok());
  ASSERT_TRUE(db_.Select("events", pred.get(), {}).ok());
  EXPECT_EQ(db_.stats().plan_cache_misses, 2u);
  EXPECT_EQ(db_.stats().full_scans, 2u);  // no longer scanning
}

TEST_F(PlannerTest, LiteralEqualityBypassesThePlanCache) {
  // The engine's per-placeholder-row statements are one-shot `col = 42`
  // predicates; they must not churn the plan cache.
  for (int i = 0; i < 3; ++i) {
    auto pred = Pred("\"user_id\" = 2");
    auto rows = db_.Select("events", pred.get(), {});
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 5u);
  }
  EXPECT_EQ(db_.stats().plan_cache_hits, 0u);
  EXPECT_EQ(db_.stats().plan_cache_misses, 0u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().index_lookups, 3u);
}

TEST_F(PlannerTest, DescribePlanNamesTheAccessPath) {
  auto eq = Pred("\"user_id\" = $UID");
  auto described = db_.DescribePlan("events", *eq);
  ASSERT_TRUE(described.ok());
  EXPECT_NE(described->find("eq(user_id"), std::string::npos) << *described;

  auto range = Pred("\"score\" BETWEEN 1 AND 2");
  described = db_.DescribePlan("events", *range);
  ASSERT_TRUE(described.ok());
  EXPECT_NE(described->find("range("), std::string::npos) << *described;

  auto scan = Pred("\"note\" LIKE 'n%'");
  described = db_.DescribePlan("events", *scan);
  ASSERT_TRUE(described.ok());
  EXPECT_NE(described->find("scan("), std::string::npos) << *described;
}

TEST_F(PlannerTest, UpdateAndDeleteGoThroughThePlanner) {
  auto pred = Pred("\"score\" BETWEEN 20 AND 24");
  std::vector<Assignment> assigns;
  assigns.push_back({.column = "kind", .expr = std::move(*sql::ParseExpression("'seen'"))});
  auto updated = db_.Update("events", pred.get(), {}, assigns);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 5u);

  auto deleted = db_.Delete("events", pred.get(), {});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 5u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  ASSERT_TRUE(db_.CheckIntegrity().ok());
}

// --- Index maintenance under transactions ------------------------------------

TEST_F(PlannerTest, RollbackRestoresOrderedIndexes) {
  auto before = SelectScores("\"score\" BETWEEN 0 AND 29");
  ASSERT_EQ(before.size(), 30u);

  ASSERT_TRUE(db_.Begin().ok());
  auto pred = Pred("\"score\" BETWEEN 5 AND 14");
  ASSERT_TRUE(db_.Delete("events", pred.get(), {}).ok());
  std::vector<Assignment> assigns;
  assigns.push_back(
      {.column = "score", .expr = std::move(*sql::ParseExpression("\"score\" + 100"))});
  auto bump = Pred("\"score\" BETWEEN 20 AND 24");
  ASSERT_TRUE(db_.Update("events", bump.get(), {}, assigns).ok());
  ASSERT_TRUE(db_.Rollback().ok());

  // Hash, ordered, and null structures must all be back to the pre-txn
  // state; CheckIntegrity audits them entry-for-entry.
  ASSERT_TRUE(db_.CheckIntegrity().ok());
  auto after = SelectScores("\"score\" BETWEEN 0 AND 29");
  EXPECT_EQ(after, before);
  EXPECT_TRUE(SelectScores("\"score\" BETWEEN 100 AND 200").empty());
}

TEST_F(PlannerTest, RollbackRestoresNullSet) {
  ASSERT_TRUE(db_.Begin().ok());
  std::vector<Assignment> assigns;
  assigns.push_back({.column = "user_id", .expr = std::move(*sql::ParseExpression("NULL"))});
  auto pred = Pred("\"user_id\" = 1");
  ASSERT_TRUE(db_.Update("events", pred.get(), {}, assigns).ok());
  EXPECT_EQ(SelectScores("\"user_id\" IS NULL").size(), 10u);  // 5 old + 5 new
  ASSERT_TRUE(db_.Rollback().ok());

  ASSERT_TRUE(db_.CheckIntegrity().ok());
  EXPECT_EQ(SelectScores("\"user_id\" IS NULL").size(), 5u);
  EXPECT_EQ(SelectScores("\"user_id\" = 1").size(), 5u);
}

// --- DbStats contract --------------------------------------------------------

TEST(DbPlannerTest, StatsCopyRoundTripsEveryCounter) {
  // DbStats::operator= copies the counters kDbStatsCounters names (atomics
  // are not copyable). This test sets every counter to a distinct value and
  // round-trips it; the sizeof tripwire below fails if a new field is added
  // without extending BOTH kDbStatsCounters and this list.
  DbStats stats;
  stats.queries = 1;
  stats.rows_read = 2;
  stats.rows_inserted = 3;
  stats.rows_updated = 4;
  stats.rows_deleted = 5;
  stats.index_lookups = 6;
  stats.full_scans = 7;
  stats.rows_examined = 8;
  stats.plan_cache_hits = 9;
  stats.plan_cache_misses = 10;
  stats.range_probes = 11;
  stats.page_hits = 12;
  stats.page_misses = 13;
  stats.page_evictions = 14;
  stats.page_writebacks = 15;
  stats.resident_bytes = 16;

  DbStats copy = stats;
  EXPECT_EQ(copy.queries, 1u);
  EXPECT_EQ(copy.rows_read, 2u);
  EXPECT_EQ(copy.rows_inserted, 3u);
  EXPECT_EQ(copy.rows_updated, 4u);
  EXPECT_EQ(copy.rows_deleted, 5u);
  EXPECT_EQ(copy.index_lookups, 6u);
  EXPECT_EQ(copy.full_scans, 7u);
  EXPECT_EQ(copy.rows_examined, 8u);
  EXPECT_EQ(copy.plan_cache_hits, 9u);
  EXPECT_EQ(copy.plan_cache_misses, 10u);
  EXPECT_EQ(copy.range_probes, 11u);
  EXPECT_EQ(copy.page_hits, 12u);
  EXPECT_EQ(copy.page_misses, 13u);
  EXPECT_EQ(copy.page_evictions, 14u);
  EXPECT_EQ(copy.page_writebacks, 15u);
  EXPECT_EQ(copy.resident_bytes, 16u);

  // 16 counters. If this assert fires you added a DbStats field: extend
  // kDbStatsCounters, the block above, and this count.
  EXPECT_EQ(sizeof(DbStats), 16 * sizeof(std::atomic<uint64_t>));

  copy.Reset();
  EXPECT_EQ(copy.queries, 0u);
  EXPECT_EQ(copy.range_probes, 0u);
  EXPECT_EQ(stats.queries, 1u);  // Reset touches only the copy
}

// --- Static program checker over the planner corpus --------------------------

TEST(DbPlannerTest, PlannerCorpusProgramsPassTheStaticChecker) {
  // Every predicate shape this suite plans also compiles to a register
  // program the engine may run as a residual. Each one must pass the static
  // checker (Database::GetPlan asserts this at cache-insert in debug builds)
  // and decompile back to exactly the expression it was compiled from.
  const std::vector<std::string> kLayout = {"id", "user_id", "score", "kind", "note"};
  sql::ColumnBinder binder = [&kLayout](const std::string& table,
                                        const std::string& column) ->
      StatusOr<size_t> {
    if (!table.empty() && table != "events") {
      return NotFound("unknown table \"" + table + "\"");
    }
    for (size_t i = 0; i < kLayout.size(); ++i) {
      if (kLayout[i] == column) {
        return i;
      }
    }
    return NotFound("unknown column \"" + column + "\"");
  };
  sql::ColumnNamer namer = [&kLayout](size_t ordinal) -> StatusOr<std::string> {
    if (ordinal >= kLayout.size()) {
      return NotFound("ordinal out of range");
    }
    return kLayout[ordinal];
  };

  for (const char* text : kPlannerCorpus) {
    sql::ExprPtr expr = Pred(text);
    auto program = sql::CompiledPredicate::Compile(*expr, binder);
    ASSERT_TRUE(program.ok()) << text << ": " << program.status();
    sql::ProgramCheckOptions check;
    check.row_width = static_cast<int>(kLayout.size());
    Status verified = sql::VerifyProgram(*program, check);
    EXPECT_TRUE(verified.ok()) << text << ": " << verified;
    auto back = sql::DecompileProgram(*program, namer);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status();
    EXPECT_EQ((*back)->ToString(), expr->ToString()) << text;
  }
}

// --- Residual evaluation against the reference ------------------------------
//
// Every residual runs the compiled program over its candidates row by row.
// oracle::SelectMatchesReference pits Select against a row-by-row AST
// interpretation of the same statement: same rows, same order, same first
// error.

const sql::ParamMap kCorpusParams = {{"UID", Value::Int(2)}, {"MIN", Value::Int(8)}};

TEST(ReferenceOracleTest, PlannerCorpusMatchesOnTheSmallFixture) {
  Database db;
  BuildEvents(&db, 30);
  for (const char* text : kPlannerCorpus) {
    EXPECT_TRUE(oracle::SelectMatchesReference(db, "events", *Pred(text), kCorpusParams));
  }
}

TEST(ReferenceOracleTest, PlannerCorpusMatchesAcrossChunks) {
  // Thousands of rows, so full scans and wide probe lists run the residual
  // over a table far larger than the 30-row fixture.
  constexpr int kRows = 2348;
  Database db;
  BuildEvents(&db, kRows);
  for (const char* text : kPlannerCorpus) {
    EXPECT_TRUE(oracle::SelectMatchesReference(db, "events", *Pred(text), kCorpusParams));
  }
  // Shapes whose matches spread across the whole table.
  const char* kWide[] = {
      "\"score\" BETWEEN 1000 AND 2100 AND \"note\" LIKE 'n1%'",
      "\"note\" LIKE '%7'",
      "\"score\" % 1024 = 1023",
  };
  for (const char* text : kWide) {
    EXPECT_TRUE(oracle::SelectMatchesReference(db, "events", *Pred(text), {}));
  }
  // Runtime errors: the division-by-zero row (score 2100, RowId 2101) sits
  // ahead of a modulo-by-zero row (score 2300), and the second predicate
  // puts a modulo-by-zero row (score 1500) ahead of both. Select must stop
  // at the same first error the reference does.
  const char* kErrors[] = {
      "100 / (\"score\" - 2100) + 100 % (\"score\" - 2300) >= 0",
      "100 / (\"score\" - 2100) + 100 % (\"score\" - 1500) >= 0",
  };
  for (const char* text : kErrors) {
    auto pred = Pred(text);
    EXPECT_FALSE(db.Select("events", pred.get(), {}).ok()) << text;
    EXPECT_TRUE(oracle::SelectMatchesReference(db, "events", *pred, {}));
  }
}

// Statements whose plan leaves a residual: the compiled program runs it.
class VectorizedTest : public PlannerTest {};

TEST_F(VectorizedTest, SeesMutationsDeletesAndRollbacks) {
  auto matches = [this](const std::string& text) {
    return oracle::SelectMatchesReference(db_, "events", *Pred(text), {});
  };

  // Update: the row with score 7 carries note "n7" (RowId 8).
  EXPECT_EQ(SelectScores("\"note\" = 'n7'"), (std::vector<int64_t>{7}));
  ASSERT_TRUE(db_.SetColumn("events", 8, "note", Value::String("redone")).ok());
  EXPECT_TRUE(SelectScores("\"note\" = 'n7'").empty());
  EXPECT_EQ(SelectScores("\"note\" = 'redone'"), (std::vector<int64_t>{7}));
  EXPECT_TRUE(matches("\"note\" = 'redone' OR \"note\" = 'n7'"));

  // Delete: the row disappears from the scan.
  ASSERT_TRUE(db_.DeleteRow("events", 8).ok());
  EXPECT_TRUE(SelectScores("\"note\" = 'redone'").empty());
  EXPECT_EQ(SelectScores("\"note\" <> ''").size(), 29u);
  EXPECT_TRUE(matches("\"note\" <> ''"));

  // Rollback: undo restores the old value, and the next scan reads it.
  ASSERT_TRUE(db_.Begin().ok());
  ASSERT_TRUE(db_.SetColumn("events", 1, "note", Value::String("in-txn")).ok());
  EXPECT_EQ(SelectScores("\"note\" = 'in-txn'").size(), 1u);
  EXPECT_TRUE(matches("\"note\" LIKE 'in-%'"));
  ASSERT_TRUE(db_.Rollback().ok());
  EXPECT_TRUE(SelectScores("\"note\" = 'in-txn'").empty());
  EXPECT_EQ(SelectScores("\"note\" = 'n0'").size(), 1u);
  EXPECT_TRUE(matches("\"note\" LIKE 'in-%' OR \"note\" = 'n0'"));
}

TEST_F(VectorizedTest, VectorCountersMoveOnlyOnResidualStatements) {
  // Exact plans, the `col = $param` fast path and constant folds never reach
  // the residual evaluator.
  SelectScores("\"user_id\" IS NULL");       // exact probe
  SelectScores("\"score\" IN (3, 17, 99)");  // exact multi-probe
  SelectScores("\"score\" = 4 OR \"user_id\" = 3");  // exact union
  SelectScores("\"user_id\" = $UID", {{"UID", Value::Int(2)}});  // fast path
  SelectScores("\"kind\" = 'view'");         // fast path, literal
  SelectScores("TRUE");                        // constant
  SelectScores("1 = 2");                       // constant
  EXPECT_EQ(db_.stats().rows_examined, 0u);

  // A full scan with a residual evaluates every live row.
  SelectScores("\"note\" <> ''");
  EXPECT_EQ(db_.stats().rows_examined, 30u);

  // A probe with a residual evaluates only the probed candidates.
  SelectScores("\"score\" BETWEEN 10 AND 14 AND \"note\" <> 'n11' AND \"note\" <> 'n12'");
  EXPECT_EQ(db_.stats().rows_examined, 35u);

  // A statement with no residual leaves the count where it was.
  SelectScores("\"user_id\" = 3");
  EXPECT_EQ(db_.stats().rows_examined, 35u);
}

}  // namespace
}  // namespace edna::db
