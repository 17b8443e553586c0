// Lifecycle verifier (src/analysis/lifecycle.{h,cc}) and PII coverage
// (src/analysis/coverage.{h,cc}):
//   * the shipped HotCRP/Lobsters spec registries verify clean (no errors)
//     up to k = 3;
//   * a differential check that the k = 2 verifier agrees with the pairwise
//     conflict predictor on every shipped pair, and is strictly stronger on
//     a constructed Modify+Decorrelate overlap the pairwise pass cannot see,
//     but weaker on two specs modifying the same cells (the predictor's
//     error gates CI; the verifier only warns, and only if reversible);
//   * a mutation battery: a model that drops vault writes, reveals a
//     non-inverse value, or reveals in the wrong order is flagged with the
//     right finding kind — the verifier's own soundness regression suite;
//   * symbolic idempotence verdicts and budget truncation;
//   * coverage: FK-reachable sensitive columns no disguise touches.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/conflicts.h"
#include "src/analysis/coverage.h"
#include "src/analysis/lifecycle.h"
#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/schema.h"
#include "src/apps/lobsters/disguises.h"
#include "src/apps/lobsters/schema.h"
#include "src/disguise/spec_parser.h"

namespace edna::analysis {
namespace {

using disguise::DisguiseSpec;
using disguise::ParseDisguiseSpec;

// users <- logs (SET NULL), users <- posts (RESTRICT). PII on users.name,
// users.email, logs.ip, posts.content; quasi on users.bio.
db::Schema TestSchema() {
  db::Schema schema;
  db::TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "name", .type = db::ColumnType::kString, .nullable = false,
                  .sensitivity = db::Sensitivity::kPii})
      .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = false,
                  .sensitivity = db::Sensitivity::kPii})
      .AddColumn({.name = "bio", .type = db::ColumnType::kString, .nullable = true,
                  .sensitivity = db::Sensitivity::kQuasi})
      .SetPrimaryKey({"id"});
  EXPECT_TRUE(schema.AddTable(std::move(users)).ok());

  db::TableSchema logs("logs");
  logs.AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "user_id", .type = db::ColumnType::kInt, .nullable = true})
      .AddColumn({.name = "ip", .type = db::ColumnType::kString, .nullable = true,
                  .sensitivity = db::Sensitivity::kPii})
      .SetPrimaryKey({"id"})
      .AddForeignKey({.column = "user_id", .parent_table = "users", .parent_column = "id",
                      .on_delete = db::FkAction::kSetNull});
  EXPECT_TRUE(schema.AddTable(std::move(logs)).ok());

  db::TableSchema posts("posts");
  posts
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "user_id", .type = db::ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "content", .type = db::ColumnType::kString, .nullable = true,
                  .sensitivity = db::Sensitivity::kPii})
      .SetPrimaryKey({"id"})
      .AddForeignKey({.column = "user_id", .parent_table = "users", .parent_column = "id",
                      .on_delete = db::FkAction::kRestrict});
  EXPECT_TRUE(schema.AddTable(std::move(posts)).ok());
  return schema;
}

DisguiseSpec Parse(const db::Schema& schema, const char* text) {
  auto spec = ParseDisguiseSpec(text);
  EXPECT_TRUE(spec.ok()) << spec.status();
  Status valid = spec->Validate(schema);
  EXPECT_TRUE(valid.ok()) << valid;
  return *std::move(spec);
}

size_t CountErrors(const std::vector<Finding>& findings) {
  return CountFindings(findings).errors;
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& code,
                const std::string& spec = "", const std::string& table = "",
                const std::string& column = "") {
  for (const Finding& f : findings) {
    if (f.code == code && (spec.empty() || f.spec == spec) &&
        (table.empty() || f.table == table) &&
        (column.empty() || f.column == column)) {
      return true;
    }
  }
  return false;
}

const Finding* FindFinding(const std::vector<Finding>& findings,
                           const std::string& code, const std::string& table = "",
                           const std::string& column = "") {
  for (const Finding& f : findings) {
    if (f.code == code && (table.empty() || f.table == table) &&
        (column.empty() || f.column == column)) {
      return &f;
    }
  }
  return nullptr;
}

// --- Shipped spec registries ------------------------------------------------

TEST(LifecycleTest, ShippedHotcrpSpecsVerifyCleanAtK3) {
  db::Schema schema = hotcrp::BuildSchema();
  auto gdpr = hotcrp::GdprSpec();
  auto gdpr_plus = hotcrp::GdprPlusSpec();
  auto conf_anon = hotcrp::ConfAnonSpec();
  ASSERT_TRUE(gdpr.ok() && gdpr_plus.ok() && conf_anon.ok());

  LifecycleOptions options;
  options.max_k = 3;
  LifecycleStats stats;
  auto findings =
      VerifyLifecycle({&*gdpr, &*gdpr_plus, &*conf_anon}, schema, options, &stats);

  // §5's ordering hazards surface as warnings with a safe order named, never
  // as errors: the shipped disguises are all correctly reversible.
  EXPECT_EQ(CountErrors(findings), 0u);
  EXPECT_FALSE(HasFinding(findings, "not-reversible"));
  EXPECT_FALSE(HasFinding(findings, "vault-incomplete"));
  // Overlapping specs do carry real reveal-order constraints.
  EXPECT_TRUE(HasFinding(findings, "reveal-order-unsafe"));
  // 3 singles + 3 pairs + 1 triple.
  EXPECT_EQ(stats.combos, 7u);
  EXPECT_GT(stats.regions, 0u);
  EXPECT_GT(stats.sequences, 0u);
  EXPECT_EQ(stats.truncated, 0u);
}

TEST(LifecycleTest, ShippedLobstersSpecVerifiesClean) {
  db::Schema schema = lobsters::BuildSchema();
  auto gdpr = lobsters::GdprSpec();
  ASSERT_TRUE(gdpr.ok());
  LifecycleStats stats;
  auto findings = VerifyLifecycle({&*gdpr}, schema, {}, &stats);
  EXPECT_EQ(CountErrors(findings), 0u);
  EXPECT_EQ(stats.combos, 1u);
}

// --- Differential: k = 2 verifier vs. the pairwise predictor ----------------

TEST(LifecycleTest, AgreesWithPairwisePredictorOnShippedPairs) {
  db::Schema schema = hotcrp::BuildSchema();
  auto gdpr = hotcrp::GdprSpec();
  auto gdpr_plus = hotcrp::GdprPlusSpec();
  auto conf_anon = hotcrp::ConfAnonSpec();
  ASSERT_TRUE(gdpr.ok() && gdpr_plus.ok() && conf_anon.ok());
  const DisguiseSpec* all[] = {&*gdpr, &*gdpr_plus, &*conf_anon};

  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = i + 1; j < 3; ++j) {
      const DisguiseSpec* a = all[i];
      const DisguiseSpec* b = all[j];
      std::vector<Finding> pairwise = AnalyzeConflicts({a, b});
      LifecycleOptions options;
      options.max_k = 2;
      std::vector<Finding> lifecycle = VerifyLifecycle({a, b}, schema, options);
      const std::string pair = a->name() + "+" + b->name();

      // Both passes find the shipped pairs composable (no errors)...
      EXPECT_EQ(CountErrors(pairwise), 0u) << pair;
      EXPECT_EQ(CountErrors(lifecycle), 0u) << pair;
      // ...and wherever the pairwise predictor warns that a Remove shadows
      // another spec's transformation, the model checker exhibits a concrete
      // unsafe interleaving on the same table.
      for (const Finding& f : pairwise) {
        if (f.code != "remove-shadows-transform" && f.code != "conflicting-modify") {
          continue;
        }
        EXPECT_TRUE(HasFinding(lifecycle, "reveal-order-unsafe", pair, f.table))
            << pair << ": pairwise warned on " << f.table << "." << f.column
            << " but the verifier found no unsafe order";
      }
    }
  }
}

TEST(LifecycleTest, StrictlyStrongerThanPairwiseOnModifyDecorrelateOverlap) {
  // Pairwise only compares Modify-vs-Modify and Decorrelate-vs-Decorrelate
  // on a shared column; a Modify of an FK column one spec Decorrelates slips
  // through. The model checker sees both write the same cells.
  db::Schema schema = TestSchema();
  DisguiseSpec a = Parse(schema, R"(
disguise_name: "NullFk"
user_to_disguise: $UID
reversible: true
table logs:
  transformations:
    Modify(pred: "user_id" = $UID, column: "user_id", value: Const(NULL))
)");
  DisguiseSpec b = Parse(schema, R"(
disguise_name: "Decor"
reversible: true
table users:
  generate_placeholder:
    "name" <- Random
    "email" <- Const('')
table logs:
  transformations:
    Decorrelate(pred: TRUE, foreign_key: ("user_id", users))
)");
  std::vector<Finding> pairwise = AnalyzeConflicts({&a, &b});
  EXPECT_FALSE(HasFinding(pairwise, "conflicting-modify"));
  EXPECT_FALSE(HasFinding(pairwise, "decorrelate-overlap"));

  LifecycleOptions options;
  options.max_k = 2;
  std::vector<Finding> lifecycle = VerifyLifecycle({&a, &b}, schema, options);
  EXPECT_TRUE(
      HasFinding(lifecycle, "reveal-order-unsafe", "NullFk+Decor", "logs", "user_id"));
  EXPECT_EQ(CountErrors(lifecycle), 0u);  // reversible either way round
}

TEST(LifecycleTest, PredictorGatesSharedModifyTheVerifierOnlyWarnsOn) {
  // Why the pairwise predictor is not yet redundant: two per-user specs
  // Modify the same cells. The predictor raises a CI-gating error; the k=2
  // verifier only warns about reveal order, and says nothing at all once
  // the specs are irreversible.
  db::Schema schema = TestSchema();
  auto spec = [&](const char* name, const char* value, bool reversible) {
    std::string text = std::string("disguise_name: \"") + name +
                       "\"\nuser_to_disguise: $UID\nreversible: " +
                       (reversible ? "true" : "false") +
                       "\ntable logs:\n  transformations:\n"
                       "    Modify(pred: \"user_id\" = $UID, column: \"ip\", value: " +
                       value + ")\n";
    return Parse(schema, text.c_str());
  };
  LifecycleOptions options;
  options.max_k = 2;
  for (bool reversible : {true, false}) {
    SCOPED_TRACE(reversible ? "reversible" : "irreversible");
    DisguiseSpec a = spec("RedactIp", "Redact", reversible);
    DisguiseSpec b = spec("HashIp", "Hash", reversible);

    std::vector<Finding> pairwise = AnalyzeConflicts({&a, &b});
    const Finding* conflict = FindFinding(pairwise, "conflicting-modify", "logs", "ip");
    ASSERT_NE(conflict, nullptr);
    EXPECT_EQ(conflict->severity, Severity::kError);

    std::vector<Finding> lifecycle = VerifyLifecycle({&a, &b}, schema, options);
    EXPECT_EQ(HasFinding(lifecycle, "reveal-order-unsafe", "", "logs", "ip"), reversible);
    EXPECT_EQ(CountErrors(lifecycle), 0u);
  }
}

// --- Mutation battery -------------------------------------------------------
// Each seeded fault models a broken engine; the verifier must flag it with
// the specific finding kind, not just "something failed".

const char* kReversibleSpec = R"(
disguise_name: "Scrub"
user_to_disguise: $UID
reversible: true
table users:
  transformations:
    Remove(pred: "id" = $UID)
table logs:
  transformations:
    Modify(pred: "user_id" = $UID, column: "ip", value: Redact)
)";

TEST(LifecycleTest, MissingVaultWriteIsFlaggedAsVaultIncomplete) {
  db::Schema schema = TestSchema();
  DisguiseSpec spec = Parse(schema, kReversibleSpec);
  LifecycleOptions options;
  options.faults.drop_vault_writes = true;
  auto findings = VerifyLifecycle({&spec}, schema, options);

  // PII overwritten with no vault write: an error, named per location.
  const Finding* rows = FindFinding(findings, "vault-incomplete", "users");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->severity, Severity::kError);
  const Finding* cells = FindFinding(findings, "vault-incomplete", "logs", "ip");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->severity, Severity::kError);
  // And the spec as a whole can no longer restore the pre-apply state.
  EXPECT_TRUE(HasFinding(findings, "not-reversible", "Scrub"));
}

TEST(LifecycleTest, QuasiIdentifierVaultGapIsOnlyAWarning) {
  db::Schema schema = TestSchema();
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "BioScrub"
user_to_disguise: $UID
reversible: true
table users:
  transformations:
    Modify(pred: "id" = $UID, column: "bio", value: Redact)
)");
  LifecycleOptions options;
  options.faults.drop_vault_writes = true;
  auto findings = VerifyLifecycle({&spec}, schema, options);
  const Finding* f = FindFinding(findings, "vault-incomplete", "users", "bio");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
}

TEST(LifecycleTest, NonInverseRevealIsFlaggedAsNotReversible) {
  db::Schema schema = TestSchema();
  DisguiseSpec spec = Parse(schema, kReversibleSpec);
  LifecycleOptions options;
  options.faults.skew_reveal_values = true;  // reveal restores a wrong value
  auto findings = VerifyLifecycle({&spec}, schema, options);
  EXPECT_TRUE(HasFinding(findings, "not-reversible", "Scrub"));

  // The unmutated model is clean: the faults, not the spec, are broken.
  EXPECT_EQ(CountErrors(VerifyLifecycle({&spec}, schema, {})), 0u);
}

TEST(LifecycleTest, WrongRevealOrderIsFlaggedWithSafeOrderNamed) {
  db::Schema schema = TestSchema();
  DisguiseSpec a = Parse(schema, R"(
disguise_name: "A"
user_to_disguise: $UID
reversible: true
table logs:
  transformations:
    Modify(pred: "user_id" = $UID, column: "ip", value: Redact)
)");
  DisguiseSpec b = Parse(schema, R"(
disguise_name: "B"
reversible: true
table logs:
  transformations:
    Modify(pred: TRUE, column: "ip", value: Hash)
)");
  LifecycleOptions options;
  options.max_k = 2;
  auto findings = VerifyLifecycle({&a, &b}, schema, options);
  const Finding* f = FindFinding(findings, "reveal-order-unsafe", "logs", "ip");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  // The message names a concrete bad interleaving and the safe discipline.
  EXPECT_NE(f->message.find("sequence ["), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("reverse application order"), std::string::npos)
      << f->message;
  // LIFO reveals always restore, so this is never an error.
  EXPECT_EQ(CountErrors(findings), 0u);
}

// --- Idempotence ------------------------------------------------------------

TEST(LifecycleTest, SelfFalsifyingFreshWriteIsIdempotent) {
  db::Schema schema = TestSchema();
  // The write lands on the predicate's own column: a fresh value provably
  // fails "name" = 'x', so the second apply matches nothing.
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "Fresh"
table users:
  transformations:
    Modify(pred: "name" = 'x', column: "name", value: Random)
)");
  auto findings = VerifyLifecycle({&spec}, schema, {});
  EXPECT_FALSE(HasFinding(findings, "not-idempotent"));
}

TEST(LifecycleTest, UntouchedPredicateColumnIsProvablyNotIdempotent) {
  db::Schema schema = TestSchema();
  // The predicate reads "bio", which the apply never writes: every re-apply
  // re-fires and mints fresh values (and fresh vault entries).
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "Refire"
table users:
  transformations:
    Modify(pred: "bio" = 'x', column: "name", value: Random)
)");
  auto findings = VerifyLifecycle({&spec}, schema, {});
  const Finding* f = FindFinding(findings, "not-idempotent", "users", "name");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_NE(f->message.find("still matches"), std::string::npos) << f->message;
}

TEST(LifecycleTest, ExprGeneratorDegradesIdempotenceVerdictToInfo) {
  db::Schema schema = TestSchema();
  // An Expr generator's output is opaque to the symbolic engine: the
  // re-fire question is only "may", reported as info.
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "Opaque"
table users:
  transformations:
    Modify(pred: "name" = 'x', column: "name", value: Expr("name" || '!'))
)");
  auto findings = VerifyLifecycle({&spec}, schema, {});
  const Finding* f = FindFinding(findings, "not-idempotent", "users", "name");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kInfo);
  EXPECT_NE(f->message.find("may still match"), std::string::npos) << f->message;
}

TEST(LifecycleTest, RemoveCoveredRowsAreExemptFromIdempotence) {
  db::Schema schema = TestSchema();
  // The Remove provably covers every row the Modify touches: by the second
  // apply those rows are gone, so the Modify cannot re-fire.
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "Gone"
user_to_disguise: $UID
table users:
  transformations:
    Modify(pred: "id" = $UID, column: "name", value: Random)
    Remove(pred: "id" = $UID)
)");
  auto findings = VerifyLifecycle({&spec}, schema, {});
  EXPECT_FALSE(HasFinding(findings, "not-idempotent"));
}

// --- Budgets ----------------------------------------------------------------

TEST(LifecycleTest, PredicateBudgetTruncatesInsteadOfExploding) {
  db::Schema schema = TestSchema();
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "Wide"
table users:
  transformations:
    Modify(pred: "name" = 'x', column: "name", value: Redact)
    Modify(pred: "email" = 'y', column: "email", value: Redact)
)");
  LifecycleOptions options;
  options.max_predicates_per_table = 1;
  LifecycleStats stats;
  auto findings = VerifyLifecycle({&spec}, schema, options, &stats);
  EXPECT_TRUE(HasFinding(findings, "verify-truncated"));
  EXPECT_GT(stats.truncated, 0u);
}

// --- PII coverage -----------------------------------------------------------

TEST(CoverageTest, ReportsReachableSensitiveColumnsNoSpecTouches) {
  db::Schema schema = TestSchema();
  // Touches users.name only; everything else sensitive is uncovered.
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "NameOnly"
user_to_disguise: $UID
table users:
  transformations:
    Modify(pred: "id" = $UID, column: "name", value: Redact)
)");
  auto findings = AnalyzePiiCoverage({&spec}, schema);
  const Finding* email = FindFinding(findings, "pii-uncovered", "users", "email");
  ASSERT_NE(email, nullptr);
  EXPECT_EQ(email->severity, Severity::kWarning);
  // FK-reachable tables count too.
  EXPECT_TRUE(HasFinding(findings, "pii-uncovered", "", "logs", "ip"));
  EXPECT_TRUE(HasFinding(findings, "pii-uncovered", "", "posts", "content"));
  // Quasi-identifiers report at info.
  const Finding* bio = FindFinding(findings, "pii-uncovered", "users", "bio");
  ASSERT_NE(bio, nullptr);
  EXPECT_EQ(bio->severity, Severity::kInfo);
  // The touched column itself is covered.
  EXPECT_FALSE(HasFinding(findings, "pii-uncovered", "", "users", "name"));
}

TEST(CoverageTest, RemoveCoversTheWholeTable) {
  db::Schema schema = TestSchema();
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "Del"
user_to_disguise: $UID
table users:
  transformations:
    Remove(pred: "id" = $UID)
table logs:
  transformations:
    Modify(pred: "user_id" = $UID, column: "ip", value: Redact)
table posts:
  transformations:
    Modify(pred: TRUE, column: "content", value: Redact)
)");
  auto findings = AnalyzePiiCoverage({&spec}, schema);
  EXPECT_FALSE(HasFinding(findings, "pii-uncovered", "", "users"));
  EXPECT_FALSE(HasFinding(findings, "pii-uncovered", "", "logs"));
  EXPECT_FALSE(HasFinding(findings, "pii-uncovered", "", "posts"));
}

TEST(CoverageTest, SkipsWithAnInfoWhenNoIdentityTableIsKnown) {
  db::Schema schema = TestSchema();
  // Global spec: no $UID, so no identity table can be derived.
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "Global"
table posts:
  transformations:
    Modify(pred: TRUE, column: "content", value: Redact)
)");
  auto findings = AnalyzePiiCoverage({&spec}, schema);
  EXPECT_TRUE(HasFinding(findings, "coverage-skipped"));
  EXPECT_FALSE(HasFinding(findings, "pii-uncovered"));
}

TEST(CoverageTest, IdentityOverrideEnablesTheAnalysis) {
  db::Schema schema = TestSchema();
  DisguiseSpec spec = Parse(schema, R"(
disguise_name: "Global"
table posts:
  transformations:
    Modify(pred: TRUE, column: "content", value: Redact)
)");
  CoverageOptions options;
  options.identity_table = "users";
  auto findings = AnalyzePiiCoverage({&spec}, schema, options);
  EXPECT_FALSE(HasFinding(findings, "coverage-skipped"));
  EXPECT_TRUE(HasFinding(findings, "pii-uncovered", "", "users", "email"));
  EXPECT_FALSE(HasFinding(findings, "pii-uncovered", "", "posts", "content"));
}

TEST(CoverageTest, ShippedRegistriesLeaveNoPiiErrorsUncovered) {
  // The shipped registries' gaps are warnings at worst (they gate CI only
  // under --fail-on warning); both apps must stay error-free.
  {
    db::Schema schema = hotcrp::BuildSchema();
    auto gdpr = hotcrp::GdprSpec();
    auto gdpr_plus = hotcrp::GdprPlusSpec();
    auto conf_anon = hotcrp::ConfAnonSpec();
    ASSERT_TRUE(gdpr.ok() && gdpr_plus.ok() && conf_anon.ok());
    auto findings = AnalyzePiiCoverage({&*gdpr, &*gdpr_plus, &*conf_anon}, schema);
    EXPECT_EQ(CountErrors(findings), 0u);
  }
  {
    db::Schema schema = lobsters::BuildSchema();
    auto gdpr = lobsters::GdprSpec();
    ASSERT_TRUE(gdpr.ok());
    auto findings = AnalyzePiiCoverage({&*gdpr}, schema);
    EXPECT_EQ(CountErrors(findings), 0u);
  }
}

}  // namespace
}  // namespace edna::analysis
