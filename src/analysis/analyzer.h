// Static analyzer entry point: runs every pass (validation, lint, PII taint
// flow, composition conflicts) over a set of disguise specs against one
// application schema and aggregates the findings into a single report.
// `disguisectl analyze` is a thin wrapper around this.
#ifndef SRC_ANALYSIS_ANALYZER_H_
#define SRC_ANALYSIS_ANALYZER_H_

#include <string>
#include <vector>

#include "src/analysis/coverage.h"
#include "src/analysis/findings.h"
#include "src/analysis/lifecycle.h"
#include "src/analysis/taint.h"
#include "src/db/schema.h"
#include "src/disguise/spec.h"

namespace edna::analysis {

struct AnalyzerOptions {
  TaintOptions taint;
};

struct AnalysisReport {
  std::vector<Finding> findings;

  FindingCounts Counts() const { return CountFindings(findings); }
  bool HasErrors() const { return Counts().errors > 0; }

  // Human-readable report: one finding per line plus a summary line.
  std::string ToString() const;

  // {"findings": [...], "errors": N, "warnings": N, "infos": N}
  std::string ToJson() const;
};

// Analyzes all `specs` against `schema`. A spec that fails Validate() gets
// an error finding ("invalid-spec") and is excluded from the other passes;
// analysis never aborts.
AnalysisReport Analyze(const std::vector<disguise::DisguiseSpec>& specs,
                       const db::Schema& schema, const AnalyzerOptions& options = {});

// --- `disguisectl verify`: the deep lifecycle pipeline -----------------------

// Verify also compiles every transformation and assertion predicate against
// its table, runs the static program checker (sql/verify.h), and proves the
// program equivalent to its AST via decompilation + the symbolic engine.
struct VerifyOptions {
  LifecycleOptions lifecycle;
  CoverageOptions coverage;
};

struct VerifyReport {
  std::vector<Finding> findings;
  LifecycleStats stats;

  FindingCounts Counts() const { return CountFindings(findings); }
  bool HasErrors() const { return Counts().errors > 0; }

  // Same shapes as AnalysisReport, plus a stats block in the JSON
  // (docs/FORMATS.md §5).
  std::string ToString() const;
  std::string ToJson() const;
};

// Model-checks the registered spec set end-to-end: per-spec reversibility,
// vault completeness and idempotence, reveal-order safety of every spec
// combination up to lifecycle.max_k, whole-registry PII coverage, and the
// compiled-program checks. Invalid specs get "invalid-spec" errors and are
// excluded, as in Analyze().
VerifyReport Verify(const std::vector<disguise::DisguiseSpec>& specs,
                    const db::Schema& schema, const VerifyOptions& options = {});

}  // namespace edna::analysis

#endif  // SRC_ANALYSIS_ANALYZER_H_
