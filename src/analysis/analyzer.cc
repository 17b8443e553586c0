#include "src/analysis/analyzer.h"

#include <utility>

#include "src/analysis/conflicts.h"
#include "src/analysis/lint.h"
#include "src/analysis/predicate.h"
#include "src/common/strings.h"
#include "src/sql/compile.h"
#include "src/sql/verify.h"

namespace edna::analysis {

std::string AnalysisReport::ToString() const {
  std::string out;
  for (const Finding& f : findings) {
    out += f.ToString();
    out += "\n";
  }
  FindingCounts counts = Counts();
  out += StrFormat("%zu error(s), %zu warning(s), %zu info(s)\n", counts.errors,
                   counts.warnings, counts.infos);
  return out;
}

std::string AnalysisReport::ToJson() const {
  FindingCounts counts = Counts();
  std::string out = "{\"findings\": ";
  out += FindingsToJson(findings);
  out += StrFormat(",\n \"errors\": %zu, \"warnings\": %zu, \"infos\": %zu}\n",
                   counts.errors, counts.warnings, counts.infos);
  return out;
}

AnalysisReport Analyze(const std::vector<disguise::DisguiseSpec>& specs,
                       const db::Schema& schema, const AnalyzerOptions& options) {
  AnalysisReport report;
  std::vector<const disguise::DisguiseSpec*> valid;
  for (const disguise::DisguiseSpec& spec : specs) {
    Status st = spec.Validate(schema);
    if (!st.ok()) {
      report.findings.push_back(Finding{Severity::kError, "invalid-spec", spec.name(), "",
                                        "", std::string(st.message())});
      continue;
    }
    valid.push_back(&spec);
  }

  for (const disguise::DisguiseSpec* spec : valid) {
    std::vector<Finding> lint = LintSpec(*spec, schema);
    report.findings.insert(report.findings.end(), std::make_move_iterator(lint.begin()),
                           std::make_move_iterator(lint.end()));
    std::vector<Finding> taint = AnalyzeTaint(*spec, schema, options.taint);
    report.findings.insert(report.findings.end(), std::make_move_iterator(taint.begin()),
                           std::make_move_iterator(taint.end()));
  }

  if (valid.size() > 1) {
    std::vector<Finding> conflicts = AnalyzeConflicts(valid);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(conflicts.begin()),
                           std::make_move_iterator(conflicts.end()));
  }

  SortFindings(&report.findings);
  DedupFindings(&report.findings);
  return report;
}

std::string VerifyReport::ToString() const {
  std::string out;
  for (const Finding& f : findings) {
    out += f.ToString();
    out += "\n";
  }
  FindingCounts counts = Counts();
  out += StrFormat(
      "%zu error(s), %zu warning(s), %zu info(s); %zu combo(s), %zu region(s), "
      "%zu sequence(s) explored\n",
      counts.errors, counts.warnings, counts.infos, stats.combos, stats.regions,
      stats.sequences);
  return out;
}

std::string VerifyReport::ToJson() const {
  FindingCounts counts = Counts();
  std::string out = "{\"findings\": ";
  out += FindingsToJson(findings);
  out += StrFormat(",\n \"errors\": %zu, \"warnings\": %zu, \"infos\": %zu",
                   counts.errors, counts.warnings, counts.infos);
  out += StrFormat(
      ",\n \"stats\": {\"combos\": %zu, \"tables\": %zu, \"regions\": %zu, "
      "\"sequences\": %zu, \"truncated\": %zu}}\n",
      stats.combos, stats.tables, stats.regions, stats.sequences, stats.truncated);
  return out;
}

namespace {

// Compiles one predicate against its table, statically checks the program,
// and proves it equivalent to the AST it came from (syntactically when the
// decompiled rendering matches, else via the symbolic engine).
void CheckProgram(const std::string& spec, const std::string& table,
                  const sql::Expr& pred, const db::TableSchema& ts,
                  std::vector<Finding>* findings) {
  auto fail = [&](const std::string& message) {
    findings->push_back(
        Finding{Severity::kError, "program-check-failed", spec, table, "", message});
  };
  sql::ColumnBinder binder = [&ts](const std::string& tbl,
                                   const std::string& column) -> StatusOr<size_t> {
    if (!tbl.empty() && tbl != ts.name()) {
      return NotFound("unknown table \"" + tbl + "\"");
    }
    const std::vector<db::ColumnDef>& cols = ts.columns();
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].name == column) {
        return i;
      }
    }
    return NotFound("unknown column \"" + column + "\"");
  };
  StatusOr<sql::CompiledPredicate> program = sql::CompiledPredicate::Compile(pred, binder);
  if (!program.ok()) {
    fail("compilation failed: " + std::string(program.status().message()));
    return;
  }
  sql::ProgramCheckOptions check;
  check.row_width = static_cast<int>(ts.num_columns());
  Status st = sql::VerifyProgram(*program, check);
  if (!st.ok()) {
    fail("program checker rejected the compiled predicate " + pred.ToString() + ": " +
         std::string(st.message()));
    return;
  }
  sql::ColumnNamer namer = [&ts](size_t ordinal) -> StatusOr<std::string> {
    if (ordinal >= ts.num_columns()) {
      return NotFound("column ordinal out of range");
    }
    return ts.columns()[ordinal].name;
  };
  StatusOr<sql::ExprPtr> decompiled = sql::DecompileProgram(*program, namer);
  if (!decompiled.ok()) {
    fail("decompilation failed for " + pred.ToString() + ": " +
         std::string(decompiled.status().message()));
    return;
  }
  if ((*decompiled)->ToString() == pred.ToString()) {
    return;  // syntactically identical round trip
  }
  if (Implies(pred, **decompiled) == Tri::kYes &&
      Implies(**decompiled, pred) == Tri::kYes) {
    return;  // provably equivalent
  }
  findings->push_back(Finding{
      Severity::kInfo, "program-unproven", spec, table, "",
      "compiled program decompiles to " + (*decompiled)->ToString() +
          " which could not be proven equivalent to " + pred.ToString()});
}

void RunProgramChecks(const disguise::DisguiseSpec& spec, const db::Schema& schema,
                      std::vector<Finding>* findings) {
  for (const disguise::TableDisguise& td : spec.tables()) {
    const db::TableSchema* ts = schema.FindTable(td.table);
    if (ts == nullptr) {
      continue;  // Validate() already reported it
    }
    for (const disguise::Transformation& tr : td.transformations) {
      if (tr.predicate() != nullptr) {
        CheckProgram(spec.name(), td.table, *tr.predicate(), *ts, findings);
      }
    }
  }
  for (const disguise::Assertion& a : spec.assertions()) {
    const db::TableSchema* ts = schema.FindTable(a.table);
    if (ts != nullptr && a.predicate != nullptr) {
      CheckProgram(spec.name(), a.table, *a.predicate, *ts, findings);
    }
  }
}

}  // namespace

VerifyReport Verify(const std::vector<disguise::DisguiseSpec>& specs,
                    const db::Schema& schema, const VerifyOptions& options) {
  VerifyReport report;
  std::vector<const disguise::DisguiseSpec*> valid;
  for (const disguise::DisguiseSpec& spec : specs) {
    Status st = spec.Validate(schema);
    if (!st.ok()) {
      report.findings.push_back(Finding{Severity::kError, "invalid-spec", spec.name(),
                                        "", "", std::string(st.message())});
      continue;
    }
    valid.push_back(&spec);
  }

  std::vector<Finding> lifecycle =
      VerifyLifecycle(valid, schema, options.lifecycle, &report.stats);
  report.findings.insert(report.findings.end(),
                         std::make_move_iterator(lifecycle.begin()),
                         std::make_move_iterator(lifecycle.end()));

  std::vector<Finding> coverage = AnalyzePiiCoverage(valid, schema, options.coverage);
  report.findings.insert(report.findings.end(),
                         std::make_move_iterator(coverage.begin()),
                         std::make_move_iterator(coverage.end()));

  for (const disguise::DisguiseSpec* spec : valid) {
    RunProgramChecks(*spec, schema, &report.findings);
  }

  SortFindings(&report.findings);
  DedupFindings(&report.findings);
  return report;
}

}  // namespace edna::analysis
