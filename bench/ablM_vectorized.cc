// Ablation M: residual evaluation on full scans. Unindexed analytic
// predicates over the HotCRP tables give the planner no probe, so every
// statement scans its table and runs the compiled residual over every live
// row, one row at a time. Two workloads:
//   * scan-filter: 20 rounds of the five scans between single writes, the
//     repeated-scan pattern of an analytic read;
//   * scan-filter-after-write: one SetColumn on the scanned table before
//     every scan, the pattern of a disguise that scans and then rewrites.
// Both export rows examined and full scans.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/sql/parser.h"

namespace {

using benchutil::CheckOk;
using benchutil::FreshDb;
using edna::sql::Value;

constexpr double kScale = 2.33;

void ExportScanCounters(benchmark::State& state, const edna::db::Database& db) {
  state.counters["rows_examined"] = static_cast<double>(db.stats().rows_examined.load());
  state.counters["full_scans"] = static_cast<double>(db.stats().full_scans.load());
}

// Unindexed predicates, each with a column of the same table that no
// predicate reads (the write the second workload makes before each scan).
struct ScanCase {
  const char* table;
  const char* pred;
  const char* touch_column;
};
const ScanCase kScans[] = {
    {"ContactInfo", "\"roles\" >= 0 AND \"creationTime\" >= 0", "defaultWatch"},
    {"ContactInfo", "\"email\" LIKE '%@%' AND \"roles\" < 8", "defaultWatch"},
    {"Paper", "\"timeSubmitted\" > 0 AND \"outcome\" >= 0", "abstract"},
    {"Paper", "\"title\" LIKE '%a%' AND \"timeWithdrawn\" = 0", "abstract"},
    {"PaperReview", "(\"reviewId\" * 2) >= 0", "reviewText"},
};

std::vector<edna::sql::ExprPtr> ParseScans() {
  std::vector<edna::sql::ExprPtr> preds;
  for (const ScanCase& scan : kScans) {
    auto e = edna::sql::ParseExpression(scan.pred);
    CheckOk(e.status(), "parse");
    preds.push_back(std::move(*e));
  }
  return preds;
}

size_t RunScan(edna::db::Database* db, size_t i, const edna::sql::ExprPtr& pred) {
  auto rows = db->Select(kScans[i].table, pred.get(), {});
  CheckOk(rows.status(), "select");
  return rows->size();
}

void BM_ScanFilter(benchmark::State& state) {
  constexpr int kRepeats = 20;
  std::vector<edna::sql::ExprPtr> preds = ParseScans();
  std::unique_ptr<edna::db::Database> db = FreshDb(kScale);
  db->ResetStats();
  size_t matched = 0;
  for (auto _ : state) {
    for (int r = 0; r < kRepeats; ++r) {
      for (size_t i = 0; i < preds.size(); ++i) {
        matched += RunScan(db.get(), i, preds[i]);
      }
    }
    CheckOk(db->SetColumn("ContactInfo", 1, "defaultWatch", Value::String("w")), "touch");
  }
  benchmark::DoNotOptimize(matched);
  ExportScanCounters(state, *db);
}
BENCHMARK(BM_ScanFilter)->Unit(benchmark::kMillisecond)->Iterations(10);

void BM_ScanFilterAfterWrite(benchmark::State& state) {
  constexpr int kRepeats = 20;
  std::vector<edna::sql::ExprPtr> preds = ParseScans();
  std::unique_ptr<edna::db::Database> db = FreshDb(kScale);
  db->ResetStats();
  size_t matched = 0;
  int64_t stamp = 0;
  for (auto _ : state) {
    for (int r = 0; r < kRepeats; ++r) {
      for (size_t i = 0; i < preds.size(); ++i) {
        CheckOk(db->SetColumn(kScans[i].table, 1, kScans[i].touch_column,
                              Value::String("w" + std::to_string(++stamp))),
                "touch");
        matched += RunScan(db.get(), i, preds[i]);
      }
    }
  }
  benchmark::DoNotOptimize(matched);
  ExportScanCounters(state, *db);
}
BENCHMARK(BM_ScanFilterAfterWrite)->Unit(benchmark::kMillisecond)->Iterations(10);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Ablation M: residual evaluation on full scans. Each scan runs the\n"
      "compiled predicate over its table's live rows one row at a time; the\n"
      "second workload writes to the scanned table before every scan.\n\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchutil::BaseWorld(kScale);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
