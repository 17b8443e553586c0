// Ablation G: parallel batch disguising. §6 notes "batching,
// parallelization, and asynchronous application could improve performance";
// this ablation implements the parallelization arm: the HotCRP mass-deletion
// scenario (every contact files a GDPR removal at once, ~1k users at scale
// 2.33) executed serially versus through the BatchExecutor worker pool at
// 1/2/4/8 threads. threads=0 is the serial baseline (a plain ApplyForUser
// loop, no executor); speedup at N threads = serial time / threads=N time.
// Every run must finish with zero failed tasks and a clean consistency
// audit — parallelism is worthless if it corrupts the disguise history.
//
// NOTE: thread-level speedup only materializes on multi-core hardware;
// EXPERIMENTS.md records the host used for the reported numbers.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/batch.h"

namespace {

using benchutil::BaseWorld;
using benchutil::CheckOk;
using benchutil::FreshDb;
using benchutil::MakeEngine;
using edna::SimulatedClock;
using edna::sql::Value;
namespace hotcrp = edna::hotcrp;

// ~1000 users: 430 * 2.33.
constexpr double kScale = 2.33;

// Single runs of one argument spread by up to 1.7x on a 4-core host, so each
// argument runs as this many one-iteration repetitions and reports their
// median and spread (mean, median, stddev, cv) rather than one mean.
constexpr int kRepetitions = 10;

void BM_MassDeletion(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  // Hoisted so previous-iteration teardown happens while timing is paused.
  std::unique_ptr<edna::db::Database> db;
  std::unique_ptr<edna::vault::Vault> vault;
  std::unique_ptr<edna::core::DisguiseEngine> engine;
  const std::vector<int64_t>& uids = BaseWorld(kScale).gen.all_contact_ids;
  size_t conflict_retries = 0;
  uint64_t queries = 0;

  for (auto _ : state) {
    state.PauseTiming();
    engine.reset();
    db = FreshDb(kScale);
    vault = std::make_unique<edna::vault::OfflineVault>();
    static SimulatedClock clock(0);
    edna::core::EngineOptions options;
    options.deterministic_rng = true;  // interleaving-independent results
    engine = MakeEngine(db.get(), vault.get(), &clock, options);
    state.ResumeTiming();

    if (threads == 0) {
      queries = 0;
      for (int64_t uid : uids) {
        auto r = engine->ApplyForUser(hotcrp::kGdprName, Value::Int(uid));
        CheckOk(r.status(), "serial GDPR");
        queries += r->queries;
      }
    } else {
      edna::core::BatchOptions batch_options;
      batch_options.num_threads = threads;
      // Co-authored papers make different users' GDPR applies collide; give
      // the retry loop enough budget that conflicts never fail the batch.
      batch_options.max_attempts = 64;
      edna::core::BatchExecutor executor(engine.get(), batch_options);
      for (int64_t uid : uids) {
        executor.Submit(edna::core::BatchTask::Apply(hotcrp::kGdprName, Value::Int(uid)));
      }
      edna::core::BatchReport report = executor.Drain();
      if (report.failed != 0 || report.halted) {
        std::fprintf(stderr, "batch failed: %s", report.ToString().c_str());
        for (const auto& r : report.results) {
          if (!r.status.ok()) {
            std::fprintf(stderr, "  task %zu uid=%s: %s\n", r.index,
                         r.task.uid.ToSqlString().c_str(),
                         r.status.ToString().c_str());
          }
        }
        std::abort();
      }
      conflict_retries = report.conflict_retries;
      queries = report.queries;
    }

    state.PauseTiming();
    auto audit = engine->AuditConsistency();
    CheckOk(audit.status(), "audit");
    if (!audit->ok()) {
      std::fprintf(stderr, "audit violations:\n%s", audit->ToString().c_str());
      std::abort();
    }
    CheckOk(db->CheckIntegrity(), "integrity");
    state.ResumeTiming();
  }

  state.counters["users"] = static_cast<double>(uids.size());
  state.counters["queries"] = static_cast<double>(queries);
  state.counters["conflict_retries"] = static_cast<double>(conflict_retries);
}
BENCHMARK(BM_MassDeletion)
    ->Arg(0)  // serial baseline
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

// Mixed batch: mass deletion with a reveal wave behind it (a third of the
// users return), exercising the executor's per-user FIFO under load.
void BM_MassDeletionWithReveals(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  std::unique_ptr<edna::db::Database> db;
  std::unique_ptr<edna::vault::Vault> vault;
  std::unique_ptr<edna::core::DisguiseEngine> engine;
  const std::vector<int64_t>& uids = BaseWorld(kScale).gen.all_contact_ids;

  for (auto _ : state) {
    state.PauseTiming();
    engine.reset();
    db = FreshDb(kScale);
    vault = std::make_unique<edna::vault::OfflineVault>();
    static SimulatedClock clock(0);
    edna::core::EngineOptions options;
    options.deterministic_rng = true;
    engine = MakeEngine(db.get(), vault.get(), &clock, options);
    state.ResumeTiming();

    edna::core::BatchOptions batch_options;
    batch_options.num_threads = threads;
    batch_options.max_attempts = 64;
    edna::core::BatchExecutor executor(engine.get(), batch_options);
    for (size_t i = 0; i < uids.size(); ++i) {
      Value uid = Value::Int(uids[i]);
      executor.Submit(edna::core::BatchTask::Apply(hotcrp::kGdprName, uid));
      if (i % 3 == 0) {
        executor.Submit(edna::core::BatchTask::Reveal(hotcrp::kGdprName, uid));
      }
    }
    edna::core::BatchReport report = executor.Drain();
    if (report.failed != 0 || report.halted) {
      std::fprintf(stderr, "batch failed: %s", report.ToString().c_str());
      for (const auto& r : report.results) {
        if (!r.status.ok()) {
          std::fprintf(stderr, "  task %zu kind=%d uid=%s: %s\n", r.index,
                       static_cast<int>(r.task.kind),
                       r.task.uid.ToSqlString().c_str(),
                       r.status.ToString().c_str());
        }
      }
      std::abort();
    }

    state.PauseTiming();
    auto audit = engine->AuditConsistency();
    CheckOk(audit.status(), "audit");
    if (!audit->ok()) {
      std::abort();
    }
    CheckOk(db->CheckIntegrity(), "integrity");
    state.ResumeTiming();
  }
  state.counters["users"] = static_cast<double>(uids.size());
}
BENCHMARK(BM_MassDeletionWithReveals)
    ->Arg(1)
    ->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Ablation G: parallel batch disguising — HotCRP mass deletion (~1k users,\n"
      "scale %.2f) serial vs. BatchExecutor at 1/2/4/8 threads.\n"
      "speedup(N) = time(threads=0) / time(threads=N). Expected shape: near-linear\n"
      "scaling while workers outnumber conflicts, flat on a single-core host\n"
      "(thread count cannot beat core count; see EXPERIMENTS.md for the host).\n\n",
      kScale);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchutil::BaseWorld(kScale);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
