// ShardSet: N durable disguise engines behind one dispatch surface — the
// storage/execution half of the disguise-as-a-service daemon (DESIGN.md
// "Disguise-as-a-service").
//
// Partitioning: every shard is a self-contained DurableEngine (own data
// directory `shard-<i>/`, own WAL, vault, journal). Users are routed by
// uid hash — the SAME hash the BatchExecutor uses for its per-user FIFO
// queues — so one user's operations always land on one shard AND one worker
// queue inside it, preserving the §5 per-user composition order end to end
// with zero cross-shard coordination on the per-user path.
//
// Global disguises (null uid) touch every shard. They run through a
// two-phase barrier that generalizes the executor's shared/exclusive gate:
//   phase 1 (prepare): acquire every shard executor's exclusive gate, in
//     shard order (two concurrent globals cannot deadlock; per-user tasks
//     queue behind the gates);
//   phase 2 (commit): with the whole service quiesced, run the disguise on
//     each shard in turn, then release every gate.
// The barrier provides cross-shard ISOLATION, not atomicity: each shard's
// application commits independently (crash-consistent via its own WAL +
// journal), so a failure mid-phase-2 leaves the global disguise applied on
// a prefix of shards. The error reply names that prefix; every shard still
// audits clean on its own, and the operator resolves by re-applying or
// revealing per shard (the failure model section in DESIGN.md).
//
// Crash discipline matches BatchExecutor: a simulated crash anywhere
// freezes the whole set — all further dispatches fail, nothing flushes or
// compensates — so tests can drop the daemon mid-flight and assert that
// reopening every shard directory recovers audit-clean.
#ifndef SRC_SERVER_SHARD_H_
#define SRC_SERVER_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/core/batch.h"
#include "src/core/durable_engine.h"
#include "src/disguise/spec.h"
#include "src/sql/value.h"

namespace edna::server {

struct ShardSetOptions {
  // Fixed at directory-creation time and recorded in a manifest; reopening
  // with a different count is refused (uid routing would silently change).
  int num_shards = 1;
  // Worker threads per shard executor. 1 = inline execution.
  int threads_per_shard = 2;
  core::EngineOptions engine;
  db::DurableOptions durable;
  // Retry/backpressure tuning for the per-shard executors; num_threads and
  // drain_flush are overridden per shard.
  core::BatchOptions batch;
  // Injected for tests/benches (bit-identical replay); nullptr = SystemClock
  // owned per shard engine.
  const Clock* clock = nullptr;
  // Registered on every shard before serving starts.
  std::vector<disguise::DisguiseSpec> specs;
};

// Aggregate of one audit pass over every shard.
struct ShardAuditReport {
  size_t shards = 0;
  size_t violations = 0;
  std::string summary;  // "shard N: <violation>" lines; empty when clean

  bool ok() const { return violations == 0; }
};

class ShardSet {
 public:
  // Opens (creating if needed) `root_dir/shard-<i>` for every shard and runs
  // each through the full DurableEngine recovery pipeline. Writes/validates
  // the shard-count manifest.
  static StatusOr<std::unique_ptr<ShardSet>> Open(const std::string& root_dir,
                                                  ShardSetOptions options);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  size_t num_shards() const { return shards_.size(); }
  // uid-hash routing; uid must be non-null (globals take the barrier path).
  size_t ShardFor(const sql::Value& uid) const;
  core::DurableEngine* engine(size_t shard) { return shards_[shard].engine.get(); }
  core::BatchExecutor* executor(size_t shard) { return shards_[shard].executor.get(); }

  // Executes one task to completion: per-user tasks ride the owning shard's
  // executor (per-user FIFO, conflict retries), global tasks the two-phase
  // barrier. Blocks the calling thread; connection handlers each own a
  // thread, so the wait is the natural backpressure.
  core::BatchTaskResult Dispatch(core::BatchTask task);

  // Consistency audit across every shard (engine AuditConsistency + db
  // CheckIntegrity).
  StatusOr<ShardAuditReport> Audit();

  // Checkpoints / group-flushes every shard. Refused while frozen: frozen
  // state must stay exactly as the simulated crash left it.
  Status Checkpoint();
  Status Flush();

  // Named service counters: the dispatch-level counters, then every DbStats
  // counter summed over all shards as `db_<name>`. Extending the list is a
  // wire-compatible change (stats travel as name/value pairs).
  std::vector<std::pair<std::string, uint64_t>> Stats() const;

  bool frozen() const { return frozen_.load(); }

 private:
  struct Shard {
    std::unique_ptr<core::DurableEngine> engine;
    std::unique_ptr<core::BatchExecutor> executor;
  };

  ShardSet() = default;

  core::BatchTaskResult DispatchGlobal(core::BatchTask task);
  void Freeze() { frozen_.store(true); }

  std::vector<Shard> shards_;

  // Serializes global disguises; held across both barrier phases.
  std::mutex global_mu_;
  std::atomic<bool> frozen_{false};

  // Dispatch-level counters (shard_* names in Stats()).
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> dispatch_errors_{0};
  std::atomic<uint64_t> applies_{0};
  std::atomic<uint64_t> reveals_{0};
  std::atomic<uint64_t> globals_{0};
  std::atomic<uint64_t> conflict_retries_{0};
};

}  // namespace edna::server

#endif  // SRC_SERVER_SHARD_H_
