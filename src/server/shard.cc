#include "src/server/shard.h"

#include <algorithm>
#include <functional>
#include <future>

#include "src/common/failpoint.h"
#include "src/common/file.h"
#include "src/common/strings.h"

namespace edna::server {

namespace {

constexpr char kManifestName[] = "shards.manifest";

// The manifest pins the shard count: reopening a 4-shard directory as
// 2 shards would re-route half the users to shards that never saw them.
Status CheckOrWriteManifest(const std::string& root, int num_shards) {
  const std::string path = root + "/" + kManifestName;
  StatusOr<std::vector<uint8_t>> manifest = ReadFile(path);
  if (manifest.ok()) {
    const std::string line(manifest->begin(),
                           std::find(manifest->begin(), manifest->end(), '\n'));
    uint64_t recorded = 0;
    if (!ParseUint64(StrTrim(line), &recorded)) {
      return InvalidArgument(StrFormat("%s: unreadable shard count \"%s\"", path.c_str(),
                                       line.c_str()));
    }
    if (recorded != static_cast<uint64_t>(num_shards)) {
      return InvalidArgument(StrFormat(
          "%s holds %llu shard(s) but the server was asked for %d; uid routing is "
          "pinned at creation time",
          root.c_str(), static_cast<unsigned long long>(recorded), num_shards));
    }
    return OkStatus();
  }
  if (manifest.status().code() != StatusCode::kNotFound) {
    return manifest.status();
  }
  const std::string line = std::to_string(num_shards) + "\n";
  return WriteFileAtomically(path, std::vector<uint8_t>(line.begin(), line.end()));
}

}  // namespace

StatusOr<std::unique_ptr<ShardSet>> ShardSet::Open(const std::string& root_dir,
                                                   ShardSetOptions options) {
  if (options.num_shards < 1) {
    return InvalidArgument(StrFormat("num_shards must be >= 1 (got %d)",
                                     options.num_shards));
  }
  RETURN_IF_ERROR(MakeDir(root_dir));
  RETURN_IF_ERROR(CheckOrWriteManifest(root_dir, options.num_shards));

  auto set = std::unique_ptr<ShardSet>(new ShardSet());
  set->shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    core::DurableEngineOptions dopts;
    dopts.durable = options.durable;
    dopts.engine = options.engine;
    dopts.clock = options.clock;
    core::DurableEngineReport report;
    ASSIGN_OR_RETURN(std::unique_ptr<core::DurableEngine> engine,
                     core::DurableEngine::Open(
                         StrFormat("%s/shard-%d", root_dir.c_str(), i), dopts, &report));
    for (const disguise::DisguiseSpec& spec : options.specs) {
      RETURN_IF_ERROR(engine->engine()->RegisterSpec(spec));
    }
    core::BatchOptions batch = options.batch;
    batch.num_threads = options.threads_per_shard;
    batch.drain_flush = nullptr;  // the daemon flushes via Flush()/Checkpoint()
    Shard shard;
    shard.executor = std::make_unique<core::BatchExecutor>(engine->engine(), batch);
    shard.engine = std::move(engine);
    set->shards_.push_back(std::move(shard));
  }
  return set;
}

// Executors first: they drain their queues against still-live engines.
ShardSet::~ShardSet() {
  for (Shard& shard : shards_) {
    shard.executor.reset();
    shard.engine.reset();
  }
}

size_t ShardSet::ShardFor(const sql::Value& uid) const {
  return std::hash<std::string>{}(uid.ToSqlString()) % shards_.size();
}

core::BatchTaskResult ShardSet::Dispatch(core::BatchTask task) {
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  (task.kind == core::BatchTask::Kind::kApply ? applies_ : reveals_)
      .fetch_add(1, std::memory_order_relaxed);

  core::BatchTaskResult result;
  result.task = task;
  Status injected = FailPoints::Instance().Check(failpoints::kServerDispatch);
  if (!injected.ok()) {
    if (FailPoints::IsSimulatedCrash(injected)) {
      Freeze();
    }
    dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
    result.status = injected;
    return result;
  }
  if (frozen_.load()) {
    dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
    result.status = FailedPrecondition(
        "service frozen by a simulated crash; restart the daemon to recover");
    return result;
  }

  if (task.uid.is_null()) {
    return DispatchGlobal(std::move(task));
  }

  size_t shard = ShardFor(task.uid);
  std::promise<core::BatchTaskResult> done;
  std::future<core::BatchTaskResult> future = done.get_future();
  shards_[shard].executor->Submit(
      std::move(task),
      [&done](const core::BatchTaskResult& r) { done.set_value(r); });
  result = future.get();
  if (result.attempts > 1) {
    conflict_retries_.fetch_add(static_cast<uint64_t>(result.attempts - 1),
                                std::memory_order_relaxed);
  }
  if (FailPoints::IsSimulatedCrash(result.status)) {
    Freeze();
  }
  if (!result.status.ok()) {
    dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

core::BatchTaskResult ShardSet::DispatchGlobal(core::BatchTask task) {
  globals_.fetch_add(1, std::memory_order_relaxed);
  core::BatchTaskResult result;
  result.task = task;

  std::lock_guard<std::mutex> serialize(global_mu_);

  // Phase 1 (prepare): quiesce the whole service. Gates are acquired in
  // shard order; each acquisition waits for that shard's in-flight tasks.
  Status injected = FailPoints::Instance().Check(failpoints::kServerBarrier);
  if (!injected.ok()) {
    if (FailPoints::IsSimulatedCrash(injected)) {
      Freeze();
    }
    dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
    result.status = injected;
    return result;
  }
  std::vector<std::unique_lock<std::shared_mutex>> leases;
  leases.reserve(shards_.size());
  for (Shard& shard : shards_) {
    leases.push_back(shard.executor->AcquireExclusive());
  }

  // Phase 2 (commit): every shard is quiesced; run the disguise shard by
  // shard. The same fail point checked again here lets a one-shot schedule
  // crash exactly between the phases.
  injected = FailPoints::Instance().Check(failpoints::kServerBarrier);
  if (!injected.ok()) {
    if (FailPoints::IsSimulatedCrash(injected)) {
      Freeze();
    }
    dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
    result.status = injected;
    return result;
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    core::BatchTaskResult shard_result;
    shards_[i].executor->RunInline(task, &shard_result);
    if (FailPoints::IsSimulatedCrash(shard_result.status)) {
      Freeze();
    }
    if (!shard_result.status.ok()) {
      // Per-shard commits are independent: shards [0, i) keep the disguise.
      // Name the prefix so the operator can finish or reverse it per shard.
      dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
      result.status = Status(
          shard_result.status.code(),
          StrFormat("global \"%s\" failed on shard %zu after %zu shard(s) applied: %s",
                    task.spec_name.c_str(), i, i,
                    shard_result.status.message().c_str()));
      return result;
    }
    if (i == 0) {
      result.disguise_id = shard_result.disguise_id;
      result.attempts = shard_result.attempts;
    }
    result.queries += shard_result.queries;
    result.rows_touched += shard_result.rows_touched;
  }
  result.status = OkStatus();
  return result;
}

StatusOr<ShardAuditReport> ShardSet::Audit() {
  ShardAuditReport report;
  report.shards = shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    ASSIGN_OR_RETURN(core::ConsistencyReport audit,
                     shards_[i].engine->engine()->AuditConsistency());
    for (const std::string& violation : audit.violations) {
      ++report.violations;
      report.summary += StrFormat("shard %zu: %s\n", i, violation.c_str());
    }
    Status integrity = shards_[i].engine->db()->CheckIntegrity();
    if (!integrity.ok()) {
      ++report.violations;
      report.summary += StrFormat("shard %zu: %s\n", i, integrity.ToString().c_str());
    }
  }
  return report;
}

Status ShardSet::Checkpoint() {
  if (frozen_.load()) {
    return FailedPrecondition("service frozen by a simulated crash; nothing may flush");
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status s = shards_[i].engine->Checkpoint();
    if (!s.ok()) {
      return Status(s.code(), StrFormat("shard %zu: %s", i, s.message().c_str()));
    }
  }
  return OkStatus();
}

Status ShardSet::Flush() {
  if (frozen_.load()) {
    return FailedPrecondition("service frozen by a simulated crash; nothing may flush");
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status s = shards_[i].engine->Flush();
    if (!s.ok()) {
      return Status(s.code(), StrFormat("shard %zu: %s", i, s.message().c_str()));
    }
  }
  return OkStatus();
}

std::vector<std::pair<std::string, uint64_t>> ShardSet::Stats() const {
  db::DbStats total;
  uint64_t rows = 0;
  uint64_t active_disguises = 0;
  for (const Shard& shard : shards_) {
    const db::DbStats snapshot = shard.engine->db()->stats();
    for (const db::DbStatsCounter& c : db::kDbStatsCounters) {
      total.*c.counter += (snapshot.*c.counter).load(std::memory_order_relaxed);
    }
    rows += shard.engine->db()->TotalRows();
    active_disguises += shard.engine->engine()->log().size();
  }
  auto load = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::vector<std::pair<std::string, uint64_t>> out = {
      {"shards", shards_.size()},
      {"total_rows", rows},
      {"active_disguises", active_disguises},
      {"dispatched", load(dispatched_)},
      {"dispatch_errors", load(dispatch_errors_)},
      {"applies", load(applies_)},
      {"reveals", load(reveals_)},
      {"globals", load(globals_)},
      {"conflict_retries", load(conflict_retries_)},
      {"frozen", frozen_.load() ? 1u : 0u},
  };
  for (const db::DbStatsCounter& c : db::kDbStatsCounters) {
    out.emplace_back(std::string("db_") + c.name, load(total.*c.counter));
  }
  return out;
}

}  // namespace edna::server
