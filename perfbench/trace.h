// Span recording for the perfbench harness, plus the decorators that put
// spans around the calls the engine makes into its lower layers.
//
// The harness cannot reach inside the engine, so each layer is timed at a
// seam the library already exposes: the vault interface (vault::Vault), the
// database's durability sink (db::WalSink, i.e. WAL append and fsync wait)
// and the engine's commit-journal hooks (core::JournalDurability). Each
// decorator forwards every call unchanged and records one span per call.
// Decorators are installed only for traced runs (--trace 1); untraced runs
// talk to the real layers directly, so end-to-end numbers carry no tracing
// cost.
//
// Spans stay in memory and are written out as JSON lines when the run ends.
// A span's parent is the operation span open on the same thread, if any; a
// layer call made on another thread (batch workers, daemon shards) has no
// parent and is attributed to the run as a whole.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/db/database.h"
#include "src/vault/vault.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = no enclosing operation on this thread
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span on the calling thread (a null tracer records nothing).
  // Operation spans become the parent of spans opened on the same thread
  // until they close.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, bool is_op = false)
        : tracer_(tracer), is_op_(is_op) {
      if (tracer_ == nullptr) return;
      span_.name = name;
      span_.id = tracer_->NextId();
      span_.parent = current_op_;
      if (is_op_) current_op_ = span_.id;
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      span_.end_ns = NowNs();
      if (is_op_) current_op_ = span_.parent;
      tracer_->Record(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    bool is_op_;
    Span span_;
  };

  // Records an operation span whose interval was measured elsewhere (a
  // batch task starts on the submitting thread and ends on a worker).
  void RecordInterval(const char* name, int64_t start_ns, int64_t end_ns) {
    Record(Span{name, NextId(), 0, start_ns, end_ns});
  }

  // Total duration (ms) and count of spans per name.
  std::map<std::string, std::pair<double, uint64_t>> Totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, std::pair<double, uint64_t>> totals;
    for (const Span& s : spans_) {
      auto& [ms, count] = totals[s.name];
      ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      ++count;
    }
    return totals;
  }

  // One JSON object per line: name, id, parent, start/end in ns.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  static inline thread_local uint64_t current_op_ = 0;

  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

// vault::Vault decorator: one "vault" span per data-path call.
class TracedVault : public edna::vault::Vault {
 public:
  TracedVault(edna::vault::Vault* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  std::string ModelName() const override { return inner_->ModelName(); }
  edna::Status Store(const edna::vault::RevealRecord& record) override {
    Tracer::Scope span(tracer_, "vault");
    return inner_->Store(record);
  }
  edna::Status StoreBatch(const std::vector<edna::vault::RevealRecord>& records) override {
    Tracer::Scope span(tracer_, "vault");
    return inner_->StoreBatch(records);
  }
  edna::StatusOr<std::vector<edna::vault::RevealRecord>> FetchForUser(
      const edna::sql::Value& uid) override {
    Tracer::Scope span(tracer_, "vault");
    return inner_->FetchForUser(uid);
  }
  edna::StatusOr<std::vector<edna::vault::RevealRecord>> FetchForDisguise(
      uint64_t disguise_id) override {
    Tracer::Scope span(tracer_, "vault");
    return inner_->FetchForDisguise(disguise_id);
  }
  edna::StatusOr<std::vector<edna::vault::RevealRecord>> FetchGlobal() override {
    Tracer::Scope span(tracer_, "vault");
    return inner_->FetchGlobal();
  }
  edna::Status Remove(uint64_t disguise_id) override {
    Tracer::Scope span(tracer_, "vault");
    return inner_->Remove(disguise_id);
  }
  edna::StatusOr<std::vector<uint64_t>> ListDisguiseIds() const override {
    return inner_->ListDisguiseIds();
  }
  edna::StatusOr<size_t> ExpireBefore(edna::TimePoint cutoff) override {
    return inner_->ExpireBefore(cutoff);
  }
  size_t NumRecords() const override { return inner_->NumRecords(); }
  edna::vault::VaultStats CombinedStats() const override { return inner_->CombinedStats(); }

 private:
  edna::vault::Vault* inner_;
  Tracer* tracer_;
};

// db::WalSink decorator: "wal_append" spans around commit and DDL appends,
// "wal_sync" spans around the post-commit durability (fsync) wait.
class TracedWalSink : public edna::db::WalSink {
 public:
  TracedWalSink(edna::db::WalSink* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  edna::StatusOr<uint64_t> AppendCommit(edna::db::WalCommit commit) override {
    Tracer::Scope span(tracer_, "wal_append");
    return inner_->AppendCommit(std::move(commit));
  }
  edna::StatusOr<uint64_t> AppendDdl(const edna::db::WalRecord& record) override {
    Tracer::Scope span(tracer_, "wal_append");
    return inner_->AppendDdl(record);
  }
  edna::Status SyncCommit(uint64_t lsn) override {
    Tracer::Scope span(tracer_, "wal_sync");
    return inner_->SyncCommit(lsn);
  }
  uint64_t AppendedLsn() const override { return inner_->AppendedLsn(); }
  void OnRollback() override { inner_->OnRollback(); }

 private:
  edna::db::WalSink* inner_;
  Tracer* tracer_;
};

// core::JournalDurability decorator: one "journal" span per persisted or
// staged commit-journal delta.
class TracedJournal : public edna::core::JournalDurability {
 public:
  TracedJournal(edna::core::JournalDurability* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  edna::Status AppendJournalDelta(std::vector<uint8_t> delta) override {
    Tracer::Scope span(tracer_, "journal");
    return inner_->AppendJournalDelta(std::move(delta));
  }
  void StageJournalDelta(std::vector<uint8_t> delta) override {
    Tracer::Scope span(tracer_, "journal");
    inner_->StageJournalDelta(std::move(delta));
  }

 private:
  edna::core::JournalDurability* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
