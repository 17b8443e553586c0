// Persistent disguise log (§4.2): "the tool keeps a persistent log of all
// disguises the application applied, and re-applies disguises from the
// relevant log interval to the revealed data." Entries record which spec ran,
// with which parameters, when, and whether it is still active (not yet
// reverted). The log is mirrored into a reserved table of the application
// database, matching Edna's "disguise history table".
#ifndef SRC_CORE_DISGUISE_LOG_H_
#define SRC_CORE_DISGUISE_LOG_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/db/database.h"
#include "src/sql/eval.h"

namespace edna::core {

inline constexpr char kDisguiseLogTableName[] = "__edna_disguise_log";

struct LogEntry {
  uint64_t id = 0;
  std::string spec_name;
  sql::ParamMap params;     // bindings used at apply time ($UID etc.)
  sql::Value user_id;       // Null for global disguises
  TimePoint applied_at = 0;
  bool reversible = false;
  bool active = true;       // false once permanently revealed
};

// Thread-safe: an internal mutex guards the entry list, held across the DB
// mirror write so log order and mirror order agree (lock order: log mutex
// before any db lock; the Database never calls back into the log).
//
// The pointer-returning accessors (Find, entries) are for single-threaded
// use: returned pointers are invalidated by a concurrent Append. Concurrent
// callers (the batch executor) use the *Copy accessors.
class DisguiseLog {
 public:
  // Mirrors entries into `db` (reserved table created on demand); `db` may
  // be nullptr for a purely in-memory log.
  explicit DisguiseLog(db::Database* db);

  StatusOr<uint64_t> Append(std::string spec_name, sql::ParamMap params, sql::Value user_id,
                            TimePoint applied_at, bool reversible);

  Status MarkRevealed(uint64_t id);

  // Unwind- and recovery-path removal: erases the entry wherever it sits
  // and deletes its DB mirror row if one survived (the transaction rollback
  // usually already unwound it). The id is never handed out again by this
  // process; after a reopen, LoadFromMirror may reuse it, which is safe
  // because DurableEngine::Open runs Recover() before any apply.
  Status DropEntry(uint64_t id);

  // Recovery-path demotion: clears the reversible flag of an entry whose
  // vault records are gone (expired or dropped by crash recovery), so the
  // consistency audit no longer expects reveal records for it.
  Status MarkIrreversible(uint64_t id);

  // Rebuilds the in-memory log from the DB mirror table, for processes that
  // load a previously saved database image. Apply-time parameter bindings are
  // not mirrored and come back empty; everything the consistency audit and
  // recovery need (ids, spec names, flags) round-trips. No-op without a
  // mirror table. Fails if the log already has in-memory entries.
  Status LoadFromMirror();

  // Creates the mirror table now if it does not exist. Appends normally
  // create it on demand, but that is DDL — a schema mutation concurrent
  // apply paths would race with — so parallel executors call this from a
  // single-threaded point before any worker starts.
  Status EnsureMirror();

  const LogEntry* Find(uint64_t id) const;
  const std::vector<LogEntry>& entries() const { return entries_; }

  // Concurrency-safe copies: the entry `id`, and the active entries with
  // id > `after_id` in apply order (the "relevant log interval" re-applied
  // to revealed data).
  std::optional<LogEntry> FindCopy(uint64_t id) const;
  std::vector<LogEntry> ActiveAfterCopy(uint64_t after_id) const;

  // Most recent ACTIVE entry for (spec, uid), if any. Lets a batch reveal
  // task name a disguise by what it means ("the GDPR disguise of user 7")
  // instead of by an id assigned concurrently.
  std::optional<LogEntry> LatestActiveFor(const std::string& spec_name,
                                          const sql::Value& uid) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  Status MirrorAppend(const LogEntry& e);
  Status MirrorMarkRevealed(uint64_t id);

  db::Database* db_;
  mutable std::mutex mu_;
  std::vector<LogEntry> entries_;
  uint64_t next_id_ = 1;
};

}  // namespace edna::core

#endif  // SRC_CORE_DISGUISE_LOG_H_
