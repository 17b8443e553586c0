// DisguiseEngine: the disguising tool of Figure 1. Applications register
// disguise specifications once, then invoke Apply/Reveal through this API;
// the engine computes and executes the physical database changes, preserving
// referential integrity, and manages vaults, the disguise log, composition,
// and end-state assertions.
//
// Semantics implemented (paper section in parentheses):
//  * Apply (§4.1): phase-ordered execution — Decorrelate, then Modify, then
//    Remove in child-before-parent FK order — so a spec like Figure 3 never
//    has to hand-order its operations around foreign keys. One transaction.
//  * Reversibility (§4.2): reversible disguises emit a RevealRecord (the
//    reveal function) into the configured vault.
//  * Composition (§4.2, §6): before a per-user disguise runs, the engine
//    consults prior active reversible disguises' reveal records, temporarily
//    recorrelates rows that used to belong to the user, applies the new
//    disguise, and re-disguises what remains. With the decorrelation-reuse
//    optimization (§6's "manual optimization", here automated) rows the new
//    disguise would merely re-decorrelate keep their existing placeholders.
//  * Reveal (§4.2): restores vault state in reverse op order, filtering the
//    revealed data through every active disguise applied in the interim so
//    reversal never reintroduces data a later disguise hides.
//  * Assertions (§7): after applying, declared end-state predicates must
//    match zero rows, or the whole application rolls back.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/disguise_log.h"
#include "src/core/explain.h"
#include "src/core/recovery.h"
#include "src/db/database.h"
#include "src/disguise/spec.h"
#include "src/vault/vault.h"

namespace edna::core {

struct ApplyResult {
  uint64_t disguise_id = 0;
  size_t rows_removed = 0;
  size_t rows_modified = 0;
  size_t rows_decorrelated = 0;
  size_t placeholders_created = 0;
  // Composition machinery:
  bool composed = false;            // prior disguises had to be consulted
  size_t rows_recorrelated = 0;     // temporarily recorrelated via reveal fns
  size_t decorrelations_reused = 0; // placeholders kept by the optimization
  size_t vault_records_scanned = 0;
  // Database statement count attributable to this application.
  uint64_t queries = 0;
};

struct RevealResult {
  uint64_t disguise_id = 0;
  size_t rows_restored = 0;
  size_t columns_restored = 0;
  size_t placeholders_dropped = 0;
  // Interim-disguise filtering:
  size_t rows_suppressed = 0;   // stayed hidden because a later Remove covers them
  size_t values_redisguised = 0;  // restored through a later Modify/Decorrelate
  uint64_t queries = 0;
};

struct EngineOptions {
  // §6's optimization: reuse decorrelations already performed by a prior
  // disguise instead of recorrelating and re-decorrelating.
  bool reuse_decorrelation = false;
  // §7's "prohibit updates to disguised data": while a reversible disguise
  // is active, application writes (updates and deletes) to the rows it
  // transformed — and to its placeholder rows — are rejected with
  // kFailedPrecondition. The engine's own apply/reveal operations are
  // exempt. Reveal the disguise first, then modify.
  bool protect_disguised_data = false;
  // Derive each Apply/Reveal's randomness (generated values, placeholder
  // primary keys) purely from (seed, spec, uid, per-pair invocation count)
  // instead of a shared stream. Makes an operation's effect independent of
  // how concurrent operations interleave, so a parallel batch run can be
  // checked against a serial replay oracle (tests/core_batch_test.cc).
  bool deterministic_rng = false;
  uint64_t rng_seed = 0x5eed;
};

// Installed by the durable engine (src/core/durable_engine.h) so every
// commit-journal mutation is mirrored into the database's write-ahead log.
// Begin / SetDisguiseId / Advance / Complete ride standalone sidecar WAL
// records; the kCommitted advance that must be atomic with the operation's
// database commit is staged to travel inside that commit's WAL record.
class JournalDurability {
 public:
  virtual ~JournalDurability() = default;
  // Appends one journal delta (recovery.h, CommitJournal::ApplyDelta wire
  // form) as a standalone WAL record.
  virtual Status AppendJournalDelta(std::vector<uint8_t> delta) = 0;
  // Stages a delta that the calling thread's next committed database
  // transaction carries atomically inside its commit record.
  virtual void StageJournalDelta(std::vector<uint8_t> delta) = 0;
};

class DisguiseEngine {
 public:
  // `db`, `vault`, and `clock` must outlive the engine.
  DisguiseEngine(db::Database* db, vault::Vault* vault, const Clock* clock,
                 EngineOptions options = {});

  // Registers a spec after validating it against the database schema.
  Status RegisterSpec(disguise::DisguiseSpec spec);
  const disguise::DisguiseSpec* FindSpec(const std::string& name) const;
  std::vector<std::string> SpecNames() const;
  // The whole registry, for registry-wide analyses (the lifecycle verifier
  // and PII coverage run over every registered spec at once). Pointers stay
  // valid as long as the engine lives.
  std::vector<const disguise::DisguiseSpec*> Specs() const;

  // Applies a registered disguise. Per-user specs require params["UID"].
  StatusOr<ApplyResult> Apply(const std::string& spec_name, const sql::ParamMap& params);

  // Convenience: binds $UID and applies.
  StatusOr<ApplyResult> ApplyForUser(const std::string& spec_name, sql::Value uid);

  // Permanently reverses a previously applied disguise (§4.2).
  StatusOr<RevealResult> Reveal(uint64_t disguise_id);

  // Read-only dry run: reports what applying the disguise would do to the
  // current database contents (row counts per transformation, FK closure,
  // placeholders, composition involvement). Mutates nothing.
  StatusOr<ExplainReport> Explain(const std::string& spec_name, const sql::ParamMap& params);

  // --- Crash consistency (see src/core/recovery.h) -------------------------

  // Repairs the database / vault / log / journal after a crash (simulated or
  // real): rolls back any open transaction, rolls half-applied operations
  // back or forward per their journal phase, drops orphan vault records,
  // demotes reversible log entries whose vault data is gone, and rebuilds
  // the strict-mode protected-row map. Idempotent; call at startup and
  // after any Apply/Reveal that returned a simulated-crash status.
  StatusOr<RecoveryReport> Recover();

  // Standalone invariant check across all four stores. Repairs nothing.
  // After Recover(), reports zero violations. (Non-const only because vault
  // fetches update access statistics.)
  StatusOr<ConsistencyReport> AuditConsistency();

  // Rebuilds the in-memory disguise log from its DB mirror table; call once
  // after constructing an engine over a loaded database image so the audit
  // and recovery see the persisted disguise history.
  Status LoadLogFromMirror() { return log_.LoadFromMirror(); }

  // Creates the disguise log's DB mirror table if it is missing. Table
  // creation is DDL, which is not safe against concurrent applies reading
  // the schema; BatchExecutor calls this before starting its workers so
  // no apply ever triggers the on-demand creation mid-batch.
  Status EnsureLogMirror() { return log_.EnsureMirror(); }

  // Attaches the journal-durability hooks (nullptr detaches). Must be called
  // before concurrent operations start; `hooks` must outlive the engine or
  // be detached first. When attached, every journal mutation is persisted
  // through it, and a persistence failure fails the surrounding operation.
  void SetJournalDurability(JournalDurability* hooks) { journal_wal_ = hooks; }

  const DisguiseLog& log() const { return log_; }
  const CommitJournal& journal() const { return journal_; }
  CommitJournal& journal() { return journal_; }
  db::Database* database() { return db_; }
  vault::Vault* vault() { return vault_; }

  EngineOptions& options() { return options_; }

 private:
  struct ApplyContext;

  // --- Journal durability ----------------------------------------------------
  // Mirrors one journal mutation into the WAL via the attached hooks. No-op
  // without hooks (in-memory engines) or for an empty delta. Runs the
  // journal.persist fail point, so a simulated crash here freezes state with
  // the in-memory mutation applied but the delta unlogged — exactly what a
  // process death between the two would leave.
  Status PersistJournalDelta(std::vector<uint8_t> delta);

  // Stages the kCommitted advance to ride the next db commit on this thread.
  void StageCommittedAdvance(uint64_t journal_id);

  // Retires a journal entry durably: persists the complete delta FIRST, and
  // only erases the in-memory entry once the delta is logged, so memory
  // never runs ahead of disk. On failure the entry stays pending (in both)
  // for Recover() to finish. Returns the persistence status.
  Status RetireJournalEntry(uint64_t journal_id);

  // Maps row-level kNotFound / kIntegrityViolation — races with concurrently
  // COMMITTED transactions that write intents cannot catch — to kAborted, so
  // batch executors retry and the retry reproduces the serial-schedule
  // outcome. Applied wherever the apply and reveal paths touch a selected row.
  static Status RaceToAborted(const Status& s);

  // --- Apply phases ---------------------------------------------------------
  // Clean-abort compensation: drops stored vault shards, the log entry, and
  // row protection for a failed apply, rolls the transaction back, completes
  // the journal entry, and returns `cause` annotated with any secondary
  // failures (double faults are logged and surfaced, never swallowed). If a
  // compensation step reports a simulated crash, returns immediately with
  // the journal entry left pending for Recover().
  Status UnwindFailedApply(uint64_t journal_id, uint64_t disguise_id, Status cause);

  Status RunDecorrelates(ApplyContext* ctx);
  Status RunModifies(ApplyContext* ctx);
  Status RunRemoves(ApplyContext* ctx);
  Status CheckAssertions(const disguise::DisguiseSpec& spec, const sql::ParamMap& params);

  // Creates one placeholder row per the table's recipe; returns its PK
  // value. `owner` tags the reveal op with the identity being detached (so
  // global disguises can shard their reveal records per user).
  StatusOr<sql::Value> CreatePlaceholder(ApplyContext* ctx, const std::string& table,
                                         const sql::Value& owner);

  // Counts the rows a Delete or DeleteRow removed and, for a reversible
  // spec, records one reveal op per reported change in report order: the
  // database's FK walk removes children and nulls references before the row
  // they depend on, so a reverse-order reveal restores parents first.
  void RecordRemoved(ApplyContext* ctx, std::vector<db::DeleteChange> removed);

  // Tables of the spec's Removes in child-before-parent order.
  StatusOr<std::vector<std::string>> RemoveOrder(const disguise::DisguiseSpec& spec) const;

  // --- Composition ----------------------------------------------------------
  // Scans prior active reversible disguises for rows formerly associated
  // with ctx->uid, recorrelates them, and populates ctx->recorrelated.
  Status RecorrelateForUser(ApplyContext* ctx);
  // Re-disguises recorrelated rows the new disguise did not consume.
  Status RedisguiseLeftovers(ApplyContext* ctx);
  // Composition fallback when the identity row itself was removed by a prior
  // disguise: act on the hypothetical recorrelated row without writing it.
  Status VirtualRecorrelate(ApplyContext* ctx, const std::string& table, db::RowId row_id,
                            const std::string& column);

  // --- Reveal helpers ---------------------------------------------------------
  struct InterimTransform;
  std::vector<InterimTransform> CollectInterimTransforms(uint64_t disguise_id) const;

  // --- Per-operation randomness ----------------------------------------------
  // Every Apply/Reveal draws from its own Rng. Legacy mode forks it off the
  // shared stream (under rng_mu_); deterministic mode derives it from
  // (rng_seed, kind, spec, uid, success count) — retries of an aborted
  // operation reuse the same stream because the count only advances on
  // success (CommitOpSeq).
  Rng OpRng(char kind, const std::string& spec_name, const sql::Value& uid);
  void CommitOpSeq(char kind, const std::string& spec_name, const sql::Value& uid);

  // InsertValues wrapper for placeholder rows: in deterministic mode, draws
  // the row's auto-increment PK from `rng` (sparse 2^40+ range, redrawn on
  // collision) so placeholder identity does not depend on the global
  // auto-increment counter's interleaving.
  StatusOr<db::RowId> InsertPlaceholderRow(const std::string& table,
                                           std::map<std::string, sql::Value> values,
                                           Rng* rng);

  // --- Strict mode (§7) -------------------------------------------------------
  // Rows owned by active reversible disguises; the installed WriteGuard
  // rejects application writes to them unless the calling thread is inside
  // an engine operation.
  void ProtectRows(uint64_t disguise_id, const vault::RevealRecord& record);
  void UnprotectRows(uint64_t disguise_id);
  void EnsureGuardInstalled();

  // Per-thread engine-operation depth (the guard exemption must not leak to
  // other threads' application writes running concurrently with an apply).
  void EnterEngineOp();
  void ExitEngineOp();
  bool InEngineOp() const;

  class EngineOpScope;  // RAII: marks engine-internal mutations guard-exempt

  db::Database* db_;
  vault::Vault* vault_;
  const Clock* clock_;
  EngineOptions options_;

  // Lock hierarchy inside the engine: guard_mu_ -> (db catalog, via
  // SetWriteGuard); any db stripe -> prot_mu_ (the write guard takes it);
  // rng_mu_ and seq_mu_ are leaves. None is ever held across an engine phase.
  mutable std::mutex rng_mu_;
  Rng rng_;             // legacy shared stream; forked per op under rng_mu_
  uint64_t rng_stream_ = 0;

  mutable std::mutex seq_mu_;
  std::map<std::string, uint64_t> op_seq_;  // "kind:spec:uid" -> successes

  DisguiseLog log_;
  CommitJournal journal_;
  JournalDurability* journal_wal_ = nullptr;
  std::map<std::string, disguise::DisguiseSpec> specs_;  // frozen before batching

  std::mutex guard_mu_;
  bool guard_installed_ = false;

  mutable std::mutex prot_mu_;  // leaf: guards the two maps below
  std::map<std::pair<std::string, db::RowId>, int> protected_rows_;  // refcount
  std::map<uint64_t, std::vector<std::pair<std::string, db::RowId>>> protected_by_disguise_;
};

}  // namespace edna::core

#endif  // SRC_CORE_ENGINE_H_
