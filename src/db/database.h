// Database: the application-facing relational engine.
//
// Responsibilities beyond Table:
//  * cross-table referential integrity (FK existence on writes, delete
//    actions RESTRICT / CASCADE / SET NULL),
//  * predicate-driven DML (select / update / delete with SQL WHERE clauses,
//    planned through equality indexes when possible),
//  * transactions: explicit Begin/Commit/Rollback plus implicit per-statement
//    atomicity, implemented with an undo log,
//  * query statistics (statement and row-touch counters) used by the paper's
//    linear-scaling experiment,
//  * whole-database snapshot/restore for benchmarks,
//  * thread safety for parallel batch disguising (see DESIGN.md, "Parallel
//    disguising"): striped shared_mutex locking at table granularity, a
//    per-thread transaction/undo state, and first-writer-wins row intents
//    that turn write-write conflicts into retryable kAborted statuses.
//
// Concurrency model in one paragraph: every statement acquires the stripes
// covering the tables it touches — shared for reads, exclusive for writes —
// in ascending stripe order (deadlock-free), holds them for the statement,
// and releases them at statement end. Transactions therefore do NOT hold
// table locks between statements; isolation across transactions comes from
// row-level write intents: the first transaction to write a row owns it
// until commit/rollback, and any other transaction writing the same row
// gets kAborted immediately (no blocking, hence no deadlock). Readers are
// never blocked by intents, so reads are "read committed at best" — the
// disguise engine's batch workloads partition writes by user, which is what
// makes this sufficient (see DESIGN.md for the precise claim). The stripe
// sets, like the FK links a cascade follows, are derived once per catalog
// change, not per statement.
#ifndef SRC_DB_DATABASE_H_
#define SRC_DB_DATABASE_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/db/pagecache.h"
#include "src/db/plan.h"
#include "src/db/schema.h"
#include "src/db/table.h"
#include "src/db/wal.h"
#include "src/sql/ast.h"
#include "src/sql/eval.h"

namespace edna::db {

// Statement / row-touch counters. "Queries" counts logical statements the
// way a SQL client would issue them: one per select, insert, row-level write
// and BatchSetColumns (the engine's one UPDATE per Modify or Decorrelate).
// A predicate Update or Delete counts its SELECT plus one statement per row
// it writes; a deleted row's FK cascades and SET NULLs ride on its DELETE.
// Row-level reads (GetRow, GetColumn, ...) are not statements.
//
// Counters are atomics so concurrent statements account exactly (no lost
// increments); the copy operations take a relaxed snapshot so existing
// by-value uses (`DbStats before = db.stats();`) keep compiling.
struct DbStats {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> rows_read{0};
  std::atomic<uint64_t> rows_inserted{0};
  std::atomic<uint64_t> rows_updated{0};
  std::atomic<uint64_t> rows_deleted{0};
  std::atomic<uint64_t> index_lookups{0};
  // Predicate-bearing statements that had to scan the whole table. Reads
  // with no WHERE clause at all (NumRecords-style whole-table reads) are
  // deliberate and do NOT count.
  std::atomic<uint64_t> full_scans{0};
  // Candidate rows the residual filter evaluated (per-row predicate work;
  // an effective plan keeps this close to the matching-row count).
  std::atomic<uint64_t> rows_examined{0};
  std::atomic<uint64_t> plan_cache_hits{0};
  std::atomic<uint64_t> plan_cache_misses{0};
  std::atomic<uint64_t> range_probes{0};
  // Page cache (src/db/pagecache.h). resident_bytes is a gauge (current
  // resident payload bytes), the others are monotone counters.
  std::atomic<uint64_t> page_hits{0};
  std::atomic<uint64_t> page_misses{0};
  std::atomic<uint64_t> page_evictions{0};
  std::atomic<uint64_t> page_writebacks{0};
  std::atomic<uint64_t> resident_bytes{0};

  DbStats() = default;
  DbStats(const DbStats& o) { *this = o; }
  // Atomics are not copyable: copies each counter in kDbStatsCounters.
  DbStats& operator=(const DbStats& o);

  void Reset() { *this = DbStats{}; }
};

// Every DbStats counter once, with its name, in export order. The copy, the
// sum across shards and the daemon's `db_<name>` export all walk this list;
// DbPlannerTest.StatsCopyRoundTripsEveryCounter fails on a counter it misses.
struct DbStatsCounter {
  const char* name;
  std::atomic<uint64_t> DbStats::*counter;
};
inline constexpr DbStatsCounter kDbStatsCounters[] = {
    {"queries", &DbStats::queries},
    {"rows_read", &DbStats::rows_read},
    {"rows_inserted", &DbStats::rows_inserted},
    {"rows_updated", &DbStats::rows_updated},
    {"rows_deleted", &DbStats::rows_deleted},
    {"index_lookups", &DbStats::index_lookups},
    {"full_scans", &DbStats::full_scans},
    {"rows_examined", &DbStats::rows_examined},
    {"plan_cache_hits", &DbStats::plan_cache_hits},
    {"plan_cache_misses", &DbStats::plan_cache_misses},
    {"range_probes", &DbStats::range_probes},
    {"page_hits", &DbStats::page_hits},
    {"page_misses", &DbStats::page_misses},
    {"page_evictions", &DbStats::page_evictions},
    {"page_writebacks", &DbStats::page_writebacks},
    {"resident_bytes", &DbStats::resident_bytes},
};

inline DbStats& DbStats::operator=(const DbStats& o) {
  for (const DbStatsCounter& c : kDbStatsCounters) {
    (this->*c.counter).store((o.*c.counter).load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  }
  return *this;
}

// One column assignment in an UPDATE: column <- expression (evaluated per
// row; the expression may reference the row's current columns and params).
struct Assignment {
  std::string column;
  sql::ExprPtr expr;
};

// One change a Delete or DeleteRow made: a removed row (`column` empty, `row`
// its image) or a reference its FK walk SET NULL (`column` names it,
// `old_value` is what it held).
struct DeleteChange {
  std::string table;
  RowId id = kInvalidRowId;
  std::string column;
  Row row;
  sql::Value old_value;
};

// Pre-write hook consulted before any row mutation (update or delete).
// Returning a non-OK status vetoes the mutation (and, through the statement
// scope, unwinds the enclosing statement). Used by the disguise engine's
// strict mode to prohibit application updates to disguised data (§7).
// `column` is empty for whole-row operations (delete/restore).
//
// The guard runs while the statement's table locks are held; it must not
// call back into the Database (lock hierarchy: stripes before guard state).
using WriteGuard = std::function<Status(const std::string& table, RowId id,
                                        const std::string& column)>;

// Durability sink, implemented by the durable layer (src/db/durable.h). The
// Database stays storage-agnostic: with a sink attached, every commit hands
// over its net row changes (physical redo) BEFORE releasing write intents —
// so the log order of any one row equals its commit order — and every DDL
// entry point writes ahead before mutating the catalog.
//
// Locking contract: AppendCommit runs while the committing statement's table
// locks are held (it must only append, never fsync); AppendDdl runs under
// the exclusive catalog lock; SyncCommit runs with NO Database locks held
// (group commit may block for the flush window); OnRollback runs from
// Rollback/RollbackAll so the sink can discard per-thread staged state.
class WalSink {
 public:
  virtual ~WalSink() = default;
  virtual StatusOr<uint64_t> AppendCommit(WalCommit commit) = 0;
  virtual StatusOr<uint64_t> AppendDdl(const WalRecord& record) = 0;
  virtual Status SyncCommit(uint64_t lsn) = 0;
  virtual uint64_t AppendedLsn() const = 0;
  virtual void OnRollback() = 0;
};

class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- DDL -----------------------------------------------------------------
  // DDL takes the catalog lock exclusively, so it must not run concurrently
  // with itself from inside a transaction (AddColumnToTable checks).

  // Adds a table. FK targets must already exist or arrive before first use;
  // Validate() checks the full catalog.
  Status CreateTable(TableSchema schema);

  // Creates every table of `schema` (validated as a whole first).
  Status AdoptSchema(const Schema& schema);

  // Schema evolution (§7): appends a column to an existing table, filling
  // current rows with `fill`. Disallowed inside a transaction and on
  // reserved tables. Reveal records written before the evolution remain
  // replayable: restored rows are padded with the new columns' defaults.
  Status AddColumnToTable(const std::string& table, ColumnDef col, sql::Value fill);

  // Builds (and backfills) a secondary equality index.
  Status CreateIndex(const std::string& table, const std::string& column);

  const Schema& schema() const { return schema_; }
  bool HasTable(const std::string& name) const { return FindTable(name) != nullptr; }

  // Raw table access. The returned pointer is stable (tables are never
  // dropped), but reading rows through it is NOT synchronized against
  // concurrent writers; concurrent callers must use the locked row APIs
  // (RowExists / GetRow / Select) instead.
  const Table* FindTable(const std::string& name) const;

  // --- DML -----------------------------------------------------------------

  // Positional insert; NULL auto-increment columns are assigned.
  StatusOr<RowId> Insert(const std::string& table, Row row);

  // Named-column insert; unspecified columns take their default (or NULL for
  // nullable / auto-increment columns).
  StatusOr<RowId> InsertValues(const std::string& table,
                               const std::map<std::string, sql::Value>& values);

  // Rows matching `pred` (nullptr = all rows). Results reference live storage
  // and are invalidated by any mutation of the same rows — under concurrency
  // only the owning transaction's rows are stable (write intents keep other
  // writers out of them). Readers racing with arbitrary writers should use
  // SelectRows instead. With a page cache attached, a concurrent thread's
  // statement-end eviction may additionally clear referenced payloads of
  // rows NOT owned by an open transaction — callers that dereference
  // `row` (not just `id`) outside a transaction must use SelectRowsWithIds.
  StatusOr<std::vector<RowRef>> Select(const std::string& table, const sql::Expr* pred,
                                       const sql::ParamMap& params) const;

  // Like Select but returns row COPIES made while the table lock is held,
  // so the result stays valid regardless of concurrent writers.
  StatusOr<std::vector<Row>> SelectRows(const std::string& table, const sql::Expr* pred,
                                        const sql::ParamMap& params) const;

  // SelectRows variant that keeps the row ids (copies made under the lock;
  // safe against concurrent writers AND page-cache eviction).
  StatusOr<std::vector<std::pair<RowId, Row>>> SelectRowsWithIds(
      const std::string& table, const sql::Expr* pred, const sql::ParamMap& params) const;

  // Count of matching rows without materializing.
  StatusOr<size_t> Count(const std::string& table, const sql::Expr* pred,
                         const sql::ParamMap& params) const;

  // Applies `assignments` to each matching row; returns rows updated.
  StatusOr<size_t> Update(const std::string& table, const sql::Expr* pred,
                          const sql::ParamMap& params,
                          const std::vector<Assignment>& assignments);

  // Deletes matching rows (running FK delete actions); returns rows deleted.
  // When the call succeeds, a non-null `report` holds every change the
  // statement made, in the order its FK walk made it: a row's CASCADE
  // children are removed and its SET NULL references cleared before the row
  // itself, child FKs in schema-then-declaration order, siblings in
  // ascending RowId order. A statement whose walk fails writes no report.
  StatusOr<size_t> Delete(const std::string& table, const sql::Expr* pred,
                          const sql::ParamMap& params,
                          std::vector<DeleteChange>* report = nullptr);

  // One pre-computed column write within a batch statement.
  struct BatchUpdate {
    RowId id;
    std::string column;
    sql::Value value;
  };

  // Applies many single-column writes as ONE logical statement (one query,
  // n row writes): the multi-row UPDATE the disguise engine issues once per
  // Modify or Decorrelate transformation (the paper's §6 batching). Every
  // column is resolved before the statement counts; FK checks apply per
  // write, and a failed write unwinds the whole statement. The values move
  // into the rows, so pass `updates` as an rvalue to avoid copying them.
  StatusOr<size_t> BatchSetColumns(const std::string& table,
                                   std::vector<BatchUpdate> updates);

  // --- Row-level operations (disguise engine fast paths) --------------------

  StatusOr<sql::Value> GetColumn(const std::string& table, RowId id,
                                 const std::string& column) const;
  StatusOr<Row> GetRow(const std::string& table, RowId id) const;

  // Locked existence probe (safe replacement for FindTable()->Contains()
  // under concurrency). False for unknown tables.
  bool RowExists(const std::string& table, RowId id) const;

  // Single-column write: the one-row case of BatchSetColumns.
  Status SetColumn(const std::string& table, RowId id, const std::string& column,
                   sql::Value value);

  // Deletes one row, applying FK delete actions recursively; `report` as
  // for Delete.
  Status DeleteRow(const std::string& table, RowId id,
                   std::vector<DeleteChange>* report = nullptr);

  // Re-inserts a row with a known id (reveal/restore path); FK-checked.
  Status RestoreRow(const std::string& table, RowId id, Row row);

  // Image-load path: inserts a row with a known id WITHOUT foreign-key
  // checks (rows may forward-reference during a load). Callers MUST run
  // CheckIntegrity() after the last BulkLoadRow; db/storage.cc does.
  Status BulkLoadRow(const std::string& table, RowId id, Row row);

  // Image-load path: raises a table's auto-increment counter.
  Status EnsureAutoCounterAtLeast(const std::string& table, int64_t v);

  // Primary-key lookup helper.
  StatusOr<RowId> LookupPk(const std::string& table, const PkKey& key) const;

  // --- Transactions ----------------------------------------------------------

  // Explicit transaction, scoped to the CALLING THREAD; nesting is not
  // supported. Each thread may run its own transaction concurrently.
  Status Begin();
  Status Commit();
  Status Rollback();
  bool InTransaction() const;

  // True if ANY thread has an open transaction (recovery/audit hook).
  bool AnyTransactionActive() const;

  // Recovery hook: rolls back every thread's open transaction, including
  // those of worker threads frozen by a simulated crash. Only call when no
  // other thread is actively executing statements.
  Status RollbackAll();

  // --- Integrity & maintenance ----------------------------------------------

  // Full referential-integrity and index audit (test / property hook).
  Status CheckIntegrity() const;

  // Deep copy of all data (schema shared by value).
  std::unique_ptr<Database> Snapshot() const;

  // Total rows across all tables.
  size_t TotalRows() const;

  DbStats& stats() { return stats_; }
  const DbStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // EXPLAIN surface: the plan description MatchRows would use for `pred`
  // on `table` ("probe(eq(contactId = $UID))", "scan(papers)", ...).
  StatusOr<std::string> DescribePlan(const std::string& table, const sql::Expr& pred) const;

  // Monotonic count of logical statements issued BY THE CALLING THREAD
  // across all Database instances. Deltas around an operation give an exact
  // per-operation statement count even while other threads run (the global
  // stats().queries delta would fold their traffic in).
  static uint64_t ThreadStatements();

  // Installs (or clears, with nullptr) the write guard. At most one guard;
  // the engine toggles it around its own operations. Excludes concurrent
  // statements via the catalog lock.
  void SetWriteGuard(WriteGuard guard);
  bool HasWriteGuard() const;

  // --- Durability -----------------------------------------------------------

  // Installs (or clears, with nullptr) the durability sink. Excludes
  // concurrent statements via the catalog lock; the durable layer attaches
  // the sink only AFTER replay, so recovery writes never re-log.
  void SetWalSink(WalSink* sink);
  bool HasWalSink() const;

  // Replay primitive: applies one WAL row change idempotently (drop the row
  // if present, then insert the post-image unless the change is an erase).
  // No FK checks and no undo logging — the change was validated when first
  // committed; callers run CheckIntegrity() after the last record
  // (src/db/durable.cc does).
  Status ApplyWalChange(const WalChange& change);

  // Checkpoint-consistent deep copy: acquires every stripe shared, refuses
  // (kFailedPrecondition) while any transaction is open — its uncommitted
  // rows would leak into the copy — and reports the WAL high-water mark the
  // copy corresponds to (0 with no sink attached).
  StatusOr<std::unique_ptr<Database>> SnapshotForCheckpoint(uint64_t* wal_mark) const;

  // --- Page cache (bounded residency; src/db/pagecache.h) -------------------

  // Attaches a page cache over every current (and future) table. Call once,
  // before concurrent use — the durable layer attaches it before WAL replay.
  // `extents_dir` receives the per-table spill files (wiped by Init).
  Status AttachPageCache(const CacheOptions& options, const std::string& extents_dir);

  // Statement-boundary eviction: while over budget, plans victim pages and
  // evicts them under per-table exclusive try_locks (busy stripes are
  // skipped). Called with NO locks held at the end of every statement and
  // periodically during replay. Real eviction errors are logged and
  // swallowed (the statement already committed; the cache just stays over
  // budget); an injected simulated-crash status (pagecache.writeback /
  // extent.read crash drills) propagates so crash batteries can cover the
  // writeback path.
  Status MaybeEvictPages() const;

  PageCache* page_cache() const { return cache_.get(); }

 private:
  struct UndoEntry {
    enum class Kind { kInsert, kDelete, kUpdate } kind;
    std::string table;
    RowId id = kInvalidRowId;
    Row row;              // kDelete: full removed row
    size_t col_idx = 0;   // kUpdate
    sql::Value old_value; // kUpdate
  };

  // Per-thread transaction state. Entries live in a node-stable map keyed by
  // thread id; after lookup only the owning thread touches its entry (except
  // RollbackAll, which runs while workers are quiescent).
  struct TxnState {
    bool in_txn = false;
    std::vector<UndoEntry> undo_log;
    // Row intents this transaction claimed (released at txn end).
    std::vector<std::pair<std::string, RowId>> intents;
  };

  TxnState& Txn() const;

  // Lock set of a statement on one table: its own stripe shared (kRead); the
  // table exclusive plus its FK parents shared (kInsert), plus its FK
  // children shared too (kUpdate: PK-change checks); or the whole FK delete
  // closure exclusive (kDelete).
  enum class LockKind { kRead, kInsert, kUpdate, kDelete };

  // Stripes a statement takes, as ascending (stripe, exclusive) pairs with
  // each stripe at most once.
  using LockPlan = std::vector<std::pair<size_t, bool>>;

  // Collapses table names onto a plan; a stripe wanted in both modes is
  // taken exclusive.
  static LockPlan BuildLockPlan(const std::vector<std::string>& exclusive,
                                const std::vector<std::string>& shared);

  // Children referencing a table: (child table name, fk).
  struct ChildRef {
    std::string child_table;
    ForeignKeyDef fk;
  };

  // A table's FK links and statement lock plans, derived from the catalog
  // by RebuildLinks. Names and stripes only, so a Snapshot copies them as is.
  struct TableLinks {
    // Schema table order, then FK declaration order.
    std::vector<ChildRef> children;
    // FK parent tables, in FK declaration order.
    std::vector<std::string> parents;
    // Transitive child closure along FK edges, breadth first from the table
    // itself: the tables a delete may touch through CASCADE / SET NULL.
    std::vector<std::string> delete_closure;
    // Indexed by LockKind.
    std::array<LockPlan, 4> locks;
  };

  // Recomputes every entry of links_. A new table changes its parents'
  // children and every ancestor's closure, so entries are never patched one
  // at a time. Call from DDL while holding catalog_mu_ exclusively.
  void RebuildLinks();

  // The entry of `table`, or nullptr for a table missing from the catalog.
  // Entries stay in place while the caller holds the catalog lock.
  const TableLinks* LinksOf(const std::string& table) const;

  // The protocol every DML entry point runs: take the lock set; resolve
  // `table` and the column of each of `targets` (objects with a `column`
  // member), failing kNotFound before anything counts; open the
  // implicit-transaction scope, count one statement, run
  // `body(tx, table, column_indices)` and commit; then, with no locks held,
  // wait for WAL durability and sweep the page cache. `body` returns Status
  // or StatusOr<T>, and so does the runner.
  template <typename Targets, typename Body>
  auto RunWriteStatement(const std::string& table, LockKind locks, const Targets& targets,
                         Body&& body)
      -> std::invoke_result_t<Body&, TxnState&, Table*, const std::vector<size_t>&>;

  // The read body Select, SelectRowsWithIds (so SelectRows) and Count
  // share: under a shared lock on `table`, count one statement, match `pred`
  // and return `emit(table, ids)`, built while the lock is held. Eviction is
  // the caller's: Select skips it because its RowRefs outlive the lock.
  template <typename Emit>
  auto MatchStatement(const std::string& table, const sql::Expr* pred,
                      const sql::ParamMap& params, Emit&& emit) const
      -> std::invoke_result_t<Emit&, const Table&, std::vector<RowId>>;

  Table* MutableTable(const std::string& name);

  // FK existence check for one value (non-NULL) against the parent table.
  Status CheckFkTarget(const ForeignKeyDef& fk, const sql::Value& v) const;

  // Checks all FK columns of a row about to enter `table`.
  Status CheckRowFks(const TableSchema& schema, const Row& row) const;

  // Recursive delete honoring FK actions; appends undo entries.
  Status DeleteRowInternal(TxnState& tx, const std::string& table, RowId id, int depth);

  // The changes of a delete walk, read off undo_log[mark..] (a kDelete entry
  // is a removed row, a kUpdate one a nulled reference). Call from the
  // statement body: an implicit statement's commit clears the undo log.
  std::vector<DeleteChange> DeleteChangesSince(const TxnState& tx, size_t mark) const;

  // FK-checked single-column write; assumes a transaction scope is active.
  Status SetColumnInTxn(TxnState& tx, const std::string& table_name, Table* t, RowId id,
                        size_t col_idx, sql::Value value);

  // Candidate rows matching `pred` (nullptr = all rows): plan cache + index
  // probes, then the compiled residual over the probed (or scanned) rows.
  StatusOr<std::vector<RowId>> MatchRows(const Table& table, const sql::Expr* pred,
                                         const sql::ParamMap& params) const;

  // Residual filter: runs the compiled program over each candidate row in
  // candidate order (ascending RowId) and stops at the first row whose
  // evaluation fails, returning that row's error.
  StatusOr<std::vector<RowId>> FilterCandidates(
      const Table& table, const std::vector<RowId>& candidates,
      const sql::CompiledPredicate& residual, const sql::BoundParams& bound) const;

  // Drops every cached plan. Call from DDL while holding catalog_mu_
  // exclusively (no statement can then be mid-MatchRows).
  void InvalidatePlans() const {
    std::unique_lock<std::shared_mutex> lock(plan_mu_);
    plan_cache_.clear();
  }

  // Plan-cache lookup / build for (table, pred). Thread-safe; first insert
  // wins when two threads build the same plan concurrently.
  StatusOr<std::shared_ptr<const TablePlan>> GetPlan(const Table& table,
                                                     const sql::Expr& pred) const;

  // Runs one index probe, appending sorted row ids to `out`. Returns false
  // if the expected index is unavailable (caller falls back to a scan).
  StatusOr<bool> ExecuteProbe(const Table& table, const IndexProbe& probe,
                              const sql::ParamMap& params, std::vector<RowId>* out) const;

  // Undo-log helpers.
  void LogInsert(TxnState& tx, const std::string& table, RowId id);
  void LogDelete(TxnState& tx, const std::string& table, RowId id, Row row);
  void LogUpdate(TxnState& tx, const std::string& table, RowId id, size_t col_idx,
                 sql::Value old_value);
  void ApplyUndo(TxnState& tx, size_t from_mark);

  // Builds the net-change commit record from undo_log[from_mark..] plus the
  // touched tables' current state and hands it to the sink. Returns the
  // appended LSN, or 0 when there is no sink / nothing to log. Caller must
  // hold the statement's table locks (append order = lock order).
  StatusOr<uint64_t> AppendCommitToWal(TxnState& tx, size_t from_mark);

  // Post-release durability wait: blocks until `lsn` is fsync-covered.
  // Never call with table locks held (group commit lingers).
  Status WaitWalDurable(uint64_t lsn);

  // Sticky page-cache fault errors (recorded by Find/Scan/Clone, which have
  // no status channel). StickyCacheError returns-and-clears the pending one;
  // CacheFaultOr substitutes it for `fallback` so a fault failure is not
  // misreported as kNotFound.
  Status StickyCacheError() const;
  Status CacheFaultOr(Status fallback) const;

  // --- Row write intents (first-writer-wins) --------------------------------

  // Claims (table,id) for the calling thread's transaction. kAborted if
  // another live transaction holds it. Idempotent per transaction.
  Status ClaimIntent(TxnState& tx, const std::string& table, RowId id);
  // Releases every intent the transaction claimed past index `from`.
  void ReleaseIntents(TxnState& tx, size_t from);

  // --- Locking ---------------------------------------------------------------

  static size_t StripeOf(const std::string& table);

  // RAII statement lock: catalog shared + the stripes of a lock plan,
  // acquired in ascending stripe order. Construct, then call one Lock*
  // exactly once (the two-phase shape lets the lock-set lookup read the
  // catalog safely).
  class TableLock {
   public:
    explicit TableLock(const Database* db);
    ~TableLock();
    // Takes `table`'s plan of `kind`. A table missing from the catalog gets
    // only its own stripe (exclusive unless kRead).
    void LockTable(const std::string& table, LockKind kind);
    // Builds a plan for an arbitrary set of tables and takes it.
    void Lock(const std::vector<std::string>& exclusive,
              const std::vector<std::string>& shared);
    void LockAllShared();     // CheckIntegrity / Snapshot / TotalRows

   private:
    // The one acquisition loop. `plan` must outlive this lock.
    void Acquire(const LockPlan& plan);

    const Database* db_;
    LockPlan built_;                  // a plan Lock built, when not an entry's
    const LockPlan* held_ = nullptr;  // the plan taken
  };

  // Counts one logical statement (global atomic + calling thread's counter).
  void CountStatement() const;

  // Implicit-transaction guard for single statements.
  class StatementScope;

  Schema schema_;
  std::map<std::string, Table> tables_;
  // One entry per catalog table; rebuilt whole by RebuildLinks.
  std::unordered_map<std::string, TableLinks> links_;
  mutable DbStats stats_;

  // Lock hierarchy (acquire strictly downward):
  //   catalog_mu_  ->  stripes_[i] (ascending i)  ->  txn_mu_ / intents_mu_
  //                                                   / plan_mu_ (all leaves)
  static constexpr size_t kNumStripes = 32;
  mutable std::shared_mutex catalog_mu_;
  mutable std::array<std::shared_mutex, kNumStripes> stripes_;

  mutable std::mutex txn_mu_;
  mutable std::unordered_map<std::thread::id, TxnState> txns_;

  mutable std::mutex intents_mu_;
  std::map<std::pair<std::string, RowId>, std::thread::id> write_intents_;

  // Plan cache, keyed by table name + predicate fingerprint (ToString).
  // Schema changes invalidate: every DDL entry point clears the cache while
  // holding catalog_mu_ exclusively, so no MatchRows (catalog shared) can
  // be mid-flight with a stale plan. plan_mu_ is a leaf lock: never take
  // another Database lock while holding it.
  // Cap on cached plans: one-shot literal predicates would otherwise grow
  // the cache without bound (GetPlan clears it epoch-style at the cap).
  static constexpr size_t kMaxCachedPlans = 4096;
  mutable std::shared_mutex plan_mu_;  // shared: lookup; exclusive: insert/clear
  mutable std::unordered_map<std::string, std::shared_ptr<const TablePlan>> plan_cache_;

  WriteGuard write_guard_;
  WalSink* wal_sink_ = nullptr;

  // Page cache: set once by AttachPageCache before concurrent use, read
  // without a lock afterwards. Its internal mutex is a leaf alongside
  // txn_mu_/intents_mu_/plan_mu_ (never nested with them).
  std::unique_ptr<PageCache> cache_;

  static constexpr int kMaxCascadeDepth = 32;
};

// Builds a ColumnResolver over one row of one table (shared with the
// disguise engine, which evaluates Modify expressions against rows).
sql::ColumnResolver MakeRowResolver(const TableSchema& schema, const Row& row);

}  // namespace edna::db

#endif  // SRC_DB_DATABASE_H_
