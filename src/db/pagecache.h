// Page/extent cache: bounded-memory residency for the durable database.
//
// The durable database was fully memory-resident between snapshots (PR 5
// solved durability, not capacity). The page cache bounds resident row
// memory: rows are grouped into fixed-size pages by RowId, cold pages are
// evicted to per-table extent files, and faulted back on access. The design
// follows the netdata dbengine shape — fixed pages grouped into CRC-framed
// extents, LZ-compressed when that shrinks them — adapted to this engine's
// row model.
//
// Key invariants (docs/DESIGN.md, "Tiered storage and the page cache"):
//
//  * The row-id heap (std::map keys), the PK index, and every secondary
//    index stay fully resident; only row PAYLOADS spill. Contains/AllRowIds/
//    LookupPk/IndexLookup never fault. A spilled row keeps its map node with
//    an empty payload vector.
//  * A page is entirely resident or entirely spilled; mutators fault the
//    target page in first, so a spilled page's extent frame is always an
//    exact image of its live rows.
//  * Extents are a CACHE SPILL, not a durability source: the extents/
//    directory is wiped on every Open, and recovery reads only snapshot +
//    WAL. Eviction never needs fsync, and a lost or corrupt extent can cost
//    availability (kInternal on the access) but never durability.
//  * Pages pinned by row write intents (open transactions, in-flight batch
//    statements) are unevictable, so uncommitted row images never reach an
//    extent and rollback always operates on resident rows.
//  * Eviction runs only at statement boundaries with no locks held: the
//    evictor try_locks the victim table's stripe EXCLUSIVELY, so it can
//    never clear a payload a concurrent statement is reading (readers hold
//    the stripe shared for the whole statement).
//
// Locking: PageCache has one internal leaf mutex (mu_). It is taken below
// the Database's stripe locks and never nested with txn_mu_/intents_mu_/
// plan_mu_. All fault-path installs happen under mu_, which is what makes
// concurrent shared-stripe readers safe against each other.
#ifndef SRC_DB_PAGECACHE_H_
#define SRC_DB_PAGECACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/db/row.h"

namespace edna::db {

class Table;
struct DbStats;

// Threaded through db::Database / DurableDatabase / DurableEngine::Open and
// `disguisectl --cache-mb`. max_resident_bytes == 0 means "no cache": the
// durable layer then skips attaching one and the database stays fully
// resident (the pre-cache behavior, and the in-memory default).
struct CacheOptions {
  uint64_t max_resident_bytes = 0;
};

// Rows per page: a 4 KiB grouping target at ~128 bytes per row. Rows are
// variable-width, so the page size is a target, not a hard cap.
inline constexpr uint32_t kRowsPerPage = 4096 / 128;

// Approximate heap footprint of a value / row, used for resident-byte
// accounting (32 bytes of per-row overhead approximates the map node).
uint64_t ApproxValueBytes(const sql::Value& v);
uint64_t ApproxRowBytes(const Row& row);

class PageCache {
 public:
  // `dir` is the extents directory (data_dir + "/extents"); `stats` receives
  // page_hits/page_misses/page_evictions/page_writebacks/resident_bytes.
  PageCache(CacheOptions options, std::string dir, DbStats* stats);
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Creates the extents directory and wipes stale *.edx spill files (they
  // belong to a previous process lifetime; canonical data is snapshot+WAL).
  Status Init();

  static uint64_t PageOf(RowId id) { return (id - 1) / kRowsPerPage; }

  // Registers a table and seeds page accounting from its current rows (all
  // resident at registration). Returns the table's cache id. The caller then
  // hands (this, id) to Table::SetPager.
  uint32_t RegisterTable(const std::string& name, Table* table);

  // Hit/fault path, called by Table for every payload access. Caller holds
  // the table's stripe (shared or exclusive). Resident: clock touch.
  // Spilled: reads the page's extent frame and installs the payloads.
  // Missing page metadata is created resident-empty (insert path).
  // kNotFound: extent file missing; kInternal: frame corrupt/truncated.
  Status Access(uint32_t table_id, uint64_t page);

  // Mutation bookkeeping: marks the page dirty and adjusts its byte count.
  // Caller holds the table's stripe exclusively and has already ensured the
  // page is resident. Creates the page (resident, empty) if new.
  void OnMutation(uint32_t table_id, uint64_t page, int64_t byte_delta);

  // Transaction pins, keyed the way write intents are (table name + row).
  // A pinned page is unevictable. Pin/unpin only from Database intent
  // claim/release, with no other PageCache-relevant locks held.
  void PinRow(const std::string& table, RowId id);
  void UnpinRow(const std::string& table, RowId id);

  // Fast budget probe (lock-free) for statement-end eviction checks.
  bool OverBudget() const;

  // One eviction round's victims, grouped per table so the evictor can
  // take each table's stripe once. Victims leave the clock ring;
  // EvictPages (or Requeue, if the stripe was busy) re-settles them.
  struct EvictGroup {
    std::string table;
    uint32_t table_id = 0;
    std::vector<uint64_t> pages;
  };
  std::vector<EvictGroup> PlanEviction();

  // Evicts the given pages of one table: revalidates (resident, unpinned),
  // writes dirty pages into ONE new extent frame, clears payloads. Returns
  // true if at least one page was evicted. Caller holds the table's stripe
  // EXCLUSIVELY. Fail-point: pagecache.writeback (before the frame write).
  StatusOr<bool> EvictPages(uint32_t table_id, const std::vector<uint64_t>& pages);

  // Returns planned-but-skipped victims to the clock ring.
  void Requeue(uint32_t table_id, const std::vector<uint64_t>& pages);

  // Copies a table's full row map, reading spilled pages THROUGH the extent
  // files without admitting them (checkpoint clones must not perturb the
  // cache). Runs entirely under mu_, which serializes it against concurrent
  // fault installs (Table::Clone's shared stripe does not). Caller holds at
  // least a shared stripe on the table.
  Status SnapshotTableRows(uint32_t table_id, std::map<RowId, Row>* out);

  // Void/pointer APIs (Find, Scan, Clone) cannot return a fault Status; they
  // record it here and the Database surfaces it at the statement boundary
  // instead of mapping the miss to kNotFound.
  void RecordStickyError(const Status& s);
  Status ConsumeStickyError();

  uint64_t ResidentBytes() const;

  // Test hooks.
  bool DebugIsRowResident(const std::string& table, RowId id);
  std::vector<std::string> DebugExtentFiles() const;

 private:
  struct PageMeta {
    bool resident = true;
    bool dirty = true;       // no frame yet / frame stale
    bool has_frame = false;  // a frame in the extent file holds this page
    uint32_t pins = 0;
    uint64_t bytes = 0;  // payload bytes while resident (kept across spill)
    uint64_t frame_off = 0;
    uint32_t frame_len = 0;
    // Clock state: membership in the ring + reference bit.
    bool in_ring = false;
    bool ref = false;
  };

  struct TableState {
    std::string name;
    Table* table = nullptr;
    int fd = -1;
    uint64_t file_size = 0;
    std::unordered_map<uint64_t, PageMeta> pages;
  };

  // Decoded extent frame: (page index, rows) per contained page.
  using FramePages = std::vector<std::pair<uint64_t, std::vector<std::pair<RowId, Row>>>>;

  // All private helpers assume mu_ is held.
  Status Fault(TableState& ts, uint32_t table_id, uint64_t page, PageMeta& meta);
  Status ReadFrame(uint32_t table_id, uint64_t off, uint32_t len, FramePages* pages);
  // Sets the page's reference bit, adding it to the clock ring if untracked.
  void ClockTouch(uint32_t table_id, uint64_t page, PageMeta& meta);
  void AddResident(int64_t delta);
  std::string ExtentPath(uint32_t table_id) const;

  const CacheOptions options_;
  const std::string dir_;
  DbStats* const stats_;

  mutable std::mutex mu_;  // leaf: below stripes, never nested with txn/intents/plan
  std::vector<TableState> tables_;
  std::unordered_map<std::string, uint32_t> ids_;
  uint64_t resident_bytes_ = 0;           // authoritative, under mu_
  std::atomic<uint64_t> resident_gauge_{0};  // mirror for OverBudget()
  Status sticky_ = OkStatus();

  // Clock: a queue of page keys; PlanEviction pops, second-chances ref'd
  // pages, and emits unpinned cold pages as victims.
  std::deque<std::pair<uint32_t, uint64_t>> ring_;
};

// LZ4-style greedy byte compressor used for extent frames (exposed for the
// round-trip property tests). Compress returns an empty vector when the
// input does not shrink; Decompress bounds-checks every read so corrupt
// input yields kInternal, never out-of-bounds access.
std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& in);
Status LzDecompress(const uint8_t* in, size_t in_len, size_t raw_len,
                    std::vector<uint8_t>* out);

}  // namespace edna::db

#endif  // SRC_DB_PAGECACHE_H_
