// Physical table storage: row heap plus primary-key and secondary indexes.
//
// Table enforces intra-table constraints (types, nullability, PK uniqueness,
// auto-increment assignment). Cross-table (foreign key) integrity is the
// Database's job. Mutations return enough information for the transaction
// undo log to reverse them exactly.
#ifndef SRC_DB_TABLE_H_
#define SRC_DB_TABLE_H_

#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/db/pagecache.h"
#include "src/db/row.h"
#include "src/db/schema.h"

namespace edna::db {

// Composite primary-key value with lexicographic ordering.
struct PkKey {
  std::vector<sql::Value> values;
  bool operator<(const PkKey& other) const;
  bool operator==(const PkKey& other) const;
  std::string ToString() const;
};

class Table {
 public:
  explicit Table(TableSchema schema);

  // Tables own index structures; moving would invalidate nothing but copying
  // must be explicit (see Clone) to avoid accidental deep copies.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  Table Clone() const;

  const TableSchema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }

  // Inserts a full-width row (values positionally aligned with the schema).
  // NULL in an auto-increment column is replaced by the next counter value.
  // Missing constraints => kInvalidArgument / kAlreadyExists (duplicate PK).
  StatusOr<RowId> Insert(Row row);

  // Inserts with an explicit RowId (transaction rollback path); the id must
  // not be live.
  Status InsertWithId(RowId id, Row row);

  // Row access. With a pager attached, Find faults the row's page in; a
  // fault failure returns nullptr and records a sticky error on the cache
  // (the Database surfaces it at the statement boundary). Contains is
  // payload-free on purpose: existence checks must never fault.
  const Row* Find(RowId id) const;
  bool Contains(RowId id) const { return rows_.count(id) > 0; }

  // Primary key lookup.
  StatusOr<RowId> LookupPk(const PkKey& key) const;
  PkKey ExtractPk(const Row& row) const;

  // Removes a row; returns the removed contents for undo logging.
  StatusOr<Row> Erase(RowId id);

  // Replaces column `col_idx` of row `id`; returns the previous value.
  // Enforces type/nullability and PK uniqueness if the column is in the PK.
  StatusOr<sql::Value> UpdateColumn(RowId id, size_t col_idx, sql::Value value);

  // Full-row replace (used by restore paths); same constraint checks.
  Status UpdateRow(RowId id, Row row);

  // Equality scan through the secondary or PK index on `column` if one
  // exists; falls back to nullptr (caller must scan) when not indexed.
  // The out parameter receives matching row ids.
  bool IndexLookup(const std::string& column, const sql::Value& value,
                   std::vector<RowId>* out) const;

  // True if `column` has an exact-match index (secondary, or the whole
  // single-column primary key).
  bool HasIndexOn(const std::string& column) const;

  // Ordered range probe over `column`: row ids whose value lies in
  // [lo, hi] (either bound may be nullptr = open; inclusivity per flag).
  // NULL column values never match; a NULL bound matches nothing (any
  // comparison with it is UNKNOWN). Returns false when the column has no
  // ordered index (declared secondary, or single-column PK).
  bool RangeLookup(const std::string& column, const sql::Value* lo, bool lo_inclusive,
                   const sql::Value* hi, bool hi_inclusive, std::vector<RowId>* out) const;

  // True if `column` supports RangeLookup.
  bool HasOrderedIndexOn(const std::string& column) const;

  // Row ids whose `column` IS NULL, via the secondary index's null set.
  // Returns false when the column has no secondary index (the PK fast path
  // does not apply: PK columns are NOT NULL).
  bool NullLookup(const std::string& column, std::vector<RowId>* out) const;

  // True if `column` supports NullLookup.
  bool HasNullTrackingOn(const std::string& column) const;

  // Iterates all rows in RowId order; callback may not mutate the table.
  void Scan(const std::function<void(RowId, const Row&)>& fn) const;

  // Stable list of all live row ids (ascending).
  std::vector<RowId> AllRowIds() const;

  // The next value the auto-increment counter would produce (for tests).
  int64_t PeekAutoIncrement() const { return auto_counter_ + 1; }

  // Raises the auto-increment counter to at least `v` (image-load path; the
  // highest-valued row may have been deleted before the snapshot).
  void EnsureAutoCounterAtLeast(int64_t v) { auto_counter_ = std::max(auto_counter_, v); }

  // Schema evolution: appends a column, filling existing rows with `fill`
  // (type- and nullability-checked). New columns carry no secondary index
  // until BuildIndex is called.
  Status AddColumn(ColumnDef col, const sql::Value& fill);

  // Builds (and backfills) a secondary hash index on `column`.
  Status BuildIndex(const std::string& column);

  // Validates every internal index entry against the row heap (test hook).
  // With a pager attached this faults every page in first (the audit reads
  // all payloads); callers should evict afterwards.
  Status CheckIndexConsistency() const;

  // ---- Page cache integration (src/db/pagecache.h) ----
  //
  // With a pager attached, row ids and all indexes stay fully resident while
  // row PAYLOADS spill at page granularity: a spilled row keeps its map node
  // with an empty payload vector, and every payload-touching method faults
  // the page in via the pager first. A page is entirely resident or entirely
  // spilled, and mutators fault before mutating, so a spilled page's extent
  // frame is always an exact image of its live rows.

  // Attaches the pager (once, before concurrent use; Database attach path).
  void SetPager(PageCache* pager, uint32_t table_id);
  bool has_pager() const { return pager_ != nullptr; }
  static uint64_t PageOf(RowId id) { return PageCache::PageOf(id); }

  // Faults the row's page / every spilled page back in.
  Status EnsureRowResident(RowId id) const;
  Status EnsureAllResident() const;

  // Page-granular payload plumbing, called back by PageCache under its
  // mutex (eviction holds the stripe exclusively; faults hold at least a
  // shared stripe — the cache mutex serializes concurrent installers).
  void CollectPageRows(uint64_t page,
                       std::vector<std::pair<RowId, const Row*>>* out) const;
  void DropPageRows(uint64_t page);
  Status InstallPageRows(uint64_t page, std::vector<std::pair<RowId, Row>>* rows);
  const std::map<RowId, Row>& RawRows() const { return rows_; }

 private:
  Status ValidateRowShape(const Row& row) const;
  void IndexInsert(RowId id, const Row& row);
  void IndexErase(RowId id, const Row& row);

  TableSchema schema_;
  std::map<RowId, Row> rows_;  // ordered so scans are deterministic
  RowId next_row_id_ = 1;
  int64_t auto_counter_ = 0;

  // Page cache attachment (null = fully resident, the default).
  PageCache* pager_ = nullptr;
  uint32_t table_id_ = 0;

  std::map<PkKey, RowId> pk_index_;
  // value -> row ids (non-NULL values only).
  using HashIndex =
      std::unordered_map<sql::Value, std::unordered_set<RowId>, sql::ValueHash,
                         sql::ValueSqlEq>;
  // Value::Compare total order; used for range probes.
  using OrderedIndex = std::map<sql::Value, std::set<RowId>>;

  // One secondary index: equality buckets plus the rows whose value IS NULL
  // (so `col IS NULL` plans as a probe). Declared indexes (IndexDef /
  // CreateIndex) additionally maintain an ordered mirror for range/BETWEEN;
  // implicit FK indexes stay hash-only — FK probes are equality-only and the
  // FK columns sit on the engine's hottest write path.
  struct SecondaryIndex {
    HashIndex eq;
    std::set<RowId> nulls;
    bool ordered = false;
    OrderedIndex sorted;
  };
  std::unordered_map<std::string, SecondaryIndex> secondary_;
};

}  // namespace edna::db

#endif  // SRC_DB_TABLE_H_
