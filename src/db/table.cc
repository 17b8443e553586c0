#include "src/db/table.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/db/pagecache.h"

namespace edna::db {

namespace {
std::string JoinValues(const std::vector<sql::Value>& vs) {
  std::vector<std::string> parts;
  parts.reserve(vs.size());
  for (const sql::Value& v : vs) {
    parts.push_back(v.ToSqlString());
  }
  return StrJoin(parts, ", ");
}
}  // namespace

std::string RowToString(const Row& row) { return "(" + JoinValues(row) + ")"; }

bool PkKey::operator<(const PkKey& other) const {
  size_t n = std::min(values.size(), other.values.size());
  for (size_t i = 0; i < n; ++i) {
    int c = values[i].Compare(other.values[i]);
    if (c != 0) {
      return c < 0;
    }
  }
  return values.size() < other.values.size();
}

bool PkKey::operator==(const PkKey& other) const {
  if (values.size() != other.values.size()) {
    return false;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].Compare(other.values[i]) != 0) {
      return false;
    }
  }
  return true;
}

std::string PkKey::ToString() const { return "[" + JoinValues(values) + "]"; }

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  for (const IndexDef& idx : schema_.indexes()) {
    secondary_[idx.column].ordered = true;  // declared indexes support ranges
  }
  // Index every foreign-key column implicitly: child lookups during deletes
  // and decorrelation are the engine's hottest operation.
  for (const ForeignKeyDef& fk : schema_.foreign_keys()) {
    secondary_.emplace(fk.column, SecondaryIndex{});
  }
}

Table Table::Clone() const {
  Table copy(schema_);
  if (pager_ == nullptr) {
    copy.rows_ = rows_;
  } else {
    // Read-through without admission: spilled pages are materialized into the
    // clone from their extent frames, under the cache mutex so a concurrent
    // shared-stripe reader's fault install cannot race the row copy. A read
    // failure leaves those payloads empty and records a sticky error the
    // caller (SnapshotForCheckpoint) surfaces.
    Status st = pager_->SnapshotTableRows(table_id_, &copy.rows_);
    if (!st.ok()) {
      pager_->RecordStickyError(st);
      EDNA_LOG(kError) << "clone read-through failed for table \"" << schema_.name()
                       << "\": " << st.ToString();
    }
  }
  copy.next_row_id_ = next_row_id_;
  copy.auto_counter_ = auto_counter_;
  copy.pk_index_ = pk_index_;
  copy.secondary_ = secondary_;
  return copy;
}

Status Table::ValidateRowShape(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return InvalidArgument(StrFormat("row width %zu does not match table \"%s\" width %zu",
                                     row.size(), schema_.name().c_str(),
                                     schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = schema_.columns()[i];
    if (!ValueMatchesType(row[i], col.type)) {
      return InvalidArgument("value " + row[i].ToSqlString() + " does not match column \"" +
                             schema_.name() + "." + col.name + "\" type " +
                             ColumnTypeName(col.type));
    }
    if (row[i].is_null() && !col.nullable) {
      return InvalidArgument("NULL in NOT NULL column \"" + schema_.name() + "." + col.name +
                             "\"");
    }
  }
  return OkStatus();
}

PkKey Table::ExtractPk(const Row& row) const {
  PkKey key;
  key.values.reserve(schema_.primary_key().size());
  for (const std::string& col : schema_.primary_key()) {
    key.values.push_back(row[static_cast<size_t>(schema_.ColumnIndex(col))]);
  }
  return key;
}

void Table::IndexInsert(RowId id, const Row& row) {
  for (auto& [column, index] : secondary_) {
    const sql::Value& v = row[static_cast<size_t>(schema_.ColumnIndex(column))];
    if (v.is_null()) {
      index.nulls.insert(id);
      continue;
    }
    index.eq[v].insert(id);
    if (index.ordered) {
      index.sorted[v].insert(id);
    }
  }
}

void Table::IndexErase(RowId id, const Row& row) {
  for (auto& [column, index] : secondary_) {
    const sql::Value& v = row[static_cast<size_t>(schema_.ColumnIndex(column))];
    if (v.is_null()) {
      index.nulls.erase(id);
      continue;
    }
    auto it = index.eq.find(v);
    if (it != index.eq.end()) {
      it->second.erase(id);
      if (it->second.empty()) {
        index.eq.erase(it);
      }
    }
    if (index.ordered) {
      auto oit = index.sorted.find(v);
      if (oit != index.sorted.end()) {
        oit->second.erase(id);
        if (oit->second.empty()) {
          index.sorted.erase(oit);
        }
      }
    }
  }
}

StatusOr<RowId> Table::Insert(Row row) {
  RETURN_IF_ERROR([&]() -> Status {
    // Fill auto-increment before shape validation so NOT NULL passes.
    if (row.size() != schema_.num_columns()) {
      return InvalidArgument(StrFormat("row width %zu does not match table \"%s\" width %zu",
                                       row.size(), schema_.name().c_str(),
                                       schema_.num_columns()));
    }
    for (size_t i = 0; i < row.size(); ++i) {
      const ColumnDef& col = schema_.columns()[i];
      if (col.auto_increment && row[i].is_null()) {
        row[i] = sql::Value::Int(++auto_counter_);
      } else if (col.auto_increment && row[i].is_int()) {
        auto_counter_ = std::max(auto_counter_, row[i].AsInt());
      }
    }
    return OkStatus();
  }());
  RETURN_IF_ERROR(ValidateRowShape(row));

  PkKey key = ExtractPk(row);
  if (pk_index_.count(key) > 0) {
    return AlreadyExists("duplicate primary key " + key.ToString() + " in table \"" +
                         schema_.name() + "\"");
  }
  // The new id's page must be resident before the row joins it, or a spilled
  // page's extent frame would stop being an exact image.
  RETURN_IF_ERROR(EnsureRowResident(next_row_id_));
  RowId id = next_row_id_++;
  pk_index_.emplace(key, id);
  IndexInsert(id, row);
  const uint64_t bytes = pager_ == nullptr ? 0 : ApproxRowBytes(row);
  rows_.emplace(id, std::move(row));
  if (pager_ != nullptr) {
    pager_->OnMutation(table_id_, PageOf(id), static_cast<int64_t>(bytes));
  }
  return id;
}

Status Table::InsertWithId(RowId id, Row row) {
  if (id == kInvalidRowId) {
    return InvalidArgument("invalid row id");
  }
  if (rows_.count(id) > 0) {
    return AlreadyExists(StrFormat("row id %llu already live in table \"%s\"",
                                   static_cast<unsigned long long>(id),
                                   schema_.name().c_str()));
  }
  RETURN_IF_ERROR(ValidateRowShape(row));
  PkKey key = ExtractPk(row);
  if (pk_index_.count(key) > 0) {
    return AlreadyExists("duplicate primary key " + key.ToString() + " in table \"" +
                         schema_.name() + "\"");
  }
  // Keep auto counters monotone across restores.
  for (size_t i = 0; i < row.size(); ++i) {
    if (schema_.columns()[i].auto_increment && row[i].is_int()) {
      auto_counter_ = std::max(auto_counter_, row[i].AsInt());
    }
  }
  RETURN_IF_ERROR(EnsureRowResident(id));
  next_row_id_ = std::max(next_row_id_, id + 1);
  pk_index_.emplace(key, id);
  IndexInsert(id, row);
  const uint64_t bytes = pager_ == nullptr ? 0 : ApproxRowBytes(row);
  rows_.emplace(id, std::move(row));
  if (pager_ != nullptr) {
    pager_->OnMutation(table_id_, PageOf(id), static_cast<int64_t>(bytes));
  }
  return OkStatus();
}

const Row* Table::Find(RowId id) const {
  auto it = rows_.find(id);
  if (it == rows_.end()) return nullptr;
  if (pager_ != nullptr) {
    Status st = pager_->Access(table_id_, PageOf(id));
    if (!st.ok()) {
      // No status channel here: report nullptr and leave the real error
      // sticky on the cache for the statement boundary.
      pager_->RecordStickyError(st);
      return nullptr;
    }
  }
  return &it->second;
}

StatusOr<RowId> Table::LookupPk(const PkKey& key) const {
  auto it = pk_index_.find(key);
  if (it == pk_index_.end()) {
    return NotFound("no row with primary key " + key.ToString() + " in table \"" +
                    schema_.name() + "\"");
  }
  return it->second;
}

StatusOr<Row> Table::Erase(RowId id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return NotFound(StrFormat("row id %llu not in table \"%s\"",
                              static_cast<unsigned long long>(id), schema_.name().c_str()));
  }
  RETURN_IF_ERROR(EnsureRowResident(id));
  Row row = std::move(it->second);
  pk_index_.erase(ExtractPk(row));
  IndexErase(id, row);
  rows_.erase(it);
  if (pager_ != nullptr) {
    pager_->OnMutation(table_id_, PageOf(id), -static_cast<int64_t>(ApproxRowBytes(row)));
  }
  return row;
}

StatusOr<sql::Value> Table::UpdateColumn(RowId id, size_t col_idx, sql::Value value) {
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return NotFound(StrFormat("row id %llu not in table \"%s\"",
                              static_cast<unsigned long long>(id), schema_.name().c_str()));
  }
  if (col_idx >= schema_.num_columns()) {
    return InvalidArgument("column index out of range");
  }
  RETURN_IF_ERROR(EnsureRowResident(id));
  const ColumnDef& col = schema_.columns()[col_idx];
  if (!ValueMatchesType(value, col.type)) {
    return InvalidArgument("value " + value.ToSqlString() + " does not match column \"" +
                           schema_.name() + "." + col.name + "\" type " +
                           ColumnTypeName(col.type));
  }
  if (value.is_null() && !col.nullable) {
    return InvalidArgument("NULL in NOT NULL column \"" + schema_.name() + "." + col.name +
                           "\"");
  }
  Row& row = it->second;
  sql::Value old = row[col_idx];
  const int64_t byte_delta =
      pager_ == nullptr ? 0
                        : static_cast<int64_t>(ApproxValueBytes(value)) -
                              static_cast<int64_t>(ApproxValueBytes(old));
  if (old.SqlEquals(value) && old.is_null() == value.is_null()) {
    row[col_idx] = std::move(value);
    if (pager_ != nullptr) pager_->OnMutation(table_id_, PageOf(id), byte_delta);
    return old;
  }

  // PK maintenance (with uniqueness re-check).
  if (schema_.IsPrimaryKeyColumn(col.name)) {
    PkKey old_key = ExtractPk(row);
    Row candidate = row;
    candidate[col_idx] = value;
    PkKey new_key = ExtractPk(candidate);
    auto existing = pk_index_.find(new_key);
    if (existing != pk_index_.end() && existing->second != id) {
      return AlreadyExists("primary key update collides: " + new_key.ToString() +
                           " in table \"" + schema_.name() + "\"");
    }
    pk_index_.erase(old_key);
    pk_index_.emplace(new_key, id);
  }

  // Secondary index maintenance.
  auto sec = secondary_.find(col.name);
  if (sec != secondary_.end()) {
    SecondaryIndex& index = sec->second;
    if (old.is_null()) {
      index.nulls.erase(id);
    } else {
      auto bucket = index.eq.find(old);
      if (bucket != index.eq.end()) {
        bucket->second.erase(id);
        if (bucket->second.empty()) {
          index.eq.erase(bucket);
        }
      }
      if (index.ordered) {
        auto obucket = index.sorted.find(old);
        if (obucket != index.sorted.end()) {
          obucket->second.erase(id);
          if (obucket->second.empty()) {
            index.sorted.erase(obucket);
          }
        }
      }
    }
    if (value.is_null()) {
      index.nulls.insert(id);
    } else {
      index.eq[value].insert(id);
      if (index.ordered) {
        index.sorted[value].insert(id);
      }
    }
  }

  row[col_idx] = std::move(value);
  if (pager_ != nullptr) pager_->OnMutation(table_id_, PageOf(id), byte_delta);
  return old;
}

Status Table::UpdateRow(RowId id, Row new_row) {
  auto it = rows_.find(id);
  if (it == rows_.end()) {
    return NotFound(StrFormat("row id %llu not in table \"%s\"",
                              static_cast<unsigned long long>(id), schema_.name().c_str()));
  }
  RETURN_IF_ERROR(ValidateRowShape(new_row));
  PkKey new_key = ExtractPk(new_row);
  auto existing = pk_index_.find(new_key);
  if (existing != pk_index_.end() && existing->second != id) {
    return AlreadyExists("primary key update collides: " + new_key.ToString() + " in table \"" +
                         schema_.name() + "\"");
  }
  RETURN_IF_ERROR(EnsureRowResident(id));
  Row& row = it->second;
  const int64_t byte_delta =
      pager_ == nullptr ? 0
                        : static_cast<int64_t>(ApproxRowBytes(new_row)) -
                              static_cast<int64_t>(ApproxRowBytes(row));
  pk_index_.erase(ExtractPk(row));
  IndexErase(id, row);
  pk_index_.emplace(new_key, id);
  IndexInsert(id, new_row);
  row = std::move(new_row);
  if (pager_ != nullptr) pager_->OnMutation(table_id_, PageOf(id), byte_delta);
  return OkStatus();
}

bool Table::IndexLookup(const std::string& column, const sql::Value& value,
                        std::vector<RowId>* out) const {
  out->clear();
  if (value.is_null()) {
    return false;  // NULL never matches an equality predicate
  }
  // Whole-PK fast path.
  if (schema_.primary_key().size() == 1 && schema_.primary_key()[0] == column) {
    PkKey key;
    key.values.push_back(value);
    auto it = pk_index_.find(key);
    if (it != pk_index_.end()) {
      out->push_back(it->second);
    }
    return true;
  }
  auto sec = secondary_.find(column);
  if (sec == secondary_.end()) {
    return false;
  }
  auto bucket = sec->second.eq.find(value);
  if (bucket != sec->second.eq.end()) {
    out->assign(bucket->second.begin(), bucket->second.end());
    std::sort(out->begin(), out->end());
  }
  return true;
}

bool Table::HasIndexOn(const std::string& column) const {
  if (schema_.primary_key().size() == 1 && schema_.primary_key()[0] == column) {
    return true;
  }
  return secondary_.count(column) > 0;
}

bool Table::RangeLookup(const std::string& column, const sql::Value* lo, bool lo_inclusive,
                        const sql::Value* hi, bool hi_inclusive,
                        std::vector<RowId>* out) const {
  out->clear();
  // A NULL bound compares UNKNOWN against everything: no row can match.
  if ((lo != nullptr && lo->is_null()) || (hi != nullptr && hi->is_null())) {
    return HasOrderedIndexOn(column);
  }
  // Empty range (lo past hi): answer [] without iterating — begin/end
  // iterators would cross otherwise.
  if (lo != nullptr && hi != nullptr) {
    int c = lo->Compare(*hi);
    if (c > 0 || (c == 0 && !(lo_inclusive && hi_inclusive))) {
      return HasOrderedIndexOn(column);
    }
  }
  // Whole-PK fast path: pk_index_ is already ordered by value.
  if (schema_.primary_key().size() == 1 && schema_.primary_key()[0] == column) {
    auto begin = pk_index_.begin();
    auto end = pk_index_.end();
    if (lo != nullptr) {
      PkKey key;
      key.values.push_back(*lo);
      begin = lo_inclusive ? pk_index_.lower_bound(key) : pk_index_.upper_bound(key);
    }
    if (hi != nullptr) {
      PkKey key;
      key.values.push_back(*hi);
      end = hi_inclusive ? pk_index_.upper_bound(key) : pk_index_.lower_bound(key);
    }
    for (auto it = begin; it != end; ++it) {
      out->push_back(it->second);
    }
    std::sort(out->begin(), out->end());
    return true;
  }
  auto sec = secondary_.find(column);
  if (sec == secondary_.end() || !sec->second.ordered) {
    return false;
  }
  const OrderedIndex& sorted = sec->second.sorted;
  auto begin = lo == nullptr ? sorted.begin()
                             : (lo_inclusive ? sorted.lower_bound(*lo) : sorted.upper_bound(*lo));
  auto end = hi == nullptr ? sorted.end()
                           : (hi_inclusive ? sorted.upper_bound(*hi) : sorted.lower_bound(*hi));
  for (auto it = begin; it != end; ++it) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  std::sort(out->begin(), out->end());
  return true;
}

bool Table::HasOrderedIndexOn(const std::string& column) const {
  if (schema_.primary_key().size() == 1 && schema_.primary_key()[0] == column) {
    return true;
  }
  auto sec = secondary_.find(column);
  return sec != secondary_.end() && sec->second.ordered;
}

bool Table::NullLookup(const std::string& column, std::vector<RowId>* out) const {
  out->clear();
  auto sec = secondary_.find(column);
  if (sec == secondary_.end()) {
    return false;
  }
  out->assign(sec->second.nulls.begin(), sec->second.nulls.end());
  return true;
}

bool Table::HasNullTrackingOn(const std::string& column) const {
  return secondary_.count(column) > 0;
}

void Table::Scan(const std::function<void(RowId, const Row&)>& fn) const {
  if (pager_ == nullptr) {
    for (const auto& [id, row] : rows_) {
      fn(id, row);
    }
    return;
  }
  // Fault page-by-page; a page whose fault fails is skipped (its payloads are
  // empty and callbacks index into them) with the error left sticky.
  uint64_t current_page = ~uint64_t{0};
  bool page_ok = true;
  for (const auto& [id, row] : rows_) {
    const uint64_t page = PageOf(id);
    if (page != current_page) {
      current_page = page;
      Status st = pager_->Access(table_id_, page);
      page_ok = st.ok();
      if (!page_ok) {
        pager_->RecordStickyError(st);
        EDNA_LOG(kError) << "scan fault failed for table \"" << schema_.name()
                         << "\" page " << page << ": " << st.ToString();
      }
    }
    if (page_ok) fn(id, row);
  }
}

std::vector<RowId> Table::AllRowIds() const {
  std::vector<RowId> out;
  out.reserve(rows_.size());
  for (const auto& [id, row] : rows_) {
    out.push_back(id);
  }
  return out;
}

Status Table::AddColumn(ColumnDef col, const sql::Value& fill) {
  if (schema_.HasColumn(col.name)) {
    return AlreadyExists("column \"" + col.name + "\" already in table \"" +
                         schema_.name() + "\"");
  }
  if (!ValueMatchesType(fill, col.type)) {
    return InvalidArgument("fill value " + fill.ToSqlString() +
                           " does not match new column type " + ColumnTypeName(col.type));
  }
  if (fill.is_null() && !col.nullable) {
    return InvalidArgument("NULL fill for NOT NULL column \"" + col.name + "\"");
  }
  if (col.auto_increment) {
    return InvalidArgument("cannot add an auto-increment column to a populated table");
  }
  RETURN_IF_ERROR(EnsureAllResident());
  schema_.AddColumn(std::move(col));
  const int64_t fill_bytes =
      pager_ == nullptr ? 0 : static_cast<int64_t>(ApproxValueBytes(fill));
  for (auto& [id, row] : rows_) {
    row.push_back(fill);
    if (pager_ != nullptr) pager_->OnMutation(table_id_, PageOf(id), fill_bytes);
  }
  return OkStatus();
}

Status Table::BuildIndex(const std::string& column) {
  int idx = schema_.ColumnIndex(column);
  if (idx < 0) {
    return NotFound("no column \"" + column + "\" in table \"" + schema_.name() + "\"");
  }
  RETURN_IF_ERROR(EnsureAllResident());
  if (auto it = secondary_.find(column); it != secondary_.end()) {
    // Already indexed. An implicit FK index may lack the ordered mirror a
    // declared index carries; upgrade it in place.
    if (!it->second.ordered) {
      it->second.ordered = true;
      for (const auto& [value, ids] : it->second.eq) {
        it->second.sorted[value].insert(ids.begin(), ids.end());
      }
    }
    return OkStatus();
  }
  schema_.AddIndex(column);
  SecondaryIndex& index = secondary_[column];
  index.ordered = true;
  for (const auto& [id, row] : rows_) {
    const sql::Value& v = row[static_cast<size_t>(idx)];
    if (v.is_null()) {
      index.nulls.insert(id);
    } else {
      index.eq[v].insert(id);
      index.sorted[v].insert(id);
    }
  }
  return OkStatus();
}

Status Table::CheckIndexConsistency() const {
  // The audit reads every payload; transiently exceeding the cache budget
  // here is accepted (the caller evicts afterwards; docs/DESIGN.md).
  RETURN_IF_ERROR(EnsureAllResident());
  // 1. Every row's PK is in pk_index_ and maps back to it.
  for (const auto& [id, row] : rows_) {
    auto it = pk_index_.find(ExtractPk(row));
    if (it == pk_index_.end() || it->second != id) {
      return Internal("pk_index missing/incorrect for row " + RowToString(row) +
                      " in table \"" + schema_.name() + "\"");
    }
  }
  if (pk_index_.size() != rows_.size()) {
    return Internal("pk_index size mismatch in table \"" + schema_.name() + "\"");
  }
  // 2. Secondary indexes exactly cover non-null column values; the null set
  //    exactly covers the NULL values; the ordered mirror (when present)
  //    agrees with the hash buckets entry-for-entry.
  for (const auto& [column, index] : secondary_) {
    const size_t col_idx = static_cast<size_t>(schema_.ColumnIndex(column));
    size_t indexed = 0;
    for (const auto& [value, ids] : index.eq) {
      for (RowId id : ids) {
        const Row* row = Find(id);
        if (row == nullptr) {
          return Internal("secondary index on \"" + column + "\" holds dead row id");
        }
        const sql::Value& actual = (*row)[col_idx];
        if (!actual.SqlEquals(value)) {
          return Internal("secondary index on \"" + column + "\" holds stale value");
        }
        ++indexed;
      }
    }
    size_t expected = 0;
    size_t expected_null = 0;
    for (const auto& [id, row] : rows_) {
      if (row[col_idx].is_null()) {
        ++expected_null;
        if (index.nulls.count(id) == 0) {
          return Internal("secondary index on \"" + column +
                          "\" null set missing a NULL row");
        }
      } else {
        ++expected;
      }
    }
    if (indexed != expected) {
      return Internal(StrFormat("secondary index on \"%s\" covers %zu rows, expected %zu",
                                column.c_str(), indexed, expected));
    }
    if (index.nulls.size() != expected_null) {
      return Internal(StrFormat(
          "secondary index on \"%s\" null set holds %zu rows, expected %zu",
          column.c_str(), index.nulls.size(), expected_null));
    }
    if (index.ordered) {
      size_t sorted_count = 0;
      for (const auto& [value, ids] : index.sorted) {
        sorted_count += ids.size();
        auto eq_it = index.eq.find(value);
        if (eq_it == index.eq.end()) {
          return Internal("ordered index on \"" + column +
                          "\" holds a value absent from the hash index");
        }
        for (RowId id : ids) {
          if (eq_it->second.count(id) == 0) {
            return Internal("ordered index on \"" + column +
                            "\" holds a row absent from the hash bucket");
          }
        }
      }
      if (sorted_count != indexed) {
        return Internal(StrFormat(
            "ordered index on \"%s\" covers %zu rows, hash index covers %zu",
            column.c_str(), sorted_count, indexed));
      }
    } else if (!index.sorted.empty()) {
      return Internal("hash-only index on \"" + column +
                      "\" carries ordered entries");
    }
  }
  return OkStatus();
}

void Table::SetPager(PageCache* pager, uint32_t table_id) {
  pager_ = pager;
  table_id_ = table_id;
}

Status Table::EnsureRowResident(RowId id) const {
  if (pager_ == nullptr) return OkStatus();
  return pager_->Access(table_id_, PageOf(id));
}

Status Table::EnsureAllResident() const {
  if (pager_ == nullptr) return OkStatus();
  uint64_t current_page = ~uint64_t{0};
  for (const auto& [id, row] : rows_) {
    const uint64_t page = PageOf(id);
    if (page == current_page) continue;
    current_page = page;
    RETURN_IF_ERROR(pager_->Access(table_id_, page));
  }
  return OkStatus();
}

void Table::CollectPageRows(uint64_t page,
                            std::vector<std::pair<RowId, const Row*>>* out) const {
  const RowId first = page * kRowsPerPage + 1;
  const RowId last = first + kRowsPerPage - 1;
  for (auto it = rows_.lower_bound(first); it != rows_.end() && it->first <= last; ++it) {
    out->emplace_back(it->first, &it->second);
  }
}

void Table::DropPageRows(uint64_t page) {
  const RowId first = page * kRowsPerPage + 1;
  const RowId last = first + kRowsPerPage - 1;
  for (auto it = rows_.lower_bound(first); it != rows_.end() && it->first <= last; ++it) {
    Row().swap(it->second);  // swap releases the heap allocation, clear() keeps it
  }
}

Status Table::InstallPageRows(uint64_t page, std::vector<std::pair<RowId, Row>>* rows) {
  const RowId first = page * kRowsPerPage + 1;
  const RowId last = first + kRowsPerPage - 1;
  // Validate before mutating: the frame must hold exactly the page's live
  // ids (a spilled page's id set cannot change — mutators fault first), with
  // schema-width payloads. Frames store rows in ascending id order.
  auto expected = rows->begin();
  for (auto it = rows_.lower_bound(first); it != rows_.end() && it->first <= last; ++it) {
    if (expected == rows->end() || expected->first != it->first) {
      return Internal("extent frame row set does not match live rows of table \"" +
                      schema_.name() + "\"");
    }
    if (expected->second.size() != schema_.num_columns()) {
      return Internal("extent frame row width mismatch in table \"" + schema_.name() +
                      "\"");
    }
    ++expected;
  }
  if (expected != rows->end()) {
    return Internal("extent frame holds rows absent from table \"" + schema_.name() +
                    "\"");
  }
  auto src = rows->begin();
  for (auto it = rows_.lower_bound(first); it != rows_.end() && it->first <= last;
       ++it, ++src) {
    it->second = std::move(src->second);
  }
  return OkStatus();
}

}  // namespace edna::db
