#include "src/core/disguise_log.h"

#include <algorithm>

#include "src/common/failpoint.h"
#include "src/sql/parser.h"

namespace edna::core {

namespace {

db::TableSchema LogSchema() {
  db::TableSchema t(kDisguiseLogTableName);
  t.AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "specName", .type = db::ColumnType::kString, .nullable = false})
      .AddColumn({.name = "userId", .type = db::ColumnType::kString, .nullable = true})
      .AddColumn({.name = "appliedAt", .type = db::ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "reversible", .type = db::ColumnType::kBool, .nullable = false})
      .AddColumn({.name = "active", .type = db::ColumnType::kBool, .nullable = false})
      .SetPrimaryKey({"id"});
  return t;
}

}  // namespace

DisguiseLog::DisguiseLog(db::Database* db) : db_(db) {}

Status DisguiseLog::MirrorAppend(const LogEntry& e) {
  if (db_ == nullptr) {
    return OkStatus();
  }
  if (!db_->HasTable(kDisguiseLogTableName)) {
    RETURN_IF_ERROR(db_->CreateTable(LogSchema()));
  }
  db::Row row;
  row.push_back(sql::Value::Int(static_cast<int64_t>(e.id)));
  row.push_back(sql::Value::String(e.spec_name));
  row.push_back(e.user_id.is_null() ? sql::Value::Null()
                                    : sql::Value::String(e.user_id.ToSqlString()));
  row.push_back(sql::Value::Int(e.applied_at));
  row.push_back(sql::Value::Bool(e.reversible));
  row.push_back(sql::Value::Bool(e.active));
  return db_->Insert(kDisguiseLogTableName, std::move(row)).status();
}

Status DisguiseLog::MirrorMarkRevealed(uint64_t id) {
  if (db_ == nullptr || !db_->HasTable(kDisguiseLogTableName)) {
    return OkStatus();
  }
  ASSIGN_OR_RETURN(sql::ExprPtr pred, sql::ParseExpression("\"id\" = $ID"));
  sql::ParamMap params;
  params.emplace("ID", sql::Value::Int(static_cast<int64_t>(id)));
  std::vector<db::Assignment> assigns;
  assigns.push_back({.column = "active",
                     .expr = sql::Expr::Literal(sql::Value::Bool(false))});
  return db_->Update(kDisguiseLogTableName, pred.get(), params, assigns).status();
}

StatusOr<uint64_t> DisguiseLog::Append(std::string spec_name, sql::ParamMap params,
                                       sql::Value user_id, TimePoint applied_at,
                                       bool reversible) {
  EDNA_FAIL_POINT(failpoints::kLogAppend);
  // Held across the mirror write: id assignment, in-memory order, and DB
  // mirror order stay mutually consistent under concurrent appends.
  std::lock_guard<std::mutex> lock(mu_);
  LogEntry e;
  e.id = next_id_++;
  e.spec_name = std::move(spec_name);
  e.params = std::move(params);
  e.user_id = std::move(user_id);
  e.applied_at = applied_at;
  e.reversible = reversible;
  e.active = true;
  RETURN_IF_ERROR(MirrorAppend(e));
  entries_.push_back(std::move(e));
  return entries_.back().id;
}

Status DisguiseLog::MarkRevealed(uint64_t id) {
  EDNA_FAIL_POINT(failpoints::kLogMarkRevealed);
  std::lock_guard<std::mutex> lock(mu_);
  for (LogEntry& e : entries_) {
    if (e.id == id) {
      if (!e.active) {
        return FailedPrecondition("disguise already revealed");
      }
      e.active = false;
      return MirrorMarkRevealed(id);
    }
  }
  return NotFound("no disguise log entry with id " + std::to_string(id));
}

Status DisguiseLog::DropEntry(uint64_t id) {
  EDNA_FAIL_POINT(failpoints::kLogUnappend);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const LogEntry& e) { return e.id == id; });
  if (it == entries_.end()) {
    return NotFound("no disguise log entry with id " + std::to_string(id));
  }
  // next_id_ stays put: a failed apply whose unwind could not clear its
  // vault records leaves a pending journal entry under this id, and the
  // Recover() that clears it must not find a later apply's records there.
  entries_.erase(it);
  if (db_ != nullptr && db_->HasTable(kDisguiseLogTableName)) {
    ASSIGN_OR_RETURN(sql::ExprPtr pred, sql::ParseExpression("\"id\" = $ID"));
    sql::ParamMap params;
    params.emplace("ID", sql::Value::Int(static_cast<int64_t>(id)));
    RETURN_IF_ERROR(db_->Delete(kDisguiseLogTableName, pred.get(), params).status());
  }
  return OkStatus();
}

Status DisguiseLog::MarkIrreversible(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const LogEntry& e) { return e.id == id; });
  if (it == entries_.end()) {
    return NotFound("no disguise log entry with id " + std::to_string(id));
  }
  it->reversible = false;
  if (db_ == nullptr || !db_->HasTable(kDisguiseLogTableName)) {
    return OkStatus();
  }
  ASSIGN_OR_RETURN(sql::ExprPtr pred, sql::ParseExpression("\"id\" = $ID"));
  sql::ParamMap params;
  params.emplace("ID", sql::Value::Int(static_cast<int64_t>(id)));
  std::vector<db::Assignment> assigns;
  assigns.push_back({.column = "reversible",
                     .expr = sql::Expr::Literal(sql::Value::Bool(false))});
  return db_->Update(kDisguiseLogTableName, pred.get(), params, assigns).status();
}

Status DisguiseLog::EnsureMirror() {
  std::lock_guard<std::mutex> lock(mu_);
  if (db_ == nullptr || db_->HasTable(kDisguiseLogTableName)) {
    return OkStatus();
  }
  return db_->CreateTable(LogSchema());
}

Status DisguiseLog::LoadFromMirror() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.empty()) {
    return FailedPrecondition("LoadFromMirror: log already has in-memory entries");
  }
  if (db_ == nullptr || !db_->HasTable(kDisguiseLogTableName)) {
    return OkStatus();
  }
  const db::Table* t = db_->FindTable(kDisguiseLogTableName);
  Status parse_status = OkStatus();
  t->Scan([&](db::RowId, const db::Row& row) {
    LogEntry e;
    e.id = static_cast<uint64_t>(row[0].AsInt());
    e.spec_name = row[1].AsString();
    if (row[2].is_null()) {
      e.user_id = sql::Value::Null();
    } else {
      // userId is mirrored as a SQL literal; parse it back to a value.
      auto parsed = sql::ParseExpression(row[2].AsString());
      if (!parsed.ok()) {
        parse_status = parsed.status();
        return;
      }
      auto value = sql::EvaluateConstant(**parsed, {});
      if (!value.ok()) {
        parse_status = value.status();
        return;
      }
      e.user_id = *std::move(value);
    }
    e.applied_at = row[3].AsInt();
    e.reversible = row[4].AsBool();
    e.active = row[5].AsBool();
    entries_.push_back(std::move(e));
  });
  RETURN_IF_ERROR(parse_status);
  std::sort(entries_.begin(), entries_.end(),
            [](const LogEntry& a, const LogEntry& b) { return a.id < b.id; });
  next_id_ = entries_.empty() ? 1 : entries_.back().id + 1;
  return OkStatus();
}

const LogEntry* DisguiseLog::Find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const LogEntry& e : entries_) {
    if (e.id == id) {
      return &e;
    }
  }
  return nullptr;
}

std::optional<LogEntry> DisguiseLog::FindCopy(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const LogEntry& e : entries_) {
    if (e.id == id) {
      return e;
    }
  }
  return std::nullopt;
}

std::vector<LogEntry> DisguiseLog::ActiveAfterCopy(uint64_t after_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogEntry> out;
  for (const LogEntry& e : entries_) {
    if (e.id > after_id && e.active) {
      out.push_back(e);
    }
  }
  return out;
}

std::optional<LogEntry> DisguiseLog::LatestActiveFor(const std::string& spec_name,
                                                     const sql::Value& uid) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<LogEntry> latest;
  for (const LogEntry& e : entries_) {
    if (!e.active || e.spec_name != spec_name) {
      continue;
    }
    bool owner_matches = uid.is_null() ? e.user_id.is_null()
                                       : (!e.user_id.is_null() && e.user_id.SqlEquals(uid));
    if (owner_matches) {
      latest = e;  // entries_ is in apply order; the last match wins
    }
  }
  return latest;
}

}  // namespace edna::core
