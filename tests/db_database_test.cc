// Unit tests for Database: DDL, predicate DML, referential integrity
// (RESTRICT / CASCADE / SET NULL), transactions, statistics, snapshots.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/db/database.h"
#include "src/sql/parser.h"

namespace edna::db {
namespace {

using sql::Value;

sql::ExprPtr Pred(const std::string& text) {
  auto e = sql::ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status();
  return std::move(*e);
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema users("users");
    users
        .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "name", .type = ColumnType::kString, .nullable = false})
        .AddColumn({.name = "karma", .type = ColumnType::kInt, .nullable = false,
                    .default_value = sql::Value::Int(0)})
        .SetPrimaryKey({"id"});
    ASSERT_TRUE(db_.CreateTable(std::move(users)).ok());

    TableSchema posts("posts");
    posts
        .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "user_id", .type = ColumnType::kInt, .nullable = false})
        .AddColumn({.name = "body", .type = ColumnType::kString})
        .SetPrimaryKey({"id"})
        .AddForeignKey({.column = "user_id", .parent_table = "users", .parent_column = "id",
                        .on_delete = FkAction::kRestrict});
    ASSERT_TRUE(db_.CreateTable(std::move(posts)).ok());

    TableSchema likes("likes");
    likes
        .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "post_id", .type = ColumnType::kInt, .nullable = false})
        .AddColumn({.name = "fan_id", .type = ColumnType::kInt, .nullable = true})
        .SetPrimaryKey({"id"})
        .AddForeignKey({.column = "post_id", .parent_table = "posts", .parent_column = "id",
                        .on_delete = FkAction::kCascade})
        .AddForeignKey({.column = "fan_id", .parent_table = "users", .parent_column = "id",
                        .on_delete = FkAction::kSetNull});
    ASSERT_TRUE(db_.CreateTable(std::move(likes)).ok());
  }

  RowId AddUser(const std::string& name) {
    auto id = db_.InsertValues("users", {{"name", Value::String(name)}});
    EXPECT_TRUE(id.ok()) << id.status();
    return *id;
  }
  RowId AddPost(int64_t user_id, const std::string& body) {
    auto id = db_.InsertValues("posts", {{"user_id", Value::Int(user_id)},
                                         {"body", Value::String(body)}});
    EXPECT_TRUE(id.ok()) << id.status();
    return *id;
  }
  RowId AddLike(int64_t post_id, int64_t fan_id) {
    auto id = db_.InsertValues("likes", {{"post_id", Value::Int(post_id)},
                                         {"fan_id", Value::Int(fan_id)}});
    EXPECT_TRUE(id.ok()) << id.status();
    return *id;
  }
  size_t Count(const std::string& table, const std::string& pred) {
    auto e = Pred(pred);
    auto n = db_.Count(table, e.get(), {});
    EXPECT_TRUE(n.ok()) << n.status();
    return n.ok() ? *n : 0;
  }

  Database db_;
};

TEST_F(DatabaseTest, InsertValuesFillsDefaultsAndAutoIncrement) {
  RowId id = AddUser("bea");
  auto karma = db_.GetColumn("users", id, "karma");
  ASSERT_TRUE(karma.ok());
  EXPECT_EQ(*karma, Value::Int(0));  // default applied
  auto uid = db_.GetColumn("users", id, "id");
  ASSERT_TRUE(uid.ok());
  EXPECT_EQ(*uid, Value::Int(1));
}

TEST_F(DatabaseTest, InsertValuesRejectsUnknownColumn) {
  auto bad = db_.InsertValues("users", {{"ghost", Value::Int(1)}});
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, InsertEnforcesForeignKeys) {
  auto bad = db_.InsertValues("posts", {{"user_id", Value::Int(99)},
                                        {"body", Value::String("x")}});
  EXPECT_EQ(bad.status().code(), StatusCode::kIntegrityViolation);
  AddUser("bea");
  EXPECT_TRUE(db_.InsertValues("posts", {{"user_id", Value::Int(1)},
                                         {"body", Value::String("x")}})
                  .ok());
}

TEST_F(DatabaseTest, NullFkIsAllowed) {
  AddUser("bea");
  RowId post = AddPost(1, "p");
  (void)post;
  EXPECT_TRUE(db_.InsertValues("likes", {{"post_id", Value::Int(1)},
                                         {"fan_id", Value::Null()}})
                  .ok());
}

TEST_F(DatabaseTest, SelectWithPredicate) {
  AddUser("bea");
  AddUser("axl");
  AddUser("bob");
  auto pred = Pred("\"name\" LIKE 'b%'");
  auto rows = db_.Select("users", pred.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(DatabaseTest, SelectAllWithNullPredicate) {
  AddUser("a");
  AddUser("b");
  auto rows = db_.Select("users", nullptr, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(DatabaseTest, SelectWithParams) {
  AddUser("bea");
  auto pred = Pred("\"id\" = $UID");
  sql::ParamMap params;
  params.emplace("UID", Value::Int(1));
  auto rows = db_.Select("users", pred.get(), params);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(DatabaseTest, PlannerUsesPkIndex) {
  for (int i = 0; i < 20; ++i) {
    AddUser("u" + std::to_string(i));
  }
  db_.ResetStats();
  auto pred = Pred("\"id\" = 5");
  auto rows = db_.Select("users", pred.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().index_lookups, 1u);
  EXPECT_EQ(db_.stats().rows_read, 1u);  // only the matching row touched
}

TEST_F(DatabaseTest, PlannerFallsBackToScan) {
  for (int i = 0; i < 5; ++i) {
    AddUser("u" + std::to_string(i));
  }
  db_.ResetStats();
  auto pred = Pred("\"name\" = 'u3'");  // name not indexed in this schema
  auto rows = db_.Select("users", pred.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ(db_.stats().full_scans, 1u);
}

TEST_F(DatabaseTest, UpdateEvaluatesPerRow) {
  AddUser("bea");
  AddUser("axl");
  std::vector<Assignment> assigns;
  assigns.push_back({.column = "karma", .expr = std::move(*sql::ParseExpression("\"karma\" + 10"))});
  auto n = db_.Update("users", nullptr, {}, assigns);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(*db_.GetColumn("users", 1, "karma"), Value::Int(10));
}

TEST_F(DatabaseTest, UpdateRejectsUnknownColumn) {
  AddUser("bea");
  std::vector<Assignment> assigns;
  assigns.push_back({.column = "ghost", .expr = std::move(*sql::ParseExpression("1"))});
  EXPECT_FALSE(db_.Update("users", nullptr, {}, assigns).ok());
}

TEST_F(DatabaseTest, UpdateFkColumnValidated) {
  AddUser("bea");
  AddPost(1, "p");
  std::vector<Assignment> assigns;
  assigns.push_back({.column = "user_id", .expr = std::move(*sql::ParseExpression("42"))});
  auto n = db_.Update("posts", nullptr, {}, assigns);
  EXPECT_EQ(n.status().code(), StatusCode::kIntegrityViolation);
  // Failed statement rolled back: original value intact.
  EXPECT_EQ(*db_.GetColumn("posts", 1, "user_id"), Value::Int(1));
}

TEST_F(DatabaseTest, DeleteRestrictBlocksParent) {
  AddUser("bea");
  AddPost(1, "p");
  auto pred = Pred("\"id\" = 1");
  auto n = db_.Delete("users", pred.get(), {});
  EXPECT_EQ(n.status().code(), StatusCode::kIntegrityViolation);
  EXPECT_EQ(Count("users", "TRUE"), 1u);  // unchanged
}

TEST_F(DatabaseTest, DeleteCascadesThroughChain) {
  AddUser("bea");
  AddUser("fan");
  RowId post = AddPost(1, "p");
  AddLike(1, 2);
  AddLike(1, 2);
  (void)post;
  auto pred = Pred("\"id\" = 1");
  auto n = db_.Delete("posts", pred.get(), {});
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(Count("likes", "TRUE"), 0u);  // cascaded
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, DeleteSetsNullOnChildren) {
  AddUser("bea");
  AddUser("fan");
  AddPost(1, "p");
  AddLike(1, 2);
  auto pred = Pred("\"id\" = 2");  // delete the fan
  auto n = db_.Delete("users", pred.get(), {});
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_TRUE(db_.GetColumn("likes", 1, "fan_id")->is_null());
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, SetColumnChecksFkAndChildren) {
  AddUser("bea");
  AddPost(1, "p");
  // Changing the referenced PK while children exist is blocked.
  EXPECT_EQ(db_.SetColumn("users", 1, "id", Value::Int(9)).code(),
            StatusCode::kIntegrityViolation);
  // Changing an FK to a dangling value is blocked.
  EXPECT_EQ(db_.SetColumn("posts", 1, "user_id", Value::Int(9)).code(),
            StatusCode::kIntegrityViolation);
  // Valid moves work.
  AddUser("axl");
  EXPECT_TRUE(db_.SetColumn("posts", 1, "user_id", Value::Int(2)).ok());
  EXPECT_TRUE(db_.SetColumn("users", 1, "id", Value::Int(9)).ok());  // no children now
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, TransactionRollbackRestoresEverything) {
  AddUser("bea");
  AddPost(1, "p");
  ASSERT_TRUE(db_.Begin().ok());
  AddUser("temp");
  ASSERT_TRUE(db_.SetColumn("users", 1, "name", Value::String("changed")).ok());
  auto pred = Pred("\"id\" = 1");
  ASSERT_TRUE(db_.Delete("posts", pred.get(), {}).ok());
  ASSERT_TRUE(db_.Rollback().ok());

  EXPECT_EQ(Count("users", "TRUE"), 1u);
  EXPECT_EQ(*db_.GetColumn("users", 1, "name"), Value::String("bea"));
  EXPECT_EQ(Count("posts", "TRUE"), 1u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, TransactionCommitKeepsChanges) {
  ASSERT_TRUE(db_.Begin().ok());
  AddUser("bea");
  ASSERT_TRUE(db_.Commit().ok());
  EXPECT_EQ(Count("users", "TRUE"), 1u);
}

TEST_F(DatabaseTest, NestedBeginRejected) {
  ASSERT_TRUE(db_.Begin().ok());
  EXPECT_EQ(db_.Begin().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db_.Commit().ok());
  EXPECT_EQ(db_.Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.Rollback().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DatabaseTest, FailedStatementInsideTransactionUnwindsItselfOnly) {
  AddUser("bea");
  ASSERT_TRUE(db_.Begin().ok());
  AddUser("inside");
  // This delete fails midway (RESTRICT); its partial effects must unwind
  // without killing the surrounding transaction's earlier work.
  AddPost(1, "p");
  auto pred = Pred("TRUE");
  EXPECT_FALSE(db_.Delete("users", pred.get(), {}).ok());
  ASSERT_TRUE(db_.Commit().ok());
  EXPECT_EQ(Count("users", "TRUE"), 2u);
  EXPECT_EQ(Count("posts", "TRUE"), 1u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, BatchSetColumnsCountsOneQuery) {
  AddUser("a");
  AddUser("b");
  AddUser("c");
  db_.ResetStats();
  std::vector<Database::BatchUpdate> updates;
  for (RowId id = 1; id <= 3; ++id) {
    updates.push_back({id, "karma", Value::Int(5)});
  }
  auto n = db_.BatchSetColumns("users", updates);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(db_.stats().queries, 1u);
  EXPECT_EQ(db_.stats().rows_updated, 3u);
}

TEST_F(DatabaseTest, RestoreRowReinsertsWithSameId) {
  AddUser("bea");
  auto row = db_.GetRow("users", 1);
  ASSERT_TRUE(row.ok());
  auto pred = Pred("\"id\" = 1");
  ASSERT_TRUE(db_.Delete("users", pred.get(), {}).ok());
  ASSERT_TRUE(db_.RestoreRow("users", 1, *row).ok());
  EXPECT_EQ(*db_.GetColumn("users", 1, "name"), Value::String("bea"));
}

// --- Accounting contract -------------------------------------------------
// Every DML and read entry point, run once on a small fixture, with the
// exact counter deltas it must produce, and the status code and unchanged
// data of each failure class. The linear-scaling experiment and the
// benchmark's statement counts rest on these numbers.

// users: 1 bea, 2 axl, 3 bob, 4 dee. posts: 1 (by 1), 2 (by 2).
// likes: 1 (post 1, fan 3), 2 (post 2, fan 1).
void PopulateContractFixture(Database* db) {
  for (const char* name : {"bea", "axl", "bob", "dee"}) {
    ASSERT_TRUE(db->InsertValues("users", {{"name", Value::String(name)}}).ok());
  }
  for (int64_t uid : {1, 2}) {
    ASSERT_TRUE(db->InsertValues("posts", {{"user_id", Value::Int(uid)},
                                           {"body", Value::String("p")}})
                    .ok());
  }
  for (auto [post, fan] : {std::pair<int64_t, int64_t>{1, 3}, {2, 1}}) {
    ASSERT_TRUE(db->InsertValues("likes", {{"post_id", Value::Int(post)},
                                           {"fan_id", Value::Int(fan)}})
                    .ok());
  }
}

// Every row of the fixture's tables, for "a failed statement changes nothing".
std::string DumpTables(const Database& db) {
  std::string out;
  for (const char* table : {"users", "posts", "likes"}) {
    auto rows = db.SelectRowsWithIds(table, nullptr, {});
    EXPECT_TRUE(rows.ok()) << rows.status();
    out += table;
    for (const auto& [id, row] : *rows) {
      out += " " + std::to_string(id) + ":";
      for (const Value& v : row) {
        out += v.ToSqlString() + ",";
      }
    }
    out += "\n";
  }
  return out;
}

struct StatDeltas {
  uint64_t queries = 0;
  uint64_t rows_read = 0;
  uint64_t rows_inserted = 0;
  uint64_t rows_updated = 0;
  uint64_t rows_deleted = 0;
  uint64_t index_lookups = 0;
  uint64_t thread_statements = 0;
};

TEST_F(DatabaseTest, StatsCountQueriesAndRows) {
  PopulateContractFixture(&db_);
  auto id2 = Pred("\"id\" = 2");
  auto by_user1 = Pred("\"user_id\" = 1");
  auto by_user2 = Pred("\"user_id\" = 2");
  auto bob = Pred("\"name\" = 'bob'");  // unindexed: scan + residual
  std::vector<Assignment> bump;
  bump.push_back({.column = "karma", .expr = std::move(*sql::ParseExpression("\"karma\" + 1"))});

  struct Case {
    const char* entry_point;
    std::function<Status(Database&)> run;
    StatDeltas want;
  };
  const std::vector<Case> cases = {
      // FK check on user_id: one index lookup.
      {"Insert",
       [](Database& db) {
         return db.Insert("posts", {Value::Null(), Value::Int(1), Value::String("x")}).status();
       },
       {.queries = 1, .rows_inserted = 1, .index_lookups = 1, .thread_statements = 1}},
      {"InsertValues",
       [](Database& db) {
         return db.InsertValues("likes", {{"post_id", Value::Int(2)}, {"fan_id", Value::Int(4)}})
             .status();
       },
       {.queries = 1, .rows_inserted = 1, .index_lookups = 2, .thread_statements = 1}},
      {"Select",
       [&](Database& db) { return db.Select("users", id2.get(), {}).status(); },
       {.queries = 1, .rows_read = 1, .index_lookups = 1, .thread_statements = 1}},
      {"SelectRows",
       [&](Database& db) { return db.SelectRows("posts", by_user1.get(), {}).status(); },
       {.queries = 1, .rows_read = 1, .index_lookups = 1, .thread_statements = 1}},
      {"SelectRowsWithIds",
       [&](Database& db) { return db.SelectRowsWithIds("users", bob.get(), {}).status(); },
       {.queries = 1, .rows_read = 4, .thread_statements = 1}},
      {"Count",
       [](Database& db) { return db.Count("likes", nullptr, {}).status(); },
       {.queries = 1, .rows_read = 2, .thread_statements = 1}},
      // One SELECT plus one UPDATE per row, as Edna issues them.
      {"Update",
       [&](Database& db) { return db.Update("users", nullptr, {}, bump).status(); },
       {.queries = 5, .rows_read = 4, .rows_updated = 4, .thread_statements = 5}},
      // One DELETE per matched row; the cascaded like rides along.
      {"Delete",
       [&](Database& db) { return db.Delete("posts", by_user2.get(), {}).status(); },
       {.queries = 2, .rows_read = 1, .rows_deleted = 2, .index_lookups = 2,
        .thread_statements = 2}},
      // One statement for every write, one FK check per write.
      {"BatchSetColumns",
       [](Database& db) {
         return db.BatchSetColumns("posts", {{1, "user_id", Value::Int(4)},
                                             {2, "user_id", Value::Int(4)}})
             .status();
       },
       {.queries = 1, .rows_updated = 2, .index_lookups = 2, .thread_statements = 1}},
      // A PK change probes each referencing child table.
      {"SetColumn",
       [](Database& db) { return db.SetColumn("users", 4, "id", Value::Int(9)); },
       {.queries = 1, .rows_updated = 1, .index_lookups = 2, .thread_statements = 1}},
      // SET NULL on the like bob is a fan of.
      {"DeleteRow",
       [](Database& db) { return db.DeleteRow("users", 3); },
       {.queries = 1, .rows_updated = 1, .rows_deleted = 1, .index_lookups = 2,
        .thread_statements = 1}},
      {"RestoreRow",
       [](Database& db) {
         return db.RestoreRow("posts", 7, {Value::Int(7), Value::Int(1), Value::String("r")});
       },
       {.queries = 1, .rows_inserted = 1, .index_lookups = 1, .thread_statements = 1}},
      // Row-level reads are not statements.
      {"GetRow",
       [](Database& db) { return db.GetRow("users", 1).status(); },
       {.rows_read = 1}},
      {"GetColumn",
       [](Database& db) { return db.GetColumn("users", 1, "name").status(); },
       {.rows_read = 1}},
      {"RowExists",
       [](Database& db) {
         return db.RowExists("users", 1) ? OkStatus() : NotFound("row 1 missing");
       },
       {}},
      {"LookupPk",
       [](Database& db) {
         PkKey key;
         key.values.push_back(Value::Int(1));
         return db.LookupPk("users", key).status();
       },
       {.index_lookups = 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.entry_point);
    std::unique_ptr<Database> db = db_.Snapshot();
    const DbStats before = db->stats();
    const uint64_t statements_before = Database::ThreadStatements();
    const Status status = c.run(*db);
    ASSERT_TRUE(status.ok()) << status;
    const DbStats& after = db->stats();
    EXPECT_EQ(after.queries - before.queries, c.want.queries);
    EXPECT_EQ(after.rows_read - before.rows_read, c.want.rows_read);
    EXPECT_EQ(after.rows_inserted - before.rows_inserted, c.want.rows_inserted);
    EXPECT_EQ(after.rows_updated - before.rows_updated, c.want.rows_updated);
    EXPECT_EQ(after.rows_deleted - before.rows_deleted, c.want.rows_deleted);
    EXPECT_EQ(after.index_lookups - before.index_lookups, c.want.index_lookups);
    EXPECT_EQ(Database::ThreadStatements() - statements_before, c.want.thread_statements);
    EXPECT_TRUE(db->CheckIntegrity().ok());
  }
}

TEST_F(DatabaseTest, FailedStatementsReportCodeAndChangeNothing) {
  PopulateContractFixture(&db_);
  auto all = Pred("TRUE");
  auto id1 = Pred("\"id\" = 1");
  auto assign = [](const char* column, const char* expr) {
    std::vector<Assignment> out;
    out.push_back({.column = column, .expr = std::move(*sql::ParseExpression(expr))});
    return out;
  };
  const std::vector<Assignment> ghost_karma = assign("ghost", "1");
  const std::vector<Assignment> dangling_author = assign("user_id", "99");
  const std::vector<Assignment> any_karma = assign("karma", "1");
  PkKey pk99;
  pk99.values.push_back(Value::Int(99));

  struct Case {
    const char* what;
    std::function<Status(Database&)> run;
    StatusCode want;
  };
  const std::vector<Case> cases = {
      // Unknown table.
      {"Insert ghost", [](Database& db) { return db.Insert("ghost", {}).status(); },
       StatusCode::kNotFound},
      {"InsertValues ghost",
       [](Database& db) { return db.InsertValues("ghost", {}).status(); },
       StatusCode::kNotFound},
      {"Select ghost",
       [&](Database& db) { return db.Select("ghost", all.get(), {}).status(); },
       StatusCode::kNotFound},
      {"SelectRows ghost",
       [&](Database& db) { return db.SelectRows("ghost", all.get(), {}).status(); },
       StatusCode::kNotFound},
      {"SelectRowsWithIds ghost",
       [&](Database& db) { return db.SelectRowsWithIds("ghost", all.get(), {}).status(); },
       StatusCode::kNotFound},
      {"Count ghost", [&](Database& db) { return db.Count("ghost", all.get(), {}).status(); },
       StatusCode::kNotFound},
      {"Update ghost",
       [&](Database& db) { return db.Update("ghost", nullptr, {}, any_karma).status(); },
       StatusCode::kNotFound},
      {"Delete ghost", [&](Database& db) { return db.Delete("ghost", all.get(), {}).status(); },
       StatusCode::kNotFound},
      {"BatchSetColumns ghost",
       [](Database& db) {
         return db.BatchSetColumns("ghost", {{1, "karma", Value::Int(1)}}).status();
       },
       StatusCode::kNotFound},
      {"SetColumn ghost",
       [](Database& db) { return db.SetColumn("ghost", 1, "karma", Value::Int(1)); },
       StatusCode::kNotFound},
      {"DeleteRow ghost", [](Database& db) { return db.DeleteRow("ghost", 1); },
       StatusCode::kNotFound},
      {"RestoreRow ghost", [](Database& db) { return db.RestoreRow("ghost", 1, {}); },
       StatusCode::kNotFound},
      {"GetRow ghost", [](Database& db) { return db.GetRow("ghost", 1).status(); },
       StatusCode::kNotFound},
      {"GetColumn ghost",
       [](Database& db) { return db.GetColumn("ghost", 1, "karma").status(); },
       StatusCode::kNotFound},
      {"LookupPk ghost", [&](Database& db) { return db.LookupPk("ghost", pk99).status(); },
       StatusCode::kNotFound},
      // Unknown column.
      {"InsertValues column",
       [](Database& db) {
         return db.InsertValues("users", {{"ghost", Value::Int(1)}}).status();
       },
       StatusCode::kNotFound},
      {"Update column",
       [&](Database& db) { return db.Update("users", nullptr, {}, ghost_karma).status(); },
       StatusCode::kNotFound},
      {"BatchSetColumns column",
       [](Database& db) {
         return db.BatchSetColumns("users", {{1, "karma", Value::Int(5)},
                                             {2, "ghost", Value::Int(5)}})
             .status();
       },
       StatusCode::kNotFound},
      {"SetColumn column",
       [](Database& db) { return db.SetColumn("users", 1, "ghost", Value::Int(1)); },
       StatusCode::kNotFound},
      {"GetColumn column",
       [](Database& db) { return db.GetColumn("users", 1, "ghost").status(); },
       StatusCode::kNotFound},
      // Missing row.
      {"BatchSetColumns row",
       [](Database& db) {
         return db.BatchSetColumns("users", {{1, "karma", Value::Int(5)},
                                             {99, "karma", Value::Int(5)}})
             .status();
       },
       StatusCode::kNotFound},
      {"SetColumn row",
       [](Database& db) { return db.SetColumn("users", 99, "name", Value::String("x")); },
       StatusCode::kNotFound},
      {"DeleteRow row", [](Database& db) { return db.DeleteRow("users", 99); },
       StatusCode::kNotFound},
      {"GetRow row", [](Database& db) { return db.GetRow("users", 99).status(); },
       StatusCode::kNotFound},
      {"GetColumn row",
       [](Database& db) { return db.GetColumn("users", 99, "name").status(); },
       StatusCode::kNotFound},
      {"LookupPk row", [&](Database& db) { return db.LookupPk("users", pk99).status(); },
       StatusCode::kNotFound},
      {"RestoreRow live id",
       [](Database& db) {
         return db.RestoreRow("users", 1, {Value::Int(1), Value::String("x"), Value::Int(0)});
       },
       StatusCode::kAlreadyExists},
      // FK violations.
      {"Insert FK",
       [](Database& db) {
         return db.Insert("posts", {Value::Null(), Value::Int(99), Value::String("x")})
             .status();
       },
       StatusCode::kIntegrityViolation},
      {"Update FK",
       [&](Database& db) { return db.Update("posts", nullptr, {}, dangling_author).status(); },
       StatusCode::kIntegrityViolation},
      {"BatchSetColumns FK",
       [](Database& db) {
         return db.BatchSetColumns("posts", {{1, "user_id", Value::Int(3)},
                                             {2, "user_id", Value::Int(99)}})
             .status();
       },
       StatusCode::kIntegrityViolation},
      {"SetColumn FK",
       [](Database& db) { return db.SetColumn("posts", 1, "user_id", Value::Int(99)); },
       StatusCode::kIntegrityViolation},
      {"SetColumn referenced PK",
       [](Database& db) { return db.SetColumn("users", 1, "id", Value::Int(9)); },
       StatusCode::kIntegrityViolation},
      {"RestoreRow FK",
       [](Database& db) {
         return db.RestoreRow("posts", 7, {Value::Int(7), Value::Int(99), Value::String("r")});
       },
       StatusCode::kIntegrityViolation},
      // RESTRICT.
      {"Delete RESTRICT",
       [&](Database& db) { return db.Delete("users", id1.get(), {}).status(); },
       StatusCode::kIntegrityViolation},
      {"DeleteRow RESTRICT", [](Database& db) { return db.DeleteRow("users", 2); },
       StatusCode::kIntegrityViolation},
  };
  const std::string fixture = DumpTables(db_);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::unique_ptr<Database> db = db_.Snapshot();
    EXPECT_EQ(c.run(*db).code(), c.want);
    EXPECT_FALSE(db->InTransaction());
    EXPECT_EQ(DumpTables(*db), fixture);
    EXPECT_TRUE(db->CheckIntegrity().ok());
  }
  EXPECT_FALSE(db_.RowExists("ghost", 1));
}

TEST_F(DatabaseTest, SnapshotIsDeepCopy) {
  AddUser("bea");
  auto snap = db_.Snapshot();
  AddUser("axl");
  EXPECT_EQ(snap->FindTable("users")->num_rows(), 1u);
  EXPECT_EQ(db_.FindTable("users")->num_rows(), 2u);
  EXPECT_TRUE(snap->CheckIntegrity().ok());
  // Snapshot continues auto-increment correctly.
  auto id = snap->InsertValues("users", {{"name", Value::String("new")}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*snap->GetColumn("users", *id, "id"), Value::Int(2));
}

// A delete follows the FK links of the catalog as it stands at the
// statement: children created after the parent is already in use get their
// delete actions, and a snapshot keeps the links of the catalog it copied.
TEST_F(DatabaseTest, DeleteFollowsChildrenCreatedLater) {
  ColumnDef id;  // INT NOT NULL AUTO_INCREMENT
  id.name = "id";
  id.nullable = false;
  id.auto_increment = true;
  ColumnDef org_id;  // INT NULL
  org_id.name = "org_id";
  TableSchema org("org");
  org.AddColumn(id).SetPrimaryKey({"id"});
  ASSERT_TRUE(db_.CreateTable(std::move(org)).ok());
  auto child = [&](const std::string& name, FkAction on_delete) {
    TableSchema t(name);
    t.AddColumn(id)
        .AddColumn(org_id)
        .SetPrimaryKey({"id"})
        .AddForeignKey({.column = "org_id", .parent_table = "org", .parent_column = "id",
                        .on_delete = on_delete});
    return t;
  };
  auto add_row = [](Database& db, const std::string& table, int64_t org_id) {
    ASSERT_TRUE(db.InsertValues(table, {{"org_id", Value::Int(org_id)}}).ok());
  };
  auto lookups_of = [](Database& db, RowId id, StatusCode want) {
    const uint64_t before = db.stats().index_lookups;
    EXPECT_EQ(db.DeleteRow("org", id).code(), want) << "org row " << id;
    return db.stats().index_lookups - before;
  };
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db_.Insert("org", {Value::Null()}).ok());
  }
  // The parent's links are in use before any child exists.
  EXPECT_EQ(lookups_of(db_, 1, StatusCode::kOk), 0u);

  ASSERT_TRUE(db_.CreateTable(child("org_restrict", FkAction::kRestrict)).ok());
  ASSERT_TRUE(db_.CreateTable(child("org_cascade", FkAction::kCascade)).ok());
  ASSERT_TRUE(db_.CreateTable(child("org_setnull", FkAction::kSetNull)).ok());
  add_row(db_, "org_cascade", 2);
  add_row(db_, "org_setnull", 2);
  add_row(db_, "org_restrict", 3);
  EXPECT_EQ(lookups_of(db_, 2, StatusCode::kOk), 3u);
  EXPECT_EQ(db_.FindTable("org_cascade")->num_rows(), 0u);
  EXPECT_EQ(*db_.GetColumn("org_setnull", 1, "org_id"), Value::Null());
  // Children are probed in creation order, so the RESTRICT child stops the
  // delete at the first probe.
  EXPECT_EQ(lookups_of(db_, 3, StatusCode::kIntegrityViolation), 1u);
  EXPECT_TRUE(db_.RowExists("org", 3));

  std::unique_ptr<Database> copy = db_.Snapshot();
  ASSERT_TRUE(db_.CreateTable(child("org_late", FkAction::kRestrict)).ok());
  add_row(db_, "org_late", 4);
  EXPECT_EQ(lookups_of(db_, 4, StatusCode::kIntegrityViolation), 4u);
  EXPECT_TRUE(db_.RowExists("org", 4));
  EXPECT_EQ(lookups_of(db_, 5, StatusCode::kOk), 4u);
  EXPECT_FALSE(copy->HasTable("org_late"));
  EXPECT_EQ(lookups_of(*copy, 4, StatusCode::kOk), 3u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
  EXPECT_TRUE(copy->CheckIntegrity().ok());
}

// org <- team (CASCADE) <- member (CASCADE); org <- badge (CASCADE);
// org <- audit (SET NULL); org <- hold (RESTRICT). A delete reports what its
// FK walk changed, in the order it changed it.
TEST_F(DatabaseTest, DeleteReportsCascadeInWalkOrder) {
  auto table = [](const std::string& name, const std::string& parent, FkAction on_delete) {
    ColumnDef id;  // INT NOT NULL AUTO_INCREMENT
    id.name = "id";
    id.nullable = false;
    id.auto_increment = true;
    ColumnDef ref;  // INT NULL
    ref.name = "ref";
    TableSchema t(name);
    t.AddColumn(id).AddColumn(ref).SetPrimaryKey({"id"});
    if (!parent.empty()) {
      t.AddForeignKey({.column = "ref", .parent_table = parent, .parent_column = "id",
                       .on_delete = on_delete});
    }
    return t;
  };
  ASSERT_TRUE(db_.CreateTable(table("org", "", FkAction::kRestrict)).ok());
  ASSERT_TRUE(db_.CreateTable(table("team", "org", FkAction::kCascade)).ok());
  ASSERT_TRUE(db_.CreateTable(table("member", "team", FkAction::kCascade)).ok());
  ASSERT_TRUE(db_.CreateTable(table("badge", "org", FkAction::kCascade)).ok());
  ASSERT_TRUE(db_.CreateTable(table("audit", "org", FkAction::kSetNull)).ok());
  ASSERT_TRUE(db_.CreateTable(table("hold", "org", FkAction::kRestrict)).ok());
  const std::vector<std::pair<std::string, std::vector<int64_t>>> refs = {
      {"org", {0, 0}},          {"team", {1, 2, 1}}, {"member", {3, 1, 3}},
      {"badge", {1, 1}},        {"audit", {1, 2, 1}}, {"hold", {2}}};
  for (const auto& [name, values] : refs) {
    for (int64_t ref : values) {
      ASSERT_TRUE(
          db_.InsertValues(name, {{"ref", ref == 0 ? Value::Null() : Value::Int(ref)}}).ok());
    }
  }
  using Contents = std::map<std::pair<std::string, RowId>, Row>;
  auto contents = [&] {
    Contents out;
    for (const auto& [name, values] : refs) {
      auto rows = db_.SelectRowsWithIds(name, nullptr, {});
      if (!rows.ok()) {
        ADD_FAILURE() << rows.status();
        continue;
      }
      for (auto& [id, row] : *rows) {
        out[{name, id}] = std::move(row);
      }
    }
    return out;
  };
  const Contents before = contents();
  // Checks the report against the expected walk: each removed row carries
  // its image from `before`, each nulled reference its old value.
  auto expect_walk = [&](const std::vector<DeleteChange>& report) {
    std::vector<std::string> walk;
    for (const DeleteChange& c : report) {
      walk.push_back(c.table + " " + std::to_string(c.id) +
                     (c.column.empty() ? "" : " " + c.column + "=" + c.old_value.ToSqlString()));
      if (c.column.empty()) {
        EXPECT_EQ(c.row, before.at({c.table, c.id})) << walk.back();
      } else {
        EXPECT_TRUE(c.row.empty()) << walk.back();
      }
    }
    EXPECT_EQ(walk, (std::vector<std::string>{"member 2", "team 1", "member 1", "member 3",
                                              "team 3", "badge 1", "badge 2", "audit 1 ref=1",
                                              "audit 3 ref=1", "org 1"}));
  };

  // Inside an explicit transaction the report is the same, and Rollback
  // restores every change it names.
  ASSERT_TRUE(db_.Begin().ok());
  std::vector<DeleteChange> report;
  ASSERT_TRUE(db_.DeleteRow("org", 1, &report).ok());
  expect_walk(report);
  ASSERT_TRUE(db_.Rollback().ok());
  EXPECT_EQ(contents(), before);

  // A RESTRICT child fails the statement after its cascades ran: nothing is
  // reported and nothing changes.
  report.clear();
  auto org2 = Pred("id = 2");
  EXPECT_EQ(db_.Delete("org", org2.get(), {}, &report).status().code(),
            StatusCode::kIntegrityViolation);
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(contents(), before);

  // One statement for the SELECT plus one for the matched row; cascaded
  // rows and nulled references cost none.
  auto org1 = Pred("id = 1");
  const uint64_t statements = Database::ThreadStatements();
  auto deleted = db_.Delete("org", org1.get(), {}, &report);
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_EQ(*deleted, 1u);
  EXPECT_EQ(Database::ThreadStatements() - statements, 2u);
  expect_walk(report);
  EXPECT_EQ(*db_.GetColumn("audit", 1, "ref"), Value::Null());
  EXPECT_EQ(*db_.GetColumn("audit", 2, "ref"), Value::Int(2));
  EXPECT_EQ(db_.TotalRows(), before.size() - 8);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, TotalRowsSumsTables) {
  AddUser("bea");
  AddPost(1, "p");
  AddLike(1, 1);
  EXPECT_EQ(db_.TotalRows(), 3u);
}

TEST_F(DatabaseTest, CheckIntegrityDetectsNothingOnCleanDb) {
  AddUser("bea");
  AddPost(1, "p");
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, UnknownTableErrors) {
  EXPECT_EQ(db_.Select("ghost", nullptr, {}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.Insert("ghost", {}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.Delete("ghost", nullptr, {}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.DeleteRow("ghost", 1).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace edna::db
