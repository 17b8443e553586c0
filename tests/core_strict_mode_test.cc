// Tests for strict mode (§7: "prohibit updates to disguised data"): while a
// reversible disguise is active, application writes to the rows it
// transformed are rejected; the engine's own operations are exempt; reveal
// lifts the protection.
#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/core/engine.h"
#include "src/disguise/spec_parser.h"
#include "src/sql/parser.h"
#include "src/vault/offline_vault.h"

namespace edna::core {
namespace {

using sql::Value;

class StrictModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::TableSchema users("users");
    users
        .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "name", .type = db::ColumnType::kString, .nullable = false})
        .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = true})
        .SetPrimaryKey({"id"});
    ASSERT_TRUE(db_.CreateTable(std::move(users)).ok());

    db::TableSchema notes("notes");
    notes
        .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "user_id", .type = db::ColumnType::kInt, .nullable = false})
        .AddColumn({.name = "text", .type = db::ColumnType::kString})
        .SetPrimaryKey({"id"})
        .AddForeignKey(
            {.column = "user_id", .parent_table = "users", .parent_column = "id"});
    ASSERT_TRUE(db_.CreateTable(std::move(notes)).ok());

    EngineOptions options;
    options.protect_disguised_data = true;
    engine_ = std::make_unique<DisguiseEngine>(&db_, &vault_, &clock_, options);

    auto spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "Anon"
user_to_disguise: $UID
reversible: true
table users:
  transformations:
    Modify(pred: "id" = $UID, column: "email", value: Const(NULL))
    Modify(pred: "id" = $UID, column: "name", value: Hash)
)");
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(engine_->RegisterSpec(*std::move(spec)).ok());

    for (const char* name : {"bea", "axl"}) {
      ASSERT_TRUE(db_.InsertValues("users", {{"name", Value::String(name)},
                                             {"email", Value::String(
                                                           std::string(name) + "@x")}})
                      .ok());
    }
    ASSERT_TRUE(db_.InsertValues("notes", {{"user_id", Value::Int(1)},
                                           {"text", Value::String("n")}})
                    .ok());
  }

  db::Database db_;
  vault::OfflineVault vault_;
  SimulatedClock clock_{0};
  std::unique_ptr<DisguiseEngine> engine_;
};

TEST_F(StrictModeTest, DisguisedRowsRejectWrites) {
  auto applied = engine_->ApplyForUser("Anon", Value::Int(1));
  ASSERT_TRUE(applied.ok()) << applied.status();

  // Writes to the disguised row are vetoed...
  EXPECT_EQ(db_.SetColumn("users", 1, "name", Value::String("hack")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.DeleteRow("users", 1).code(), StatusCode::kFailedPrecondition);
  // ...including through predicate statements...
  auto pred = sql::ParseExpression("TRUE");
  std::vector<db::Assignment> assigns;
  assigns.push_back({.column = "email",
                     .expr = sql::Expr::Literal(Value::String("x"))});
  EXPECT_FALSE(db_.Update("users", pred->get(), {}, assigns).ok());
  // ...while untouched rows stay writable.
  EXPECT_TRUE(db_.SetColumn("users", 2, "name", Value::String("fine")).ok());
  EXPECT_TRUE(db_.SetColumn("notes", 1, "text", Value::String("edit ok")).ok());
}

TEST_F(StrictModeTest, RevealLiftsProtection) {
  auto applied = engine_->ApplyForUser("Anon", Value::Int(1));
  ASSERT_TRUE(applied.ok());
  ASSERT_TRUE(engine_->Reveal(applied->disguise_id).ok());
  EXPECT_TRUE(db_.SetColumn("users", 1, "name", Value::String("renamed")).ok());
  EXPECT_TRUE(db_.DeleteRow("notes", 1).ok());
  EXPECT_TRUE(db_.DeleteRow("users", 1).ok());
}

TEST_F(StrictModeTest, OverlappingDisguisesRefcount) {
  auto first = engine_->ApplyForUser("Anon", Value::Int(1));
  ASSERT_TRUE(first.ok());
  // Second disguise touching the same row (modify email back and forth is a
  // no-op; use name which changes each time through Hash of current value).
  auto second = engine_->ApplyForUser("Anon", Value::Int(1));
  ASSERT_TRUE(second.ok()) << second.status();

  ASSERT_TRUE(engine_->Reveal(second->disguise_id).ok());
  // Still protected by the first disguise.
  EXPECT_EQ(db_.SetColumn("users", 1, "name", Value::String("x")).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine_->Reveal(first->disguise_id).ok());
  EXPECT_TRUE(db_.SetColumn("users", 1, "name", Value::String("x")).ok());
}

TEST_F(StrictModeTest, EngineOperationsAreExempt) {
  auto first = engine_->ApplyForUser("Anon", Value::Int(1));
  ASSERT_TRUE(first.ok());
  // Re-applying and revealing both write to protected rows — allowed,
  // because the engine is the writer.
  auto second = engine_->ApplyForUser("Anon", Value::Int(1));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(engine_->Reveal(second->disguise_id).ok());
  EXPECT_TRUE(engine_->Reveal(first->disguise_id).ok());
}

// A SET NULL reference the database clears while deleting a parent is a
// write to the child row, and the guard vetoes it like a direct write.
TEST_F(StrictModeTest, CascadedSetNullIntoProtectedRowIsRejected) {
  db::ColumnDef id;  // INT NOT NULL AUTO_INCREMENT
  id.name = "id";
  id.nullable = false;
  id.auto_increment = true;
  db::ColumnDef user_id;  // INT NOT NULL
  user_id.name = "user_id";
  user_id.nullable = false;
  db::ColumnDef editor_id;  // INT NULL
  editor_id.name = "editor_id";
  db::ColumnDef text;  // STRING NULL
  text.name = "text";
  text.type = db::ColumnType::kString;
  db::TableSchema drafts("drafts");
  drafts.AddColumn(id)
      .AddColumn(user_id)
      .AddColumn(editor_id)
      .AddColumn(text)
      .SetPrimaryKey({"id"})
      .AddForeignKey({.column = "user_id", .parent_table = "users", .parent_column = "id",
                      .on_delete = db::FkAction::kRestrict})
      .AddForeignKey({.column = "editor_id", .parent_table = "users", .parent_column = "id",
                      .on_delete = db::FkAction::kSetNull});
  ASSERT_TRUE(db_.CreateTable(std::move(drafts)).ok());
  ASSERT_TRUE(db_.InsertValues("drafts", {{"user_id", Value::Int(1)},
                                          {"editor_id", Value::Int(2)},
                                          {"text", Value::String("d")}})
                  .ok());
  auto spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "HideDrafts"
user_to_disguise: $UID
reversible: true
table drafts:
  transformations:
    Modify(pred: "user_id" = $UID, column: "text", value: Redact)
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_TRUE(engine_->RegisterSpec(*std::move(spec)).ok());
  ASSERT_TRUE(engine_->ApplyForUser("HideDrafts", Value::Int(1)).ok());

  EXPECT_EQ(db_.SetColumn("drafts", 1, "editor_id", Value::Null()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.DeleteRow("users", 2).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db_.RowExists("users", 2));
  EXPECT_EQ(*db_.GetColumn("drafts", 1, "editor_id"), Value::Int(2));
}

TEST_F(StrictModeTest, DisabledByDefault) {
  db::Database db2;
  db::TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = true})
      .SetPrimaryKey({"id"});
  ASSERT_TRUE(db2.CreateTable(std::move(users)).ok());
  ASSERT_TRUE(db2.InsertValues("users", {{"email", Value::String("a@x")}}).ok());
  vault::OfflineVault vault2;
  DisguiseEngine engine2(&db2, &vault2, &clock_);  // default options
  auto spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "A"
user_to_disguise: $UID
reversible: true
table users:
  transformations:
    Modify(pred: "id" = $UID, column: "email", value: Const(NULL))
)");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(engine2.RegisterSpec(*std::move(spec)).ok());
  ASSERT_TRUE(engine2.ApplyForUser("A", Value::Int(1)).ok());
  // Without strict mode the application may overwrite disguised data.
  EXPECT_TRUE(db2.SetColumn("users", 1, "email", Value::String("b@x")).ok());
}

}  // namespace
}  // namespace edna::core
