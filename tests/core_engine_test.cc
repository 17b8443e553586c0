// Unit-level tests of the DisguiseEngine on a deliberately tiny schema, so
// each mechanism (phase ordering, reveal records, assertions, log, vault
// interplay, statement counts) is observable in isolation.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/generator.h"
#include "src/common/clock.h"
#include "src/core/engine.h"
#include "src/disguise/spec_parser.h"
#include "src/sql/parser.h"
#include "src/vault/offline_vault.h"

namespace edna::core {
namespace {

using sql::Value;

// users (id, name, email, disabled) <- notes (id, user_id, text)
void BuildTinySchema(db::Database* db) {
  db::TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "name", .type = db::ColumnType::kString, .nullable = false})
      .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = true})
      .AddColumn({.name = "disabled", .type = db::ColumnType::kBool, .nullable = false,
                  .default_value = sql::Value::Bool(false)})
      .SetPrimaryKey({"id"});
  ASSERT_TRUE(db->CreateTable(std::move(users)).ok());

  db::TableSchema notes("notes");
  notes
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "user_id", .type = db::ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "text", .type = db::ColumnType::kString})
      .SetPrimaryKey({"id"})
      .AddForeignKey({.column = "user_id", .parent_table = "users", .parent_column = "id",
                      .on_delete = db::FkAction::kRestrict});
  ASSERT_TRUE(db->CreateTable(std::move(notes)).ok());
}

constexpr char kScrubSpec[] = R"(
disguise_name: "Scrub"
user_to_disguise: $UID
reversible: true
table users:
  generate_placeholder:
    "name" <- Random
    "email" <- Const(NULL)
    "disabled" <- Const(TRUE)
  transformations:
    Remove(pred: "id" = $UID)
table notes:
  transformations:
    Decorrelate(pred: "user_id" = $UID, foreign_key: ("user_id", users))
assert_empty users: "id" = $UID
assert_empty notes: "user_id" = $UID
)";

constexpr char kRedactAllSpec[] = R"(
disguise_name: "RedactAll"
reversible: true
table notes:
  transformations:
    Modify(pred: TRUE, column: "text", value: Redact)
)";

constexpr char kPurgeSpec[] = R"(
disguise_name: "Purge"
user_to_disguise: $UID
reversible: true
table notes:
  transformations:
    Remove(pred: "user_id" = $UID)
table users:
  transformations:
    Remove(pred: "id" = $UID)
)";

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildTinySchema(&db_);
    engine_ = std::make_unique<DisguiseEngine>(&db_, &vault_, &clock_);
    for (const char* text : {kScrubSpec, kRedactAllSpec, kPurgeSpec}) {
      auto spec = disguise::ParseDisguiseSpec(text);
      ASSERT_TRUE(spec.ok()) << spec.status();
      ASSERT_TRUE(engine_->RegisterSpec(*std::move(spec)).ok());
    }
    // Two users, three notes (two for Bea=1, one for Axl=2).
    AddUser("Bea", "bea@uni.edu");
    AddUser("Axl", "axl@uni.edu");
    AddNote(1, "first note");
    AddNote(1, "second note");
    AddNote(2, "axl note");
  }

  void AddUser(const std::string& name, const std::string& email) {
    ASSERT_TRUE(db_.InsertValues("users", {{"name", Value::String(name)},
                                           {"email", Value::String(email)}})
                    .ok());
  }
  void AddNote(int64_t uid, const std::string& text) {
    ASSERT_TRUE(db_.InsertValues("notes", {{"user_id", Value::Int(uid)},
                                           {"text", Value::String(text)}})
                    .ok());
  }
  size_t Count(const std::string& table, const std::string& pred) {
    auto e = sql::ParseExpression(pred);
    EXPECT_TRUE(e.ok());
    auto n = db_.Count(table, e->get(), {});
    EXPECT_TRUE(n.ok()) << n.status();
    return n.ok() ? *n : 0;
  }

  db::Database db_;
  vault::OfflineVault vault_;
  SimulatedClock clock_{1000};
  std::unique_ptr<DisguiseEngine> engine_;
};

TEST_F(EngineTest, RegisterRejectsInvalidAndDuplicateSpecs) {
  auto dup = disguise::ParseDisguiseSpec(kScrubSpec);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(engine_->RegisterSpec(*std::move(dup)).code(), StatusCode::kAlreadyExists);

  auto bad = disguise::ParseDisguiseSpec(R"(
disguise_name: "Bad"
table ghost:
  transformations:
    Remove(pred: TRUE)
)");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(engine_->RegisterSpec(*std::move(bad)).ok());

  EXPECT_NE(engine_->FindSpec("Scrub"), nullptr);
  EXPECT_EQ(engine_->FindSpec("Bad"), nullptr);
  EXPECT_EQ(engine_->SpecNames().size(), 3u);
}

TEST_F(EngineTest, RegisterRejectsReservedTables) {
  auto vault_spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "Sneaky"
table __edna_vault:
  transformations:
    Remove(pred: TRUE)
)");
  ASSERT_TRUE(vault_spec.ok());
  // The reserved table does not even exist in this DB, so validation fails
  // either way; what matters is that it cannot be registered.
  EXPECT_FALSE(engine_->RegisterSpec(*std::move(vault_spec)).ok());
}

TEST_F(EngineTest, ApplyRequiresUidForPerUserSpec) {
  EXPECT_EQ(engine_->Apply("Scrub", {}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_->Apply("NoSuch", {}).status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ScrubDecorrelatesBeforeRemoving) {
  // The spec lists users.Remove BEFORE notes.Decorrelate; phase ordering must
  // still make this work (decorrelation first), or the RESTRICT FK would
  // block the account deletion.
  auto result = engine_->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows_removed, 1u);
  EXPECT_EQ(result->rows_decorrelated, 2u);
  EXPECT_EQ(result->placeholders_created, 2u);
  EXPECT_EQ(Count("users", "\"id\" = 1"), 0u);
  EXPECT_EQ(Count("notes", "TRUE"), 3u);  // notes retained
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(EngineTest, EachRowGetsItsOwnPlaceholder) {
  ASSERT_TRUE(engine_->ApplyForUser("Scrub", Value::Int(1)).ok());
  auto pred = sql::ParseExpression("\"user_id\" != 2");
  auto rows = db_.Select("notes", pred->get(), {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  const db::TableSchema* schema = db_.schema().FindTable("notes");
  int idx = schema->ColumnIndex("user_id");
  // Two distinct placeholders: the notes cannot be re-correlated.
  EXPECT_NE((*(*rows)[0].row)[static_cast<size_t>(idx)],
            (*(*rows)[1].row)[static_cast<size_t>(idx)]);
}

TEST_F(EngineTest, PlaceholdersAreDisabled) {
  ASSERT_TRUE(engine_->ApplyForUser("Scrub", Value::Int(1)).ok());
  EXPECT_EQ(Count("users", "\"disabled\" = TRUE"), 2u);
  EXPECT_EQ(Count("users", "\"disabled\" = TRUE AND \"email\" IS NULL"), 2u);
}

TEST_F(EngineTest, ReversibleApplyWritesVaultAndLog) {
  auto result = engine_->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(vault_.NumRecords(), 1u);
  const LogEntry* entry = engine_->log().Find(result->disguise_id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->spec_name, "Scrub");
  EXPECT_TRUE(entry->active);
  EXPECT_TRUE(entry->reversible);
  EXPECT_EQ(entry->user_id, Value::Int(1));
  EXPECT_EQ(entry->applied_at, 1000);
  // Log mirrored into the reserved database table.
  EXPECT_TRUE(db_.HasTable(kDisguiseLogTableName));
  EXPECT_EQ(db_.FindTable(kDisguiseLogTableName)->num_rows(), 1u);
}

TEST_F(EngineTest, RevealRestoresExactState) {
  auto before_users = db_.FindTable("users")->Clone();
  auto before_notes = db_.FindTable("notes")->Clone();

  auto applied = engine_->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(applied.ok());
  auto revealed = engine_->Reveal(applied->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();

  EXPECT_EQ(db_.FindTable("users")->num_rows(), before_users.num_rows());
  EXPECT_EQ(db_.FindTable("notes")->num_rows(), before_notes.num_rows());
  EXPECT_EQ(Count("notes", "\"user_id\" = 1"), 2u);
  EXPECT_EQ(Count("users", "\"name\" = 'Bea'"), 1u);
  // Vault drained and log marked.
  EXPECT_EQ(vault_.NumRecords(), 0u);
  EXPECT_FALSE(engine_->log().Find(applied->disguise_id)->active);
}

TEST_F(EngineTest, RevealOfExpiredVaultFails) {
  auto applied = engine_->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(applied.ok());
  clock_.Advance(kYear);
  ASSERT_TRUE(vault_.ExpireBefore(clock_.Now()).ok());
  auto revealed = engine_->Reveal(applied->disguise_id);
  EXPECT_EQ(revealed.status().code(), StatusCode::kFailedPrecondition);
  // The disguise stays active (and irreversible).
  EXPECT_TRUE(engine_->log().Find(applied->disguise_id)->active);
}

TEST_F(EngineTest, RevealUnknownOrTwiceFails) {
  EXPECT_EQ(engine_->Reveal(999).status().code(), StatusCode::kNotFound);
  auto applied = engine_->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(applied.ok());
  ASSERT_TRUE(engine_->Reveal(applied->disguise_id).ok());
  EXPECT_EQ(engine_->Reveal(applied->disguise_id).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, IrreversibleSpecLeavesNoVaultRecord) {
  auto spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "HardPurge"
user_to_disguise: $UID
reversible: false
table notes:
  transformations:
    Remove(pred: "user_id" = $UID)
table users:
  transformations:
    Remove(pred: "id" = $UID)
)");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(engine_->RegisterSpec(*std::move(spec)).ok());
  auto applied = engine_->ApplyForUser("HardPurge", Value::Int(1));
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(vault_.NumRecords(), 0u);
  EXPECT_EQ(engine_->Reveal(applied->disguise_id).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, FailedAssertionRollsBackEverything) {
  auto spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "Impossible"
user_to_disguise: $UID
reversible: true
table notes:
  transformations:
    Remove(pred: "user_id" = $UID)
assert_empty users: "id" = $UID
)");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(engine_->RegisterSpec(*std::move(spec)).ok());
  size_t notes_before = db_.FindTable("notes")->num_rows();

  auto applied = engine_->ApplyForUser("Impossible", Value::Int(1));
  EXPECT_EQ(applied.status().code(), StatusCode::kIntegrityViolation);
  // Nothing changed, nothing logged, nothing vaulted.
  EXPECT_EQ(db_.FindTable("notes")->num_rows(), notes_before);
  EXPECT_EQ(vault_.NumRecords(), 0u);
  EXPECT_EQ(engine_->log().size(), 0u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(EngineTest, ModifyRecordsOldAndNewValues) {
  auto applied = engine_->Apply("RedactAll", {});
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->rows_modified, 3u);
  EXPECT_EQ(Count("notes", "\"text\" = '[redacted]'"), 3u);

  auto revealed = engine_->Reveal(applied->disguise_id);
  ASSERT_TRUE(revealed.ok());
  EXPECT_EQ(revealed->columns_restored, 3u);
  EXPECT_EQ(Count("notes", "\"text\" = 'first note'"), 1u);
}

TEST_F(EngineTest, ModifyToSameValueIsNoOp) {
  ASSERT_TRUE(engine_->Apply("RedactAll", {}).ok());
  auto again = engine_->Apply("RedactAll", {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows_modified, 0u);  // already redacted
}

TEST_F(EngineTest, RevealSkipsValuesChangedByApplication) {
  auto applied = engine_->Apply("RedactAll", {});
  ASSERT_TRUE(applied.ok());
  // The application edits one redacted note before the reveal.
  ASSERT_TRUE(db_.SetColumn("notes", 1, "text", Value::String("user edited")).ok());
  auto revealed = engine_->Reveal(applied->disguise_id);
  ASSERT_TRUE(revealed.ok());
  // The edited cell is owned by the application now; only the other two
  // notes are restored.
  EXPECT_EQ(revealed->columns_restored, 2u);
  EXPECT_EQ(Count("notes", "\"text\" = 'user edited'"), 1u);
}

TEST_F(EngineTest, PurgeAfterScrubComposesViaVirtualRecorrelation) {
  // Scrub removed Bea's account and decorrelated her notes. Purge (delete
  // notes + account) applied afterwards cannot physically recorrelate the
  // notes (the account row is gone), so the engine acts on the hypothetical
  // recorrelated rows directly: her notes must end up deleted.
  auto scrub = engine_->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(scrub.ok());
  ASSERT_EQ(Count("notes", "\"user_id\" = 1"), 0u);
  ASSERT_EQ(Count("notes", "TRUE"), 3u);

  auto purge = engine_->ApplyForUser("Purge", Value::Int(1));
  ASSERT_TRUE(purge.ok()) << purge.status();
  EXPECT_TRUE(purge->composed);
  EXPECT_EQ(purge->rows_removed, 2u);      // Bea's two (decorrelated) notes
  EXPECT_EQ(Count("notes", "TRUE"), 1u);   // only Axl's note remains
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(EngineTest, ComposeRemoveFindsDecorrelatedRows) {
  // RedactAll-style global disguise first, hiding nothing relational; then
  // check compose machinery on a decorrelating global disguise.
  auto global_spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "AnonAll"
reversible: true
table users:
  generate_placeholder:
    "name" <- Random
    "email" <- Const(NULL)
    "disabled" <- Const(TRUE)
  transformations:
    Modify(pred: "disabled" = FALSE AND "email" IS NOT NULL, column: "email", value: Hash)
table notes:
  transformations:
    Decorrelate(pred: TRUE, foreign_key: ("user_id", users))
)");
  ASSERT_TRUE(global_spec.ok()) << global_spec.status();
  ASSERT_TRUE(engine_->RegisterSpec(*std::move(global_spec)).ok());

  auto anon = engine_->Apply("AnonAll", {});
  ASSERT_TRUE(anon.ok()) << anon.status();
  ASSERT_EQ(Count("notes", "\"user_id\" = 1"), 0u);

  // Purge Bea: her notes are hidden behind AnonAll placeholders; the
  // composition pre-pass recorrelates them so Remove can find them.
  auto purge = engine_->ApplyForUser("Purge", Value::Int(1));
  ASSERT_TRUE(purge.ok()) << purge.status();
  EXPECT_TRUE(purge->composed);
  EXPECT_EQ(purge->rows_recorrelated, 2u);
  EXPECT_EQ(purge->rows_removed, 3u);  // 2 notes + account
  EXPECT_EQ(Count("users", "\"id\" = 1"), 0u);
  EXPECT_EQ(Count("notes", "TRUE"), 1u);  // only Axl's note left
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(EngineTest, ModifyStatementsDoNotGrowWithRows) {
  // Set at a time: a Modify costs one SELECT and one multi-row UPDATE
  // however many rows it rewrites.
  auto three = engine_->Apply("RedactAll", {});
  ASSERT_TRUE(three.ok()) << three.status();
  ASSERT_EQ(three->rows_modified, 3u);
  ASSERT_TRUE(engine_->Reveal(three->disguise_id).ok());

  for (int i = 0; i < 40; ++i) {
    AddNote(2, "extra " + std::to_string(i));
  }
  auto many = engine_->Apply("RedactAll", {});
  ASSERT_TRUE(many.ok()) << many.status();
  EXPECT_EQ(many->rows_modified, 43u);
  EXPECT_EQ(many->queries, three->queries);
  EXPECT_EQ(Count("notes", "\"text\" = '[redacted]'"), 43u);
}

TEST_F(EngineTest, QueriesGrowWithTouchedRows) {
  // Add many more notes for Bea and verify the per-apply query count grows
  // linearly (the §6 observation).
  auto r1 = engine_->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(engine_->Reveal(r1->disguise_id).ok());

  for (int i = 0; i < 40; ++i) {
    AddNote(1, "extra " + std::to_string(i));
  }
  auto r2 = engine_->ApplyForUser("Scrub", Value::Int(1));
  ASSERT_TRUE(r2.ok());
  // Each decorrelated row costs exactly one placeholder INSERT; the FK
  // rewrites share one UPDATE.
  EXPECT_EQ(r2->queries, r1->queries + 40);
}

TEST_F(EngineTest, GlobalDisguiseRecordsGoToGlobalVault) {
  ASSERT_TRUE(engine_->Apply("RedactAll", {}).ok());
  auto global = vault_.FetchGlobal();
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global->size(), 1u);
  EXPECT_TRUE((*global)[0].user_id.is_null());
}

// org <- team (CASCADE) <- member (CASCADE); org <- badge (CASCADE);
// org <- audit (SET NULL); org <- hold (RESTRICT). A Remove records the
// database's FK walk as reveal ops, in walk order, and the reveal undoes it.
TEST(EngineRemoveTest, RecordFollowsTheDeleteWalkAndRevealRestoresIt) {
  db::Database db;
  auto table = [](const std::string& name, const std::string& parent,
                  db::FkAction on_delete) {
    db::ColumnDef id;  // INT NOT NULL AUTO_INCREMENT
    id.name = "id";
    id.nullable = false;
    id.auto_increment = true;
    db::ColumnDef ref;  // INT NULL
    ref.name = "ref";
    db::TableSchema t(name);
    t.AddColumn(id).AddColumn(ref).SetPrimaryKey({"id"});
    if (!parent.empty()) {
      t.AddForeignKey({.column = "ref", .parent_table = parent, .parent_column = "id",
                       .on_delete = on_delete});
    }
    return t;
  };
  ASSERT_TRUE(db.CreateTable(table("org", "", db::FkAction::kRestrict)).ok());
  ASSERT_TRUE(db.CreateTable(table("team", "org", db::FkAction::kCascade)).ok());
  ASSERT_TRUE(db.CreateTable(table("member", "team", db::FkAction::kCascade)).ok());
  ASSERT_TRUE(db.CreateTable(table("badge", "org", db::FkAction::kCascade)).ok());
  ASSERT_TRUE(db.CreateTable(table("audit", "org", db::FkAction::kSetNull)).ok());
  ASSERT_TRUE(db.CreateTable(table("hold", "org", db::FkAction::kRestrict)).ok());
  const std::vector<std::pair<std::string, std::vector<int64_t>>> refs = {
      {"org", {0, 0}},          {"team", {1, 2, 1}}, {"member", {3, 1, 3}},
      {"badge", {1, 1}},        {"audit", {1, 2, 1}}, {"hold", {2}}};
  for (const auto& [name, values] : refs) {
    for (int64_t ref : values) {
      ASSERT_TRUE(
          db.InsertValues(name, {{"ref", ref == 0 ? Value::Null() : Value::Int(ref)}}).ok());
    }
  }
  auto contents = [&] {
    std::map<std::string, std::vector<std::pair<db::RowId, db::Row>>> out;
    for (const auto& [name, values] : refs) {
      auto rows = db.SelectRowsWithIds(name, nullptr, {});
      if (!rows.ok()) {
        ADD_FAILURE() << rows.status();
        continue;
      }
      out[name] = *std::move(rows);
    }
    return out;
  };
  const auto before = contents();

  vault::OfflineVault vault;
  SimulatedClock clock(0);
  DisguiseEngine engine(&db, &vault, &clock);
  auto spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "DropOrg"
user_to_disguise: $UID
reversible: true
table org:
  transformations:
    Remove(pred: "id" = $UID)
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_TRUE(engine.RegisterSpec(*std::move(spec)).ok());

  // A RESTRICT child still aborts the apply (retryable) and changes nothing.
  EXPECT_EQ(engine.ApplyForUser("DropOrg", Value::Int(2)).status().code(),
            StatusCode::kAborted);
  EXPECT_EQ(contents(), before);

  auto applied = engine.ApplyForUser("DropOrg", Value::Int(1));
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->rows_removed, 8u);
  auto records = vault.FetchForDisguise(applied->disguise_id);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1u);
  std::vector<std::string> ops;
  for (const vault::RevealOp& op : (*records)[0].ops) {
    ops.push_back(op.table + " " + std::to_string(op.row_id) +
                  (op.kind == vault::RevealOp::Kind::kRestoreRow
                       ? ""
                       : " " + op.column + "=" + op.old_value.ToSqlString() + "<-" +
                             op.new_value.ToSqlString()));
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"member 2", "team 1", "member 1", "member 3",
                                           "team 3", "badge 1", "badge 2",
                                           "audit 1 ref=1<-NULL", "audit 3 ref=1<-NULL",
                                           "org 1"}));

  ASSERT_TRUE(engine.Reveal(applied->disguise_id).ok());
  EXPECT_EQ(contents(), before);
  EXPECT_TRUE(db.CheckIntegrity().ok());
}

// The statement count of the paper's most expensive operation, pinned:
// ConfAnon over the 1x HotCRP database (430 users, 450 papers, 1400
// reviews) generated from the default seed. Every Modify and Decorrelate
// transformation writes its rows with one statement.
TEST(EngineStatementsTest, ConfAnonOnPaperScaleHotCrp) {
  db::Database db;
  auto generated = hotcrp::Populate(&db, hotcrp::Config{});
  ASSERT_TRUE(generated.ok()) << generated.status();
  vault::OfflineVault vault;
  SimulatedClock clock(0);
  DisguiseEngine engine(&db, &vault, &clock);
  auto spec = hotcrp::ConfAnonSpec();
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_TRUE(engine.RegisterSpec(*std::move(spec)).ok());

  auto anon = engine.Apply(hotcrp::kConfAnonName, {});
  ASSERT_TRUE(anon.ok()) << anon.status();
  EXPECT_EQ(anon->queries, 3594u);
}

// Statements of one per-user apply on the same database: one DELETE per
// Remove transformation plus one per matched row, with the FK cascades,
// SET NULLs and their probes inside those statements.
uint64_t PaperScaleStatements(StatusOr<disguise::DisguiseSpec> spec, int64_t uid) {
  db::Database db;
  auto generated = hotcrp::Populate(&db, hotcrp::Config{});
  if (!generated.ok() || !spec.ok()) {
    ADD_FAILURE() << generated.status() << "; " << spec.status();
    return 0;
  }
  vault::OfflineVault vault;
  SimulatedClock clock(0);
  DisguiseEngine engine(&db, &vault, &clock);
  const std::string name = spec->name();
  EXPECT_TRUE(engine.RegisterSpec(*std::move(spec)).ok());
  auto applied = engine.ApplyForUser(name, Value::Int(uid));
  EXPECT_TRUE(applied.ok()) << applied.status();
  return applied.ok() ? applied->queries : 0;
}

TEST(EngineStatementsTest, GdprOnPaperScaleHotCrp) {
  EXPECT_EQ(PaperScaleStatements(hotcrp::GdprSpec(), 3), 126u);
}

TEST(EngineStatementsTest, GdprPlusOnPaperScaleHotCrp) {
  EXPECT_EQ(PaperScaleStatements(hotcrp::GdprPlusSpec(), 20), 112u);
}

}  // namespace
}  // namespace edna::core
