// Focused tests of Reveal's interim-disguise filtering paths (§4.2): every
// combination of restored artifact (row / column / placeholder) with a later
// disguise's Remove / Modify / Decorrelate, plus the disguise log itself.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/generator.h"
#include "src/common/clock.h"
#include "src/core/engine.h"
#include "src/disguise/spec_parser.h"
#include "src/sql/parser.h"
#include "src/vault/encrypted_vault.h"
#include "src/vault/offline_vault.h"

namespace edna::core {
namespace {

using sql::Value;

// --- DisguiseLog unit tests -----------------------------------------------------

TEST(DisguiseLogTest, AppendFindMark) {
  DisguiseLog log(nullptr);
  auto id1 = log.Append("A", {}, Value::Int(1), 100, true);
  ASSERT_TRUE(id1.ok());
  auto id2 = log.Append("B", {}, Value::Null(), 200, false);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id1, 1u);
  EXPECT_EQ(*id2, 2u);

  const LogEntry* a = log.Find(*id1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->spec_name, "A");
  EXPECT_TRUE(a->active);
  EXPECT_TRUE(a->reversible);
  EXPECT_EQ(log.Find(99), nullptr);

  ASSERT_TRUE(log.MarkRevealed(*id1).ok());
  EXPECT_FALSE(log.Find(*id1)->active);
  EXPECT_EQ(log.MarkRevealed(*id1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.MarkRevealed(99).code(), StatusCode::kNotFound);
}

TEST(DisguiseLogTest, ActiveIntervals) {
  DisguiseLog log(nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.Append("S" + std::to_string(i), {}, Value::Null(), i, true).ok());
  }
  ASSERT_TRUE(log.MarkRevealed(3).ok());
  auto after = log.ActiveAfterCopy(1);
  ASSERT_EQ(after.size(), 3u);  // 2, 4, 5 (3 revealed)
  EXPECT_EQ(after[0].id, 2u);
  EXPECT_EQ(after[2].id, 5u);
}

// --- Reveal filtering: restored ROWS through later disguises ----------------------

class RevealPathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hotcrp::Config config;
    config.num_users = 50;
    config.num_pc = 6;
    config.num_papers = 30;
    config.num_reviews = 90;
    auto generated = hotcrp::Populate(&db_, config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    gen_ = *generated;
    engine_ = std::make_unique<DisguiseEngine>(&db_, &vault_, &clock_);
    ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::GdprSpec()).ok());
    ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::GdprPlusSpec()).ok());
    ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::ConfAnonSpec()).ok());
  }

  size_t CountFor(const char* table, int64_t uid) {
    auto pred = sql::ParseExpression("\"contactId\" = " + std::to_string(uid));
    return *db_.Count(table, pred->get(), {});
  }

  db::Database db_;
  hotcrp::Generated gen_;
  vault::OfflineVault vault_;
  SimulatedClock clock_{7};
  std::unique_ptr<DisguiseEngine> engine_;
};

TEST_F(RevealPathsTest, RestoredRowsAreDecorrelatedByInterimConfAnon) {
  // GDPR removed Bea's reviews entirely. ConfAnon then anonymized the
  // conference. Revealing GDPR must bring the review TEXTS back (they are
  // part of the record) but attributed to placeholders, not to Bea.
  int64_t uid = gen_.pc_contact_ids[1];
  size_t reviews_before = CountFor("PaperReview", uid);
  ASSERT_GT(reviews_before, 0u);
  size_t total_before = db_.FindTable("PaperReview")->num_rows();

  auto gdpr = engine_->ApplyForUser(hotcrp::kGdprName, Value::Int(uid));
  ASSERT_TRUE(gdpr.ok()) << gdpr.status();
  ASSERT_EQ(db_.FindTable("PaperReview")->num_rows(), total_before - reviews_before);

  auto anon = engine_->Apply(hotcrp::kConfAnonName, {});
  ASSERT_TRUE(anon.ok()) << anon.status();

  auto revealed = engine_->Reveal(gdpr->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();

  // Bea's account is back (ConfAnon pseudonymizes but does not remove
  // accounts); her reviews exist again but are NOT attributed to her.
  auto upred = sql::ParseExpression("\"contactId\" = " + std::to_string(uid));
  EXPECT_EQ(*db_.Count("ContactInfo", upred->get(), {}), 1u);
  EXPECT_EQ(db_.FindTable("PaperReview")->num_rows(), total_before);
  EXPECT_EQ(CountFor("PaperReview", uid), 0u);
  EXPECT_GT(revealed->values_redisguised, 0u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(RevealPathsTest, RestoredRowSuppressedByInterimRemove) {
  // A later disguise that removes ALL action-log rows must keep suppressing
  // rows a reveal would otherwise restore.
  auto wipe_spec = disguise::ParseDisguiseSpec(R"(
disguise_name: "LogWipe"
reversible: true
table ActionLog:
  transformations:
    Remove(pred: TRUE)
)");
  ASSERT_TRUE(wipe_spec.ok());
  ASSERT_TRUE(engine_->RegisterSpec(*std::move(wipe_spec)).ok());

  // First a per-user GDPR (whose reveal record includes the user's account;
  // its ActionLog rows are nulled, not removed, so pick a direct wipe).
  auto first = engine_->Apply("LogWipe", {});
  ASSERT_TRUE(first.ok());
  size_t wiped = first->rows_removed;
  ASSERT_GT(wiped, 0u);

  // Re-populate a couple of log rows, then wipe again with a second
  // application (models periodic wipes).
  ASSERT_TRUE(db_.InsertValues("ActionLog", {{"contactId", Value::Int(gen_.pc_contact_ids[0])},
                                             {"action", Value::String("x")},
                                             {"ipaddr", Value::String("10.0.0.1")},
                                             {"timestamp", Value::Int(1)}})
                  .ok());
  auto second = engine_->Apply("LogWipe", {});
  ASSERT_TRUE(second.ok());

  // Revealing the FIRST wipe must restore nothing: the second (still
  // active) wipe removes every row the reveal would reintroduce.
  auto revealed = engine_->Reveal(first->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  EXPECT_EQ(revealed->rows_restored, 0u);
  EXPECT_EQ(revealed->rows_suppressed, wiped);
  EXPECT_EQ(db_.FindTable("ActionLog")->num_rows(), 0u);
}

TEST_F(RevealPathsTest, RestoredColumnRedisguisedByInterimModify) {
  // Scrub modifies nothing textual, so build a Modify-only pair: redact
  // review texts (reversible), then redact them differently, then reveal the
  // first — values must come back through the SECOND disguise's generator,
  // not as the originals.
  auto spec1 = disguise::ParseDisguiseSpec(R"(
disguise_name: "RedactA"
reversible: true
table PaperReview:
  transformations:
    Modify(pred: TRUE, column: "reviewText", value: Const('[A]'))
)");
  auto spec2 = disguise::ParseDisguiseSpec(R"(
disguise_name: "HashB"
reversible: true
table PaperReview:
  transformations:
    Modify(pred: "reviewText" = '[A]', column: "reviewText", value: Const('[B]'))
)");
  ASSERT_TRUE(spec1.ok());
  ASSERT_TRUE(spec2.ok());
  ASSERT_TRUE(engine_->RegisterSpec(*std::move(spec1)).ok());
  ASSERT_TRUE(engine_->RegisterSpec(*std::move(spec2)).ok());

  auto a = engine_->Apply("RedactA", {});
  ASSERT_TRUE(a.ok());
  auto b = engine_->Apply("HashB", {});
  ASSERT_TRUE(b.ok());
  ASSERT_GT(b->rows_modified, 0u);

  // Reveal A: the current value is '[B]' (not what A wrote), so A's restore
  // is suppressed cell by cell — B still owns the data.
  auto revealed = engine_->Reveal(a->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  EXPECT_EQ(revealed->columns_restored, 0u);
  EXPECT_GT(revealed->rows_suppressed, 0u);
  auto pred = sql::ParseExpression("\"reviewText\" = '[B]'");
  EXPECT_EQ(*db_.Count("PaperReview", pred->get(), {}),
            db_.FindTable("PaperReview")->num_rows());
}

TEST_F(RevealPathsTest, PlaceholderKeptWhenStillReferenced) {
  // GDPR+ for Bea creates placeholders. ConfAnon afterwards re-decorrelates
  // everything (fresh placeholders), so Bea's GDPR+ placeholders become
  // unreferenced and CAN be dropped on reveal; but reviews now point at
  // ConfAnon placeholders, so the FK restores are suppressed.
  int64_t uid = gen_.pc_contact_ids[2];
  auto scrub = engine_->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(uid));
  ASSERT_TRUE(scrub.ok());
  auto anon = engine_->Apply(hotcrp::kConfAnonName, {});
  ASSERT_TRUE(anon.ok());

  auto revealed = engine_->Reveal(scrub->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  EXPECT_EQ(CountFor("PaperReview", uid), 0u);  // ConfAnon still hides them
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

// --- Reveal records that no longer fit the schema -----------------------------------

// Every application table's rows with their ids (engine tables excluded).
std::string DumpApplicationTables(const db::Database& db) {
  std::string out;
  for (const db::TableSchema& ts : db.schema().tables()) {
    if (ts.name().rfind("__edna", 0) == 0) {
      continue;
    }
    auto rows = db.SelectRowsWithIds(ts.name(), nullptr, {});
    EXPECT_TRUE(rows.ok()) << rows.status();
    out += ts.name();
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

TEST_F(RevealPathsTest, RecordSchemaMismatchFailsWithoutRetryOrChange) {
  struct Case {
    const char* what;
    // Edits one op of the record; false if the record has no op to edit.
    std::function<bool(vault::RevealRecord&)> tamper;
    StatusCode want;
    const char* message_names;
  };
  const std::vector<Case> cases = {
      {"unknown table",
       [](vault::RevealRecord& rec) {
         if (rec.ops.empty()) {
           return false;
         }
         rec.ops.front().table = "Ghost";
         return true;
       },
       StatusCode::kInternal, "\"Ghost\""},
      // Not kAborted: a conflict status would make the batch executor retry
      // a record that can never apply.
      {"unknown column",
       [](vault::RevealRecord& rec) {
         for (vault::RevealOp& op : rec.ops) {
           if (op.kind == vault::RevealOp::Kind::kRestoreColumn) {
             op.column = "ghost";
             return true;
           }
         }
         return false;
       },
       StatusCode::kInternal, "\"ghost\""},
      {"row wider than the schema",
       [](vault::RevealRecord& rec) {
         for (vault::RevealOp& op : rec.ops) {
           if (op.kind == vault::RevealOp::Kind::kRestoreRow) {
             op.row.push_back(Value::Int(1));
             return true;
           }
         }
         return false;
       },
       StatusCode::kFailedPrecondition, "wider"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(c.what);
    auto applied =
        engine_->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(gen_.pc_contact_ids[i]));
    ASSERT_TRUE(applied.ok()) << applied.status();
    const uint64_t id = applied->disguise_id;
    auto records = vault_.FetchForDisguise(id);
    ASSERT_TRUE(records.ok()) << records.status();
    ASSERT_TRUE(vault_.Remove(id).ok());
    bool tampered = false;
    for (vault::RevealRecord& rec : *records) {
      tampered = tampered || c.tamper(rec);
      ASSERT_TRUE(vault_.Store(rec).ok());
    }
    ASSERT_TRUE(tampered);
    const std::string before = DumpApplicationTables(db_);

    auto revealed = engine_->Reveal(id);
    EXPECT_EQ(revealed.status().code(), c.want) << revealed.status();
    EXPECT_NE(revealed.status().message().find(c.message_names), std::string::npos)
        << revealed.status();
    EXPECT_EQ(DumpApplicationTables(db_), before);
    EXPECT_FALSE(db_.InTransaction());
    const LogEntry* entry = engine_->log().Find(id);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->active);
    auto kept = vault_.FetchForDisguise(id);
    ASSERT_TRUE(kept.ok()) << kept.status();
    EXPECT_EQ(kept->size(), records->size());
  }
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

// --- Encrypted vault in the full engine loop --------------------------------------

TEST(EncryptedVaultEngineTest, ComposeAndRevealThroughSealedShards) {
  db::Database db;
  hotcrp::Config config;
  config.num_users = 40;
  config.num_pc = 5;
  config.num_papers = 25;
  config.num_reviews = 60;
  auto gen = hotcrp::Populate(&db, config);
  ASSERT_TRUE(gen.ok());

  // Every user's key is derivable in this test; real deployments would ask
  // the user (or their escrow quorum).
  vault::KeyProvider provider = [](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, static_cast<uint8_t>(uid.AsInt() & 0xff));
  };
  vault::EncryptedVault vault(std::vector<uint8_t>(32, 0x42), provider, Rng(3));
  SimulatedClock clock(0);
  DisguiseEngine engine(&db, &vault, &clock);
  ASSERT_TRUE(engine.RegisterSpec(*hotcrp::GdprPlusSpec()).ok());
  ASSERT_TRUE(engine.RegisterSpec(*hotcrp::ConfAnonSpec()).ok());

  // ConfAnon's per-user shards are sealed under each affected user's key.
  auto anon = engine.Apply(hotcrp::kConfAnonName, {});
  ASSERT_TRUE(anon.ok()) << anon.status();
  EXPECT_GT(vault.NumRecords(), 1u);  // shards + global remainder

  // Composition decrypts only the target user's shard.
  int64_t uid = gen->pc_contact_ids[1];
  auto scrub = engine.ApplyForUser(hotcrp::kGdprPlusName, Value::Int(uid));
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_TRUE(scrub->composed);

  // Full ConfAnon reveal decrypts every shard (the "infeasible for external
  // per-user vaults" case of §4.2 — feasible here because the provider can
  // produce all keys).
  auto revealed = engine.Reveal(anon->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  EXPECT_TRUE(db.CheckIntegrity().ok());
}

}  // namespace
}  // namespace edna::core
