// End-to-end tests of the full stack on the HotCRP application: populate,
// apply the paper's disguises, reveal, compose — checking both privacy
// outcomes and referential integrity after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/generator.h"
#include "src/common/clock.h"
#include "src/core/engine.h"
#include "src/sql/parser.h"
#include "src/vault/encrypted_vault.h"
#include "src/vault/offline_vault.h"
#include "src/vault/table_vault.h"
#include "src/vault/two_tier_vault.h"

namespace edna {
namespace {

using core::ApplyResult;
using core::DisguiseEngine;
using core::RevealResult;
using sql::Value;

class HotCrpIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hotcrp::Config config;
    config.num_users = 60;
    config.num_pc = 8;
    config.num_papers = 40;
    config.num_reviews = 120;
    auto generated = hotcrp::Populate(&db_, config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    gen_ = *generated;

    auto vault = vault::TableVault::Create(&db_);
    ASSERT_TRUE(vault.ok()) << vault.status();
    vault_ = std::move(*vault);

    engine_ = std::make_unique<DisguiseEngine>(&db_, vault_.get(), &clock_);
    auto gdpr = hotcrp::GdprSpec();
    ASSERT_TRUE(gdpr.ok()) << gdpr.status();
    ASSERT_TRUE(engine_->RegisterSpec(*std::move(gdpr)).ok());
    auto gdpr_plus = hotcrp::GdprPlusSpec();
    ASSERT_TRUE(gdpr_plus.ok()) << gdpr_plus.status();
    ASSERT_TRUE(engine_->RegisterSpec(*std::move(gdpr_plus)).ok());
    auto conf_anon = hotcrp::ConfAnonSpec();
    ASSERT_TRUE(conf_anon.ok()) << conf_anon.status();
    ASSERT_TRUE(engine_->RegisterSpec(*std::move(conf_anon)).ok());
  }

  // Rows in `table` matching "col = value".
  size_t CountWhere(const std::string& table, const std::string& col, int64_t value) {
    auto pred = sql::ParseExpression("\"" + col + "\" = " + std::to_string(value));
    EXPECT_TRUE(pred.ok()) << pred.status();
    auto n = db_.Count(table, pred->get(), {});
    EXPECT_TRUE(n.ok()) << n.status();
    return *n;
  }

  int64_t AnyPcMember() { return gen_.pc_contact_ids[2]; }

  // Table name -> sorted rendered rows of every application table (the
  // engine's reserved tables, vault and disguise-log mirror, excluded).
  static std::map<std::string, std::vector<std::string>> Contents(db::Database* db) {
    std::map<std::string, std::vector<std::string>> out;
    for (const db::TableSchema& ts : db->schema().tables()) {
      if (ts.name().rfind("__edna", 0) == 0) {
        continue;
      }
      auto rows = db->SelectRows(ts.name(), nullptr, {});
      EXPECT_TRUE(rows.ok()) << ts.name() << ": " << rows.status();
      std::vector<std::string>& reps = out[ts.name()];
      if (rows.ok()) {
        for (const db::Row& row : *rows) {
          std::string rep;
          for (const Value& v : row) {
            rep += v.ToSqlString() + "|";
          }
          reps.push_back(std::move(rep));
        }
      }
      std::sort(reps.begin(), reps.end());
    }
    return out;
  }

  db::Database db_;
  hotcrp::Generated gen_;
  std::unique_ptr<vault::TableVault> vault_;
  std::unique_ptr<DisguiseEngine> engine_;
  SimulatedClock clock_{1000};
};

TEST_F(HotCrpIntegrationTest, GdprDeletesEverything) {
  int64_t uid = AnyPcMember();
  size_t reviews_before = CountWhere("PaperReview", "contactId", uid);
  ASSERT_GT(reviews_before, 0u);

  auto result = engine_->ApplyForUser(hotcrp::kGdprName, Value::Int(uid));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->rows_removed, reviews_before);
  EXPECT_EQ(result->rows_decorrelated, 0u);

  EXPECT_EQ(CountWhere("ContactInfo", "contactId", uid), 0u);
  EXPECT_EQ(CountWhere("PaperReview", "contactId", uid), 0u);
  EXPECT_EQ(CountWhere("PaperComment", "contactId", uid), 0u);
  EXPECT_EQ(CountWhere("PaperConflict", "contactId", uid), 0u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(HotCrpIntegrationTest, GdprPlusScrubsButKeepsReviews) {
  int64_t uid = AnyPcMember();
  size_t reviews_before = CountWhere("PaperReview", "contactId", uid);
  ASSERT_GT(reviews_before, 0u);
  size_t total_reviews = db_.FindTable("PaperReview")->num_rows();

  auto result = engine_->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(uid));
  ASSERT_TRUE(result.ok()) << result.status();

  // Account gone, reviews retained but decorrelated.
  EXPECT_EQ(CountWhere("ContactInfo", "contactId", uid), 0u);
  EXPECT_EQ(CountWhere("PaperReview", "contactId", uid), 0u);
  EXPECT_EQ(db_.FindTable("PaperReview")->num_rows(), total_reviews);
  EXPECT_EQ(result->rows_decorrelated >= reviews_before, true);
  // One placeholder per decorrelated row (Figure 2).
  EXPECT_EQ(result->placeholders_created, result->rows_decorrelated);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(HotCrpIntegrationTest, GdprPlusIsReversible) {
  int64_t uid = AnyPcMember();
  auto before = db_.Snapshot();
  size_t reviews_before = CountWhere("PaperReview", "contactId", uid);

  auto applied = engine_->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(uid));
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_EQ(CountWhere("PaperReview", "contactId", uid), 0u);

  auto revealed = engine_->Reveal(applied->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();

  // User is back with all their reviews; placeholders cleaned up.
  EXPECT_EQ(CountWhere("ContactInfo", "contactId", uid), 1u);
  EXPECT_EQ(CountWhere("PaperReview", "contactId", uid), reviews_before);
  EXPECT_EQ(revealed->placeholders_dropped, applied->placeholders_created);
  EXPECT_EQ(db_.FindTable("ContactInfo")->num_rows(),
            before->FindTable("ContactInfo")->num_rows());
  EXPECT_TRUE(db_.CheckIntegrity().ok());

  // Second reveal must fail.
  EXPECT_FALSE(engine_->Reveal(applied->disguise_id).ok());
}

TEST_F(HotCrpIntegrationTest, ConfAnonDecorrelatesEverything) {
  size_t total_reviews = db_.FindTable("PaperReview")->num_rows();
  auto result = engine_->Apply(hotcrp::kConfAnonName, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->rows_decorrelated, total_reviews);

  // No review points at a real (enabled) user anymore.
  for (int64_t uid : gen_.pc_contact_ids) {
    EXPECT_EQ(CountWhere("PaperReview", "contactId", uid), 0u);
  }
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

// ConfAnon stores one reveal shard per owner plus an ownerless remainder.
// Applied and revealed, it must restore every application table exactly,
// whichever vault model holds those records (the two-tier vault keeps the
// shards in its encrypted user tier and the remainder in its global tier).
TEST_F(HotCrpIntegrationTest, ConfAnonRoundTripIsExactOverEveryVault) {
  vault::KeyProvider keys = [](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, static_cast<uint8_t>(uid.is_int() ? uid.AsInt() : 1));
  };
  const auto before = Contents(&db_);
  for (const char* model : {"table", "offline", "encrypted", "two_tier"}) {
    SCOPED_TRACE(std::string("vault: ") + model);
    std::unique_ptr<db::Database> db = db_.Snapshot();
    std::unique_ptr<vault::Vault> vault;
    if (std::string(model) == "table") {
      auto table = vault::TableVault::Create(db.get());
      ASSERT_TRUE(table.ok()) << table.status();
      vault = std::move(*table);
    } else if (std::string(model) == "offline") {
      vault = std::make_unique<vault::OfflineVault>();
    } else if (std::string(model) == "encrypted") {
      vault = std::make_unique<vault::EncryptedVault>(std::vector<uint8_t>(32, 0x42), keys,
                                                      Rng(1));
    } else {
      vault = std::make_unique<vault::TwoTierVault>(
          std::make_unique<vault::OfflineVault>(),
          std::make_unique<vault::EncryptedVault>(std::vector<uint8_t>(32, 0x42), keys,
                                                  Rng(2)));
    }
    DisguiseEngine engine(db.get(), vault.get(), &clock_);
    auto conf_anon = hotcrp::ConfAnonSpec();
    ASSERT_TRUE(conf_anon.ok()) << conf_anon.status();
    ASSERT_TRUE(engine.RegisterSpec(*std::move(conf_anon)).ok());

    auto applied = engine.Apply(hotcrp::kConfAnonName, {});
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_NE(Contents(db.get()), before);
    auto revealed = engine.Reveal(applied->disguise_id);
    ASSERT_TRUE(revealed.ok()) << revealed.status();

    auto after = Contents(db.get());
    for (const auto& [table, rows] : before) {
      EXPECT_EQ(after[table], rows) << "table \"" << table << "\" not restored";
    }
    EXPECT_EQ(vault->NumRecords(), 0u);
    EXPECT_TRUE(db->CheckIntegrity().ok());
  }
}

TEST_F(HotCrpIntegrationTest, GdprPlusComposesAfterConfAnon) {
  int64_t uid = AnyPcMember();
  size_t reviews_before = CountWhere("PaperReview", "contactId", uid);
  ASSERT_GT(reviews_before, 0u);

  auto anon = engine_->Apply(hotcrp::kConfAnonName, {});
  ASSERT_TRUE(anon.ok()) << anon.status();
  ASSERT_EQ(CountWhere("PaperReview", "contactId", uid), 0u);

  auto result = engine_->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(uid));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->composed);
  EXPECT_GT(result->rows_recorrelated, 0u);

  // The user's account must be gone despite ConfAnon having hidden the
  // user's rows from GDPR+'s predicates.
  EXPECT_EQ(CountWhere("ContactInfo", "contactId", uid), 0u);
  EXPECT_EQ(CountWhere("PaperConflict", "contactId", uid), 0u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(HotCrpIntegrationTest, OptimizationReusesDecorrelations) {
  int64_t uid = AnyPcMember();
  auto anon = engine_->Apply(hotcrp::kConfAnonName, {});
  ASSERT_TRUE(anon.ok()) << anon.status();

  engine_->options().reuse_decorrelation = true;
  auto result = engine_->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(uid));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->decorrelations_reused, 0u);
  // Reused rows never get fresh placeholders.
  EXPECT_LT(result->placeholders_created, result->decorrelations_reused +
                                              result->placeholders_created +
                                              result->rows_decorrelated);
  EXPECT_EQ(CountWhere("ContactInfo", "contactId", uid), 0u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(HotCrpIntegrationTest, RevealAfterLaterDisguiseRespectsIt) {
  // Apply GDPR+ for Bea, then ConfAnon, then reveal Bea: her reviews must
  // NOT come back attributed to her, since ConfAnon (still active) hides all
  // review attribution (the paper's §4.2 example, roles swapped).
  int64_t uid = AnyPcMember();
  auto scrub = engine_->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(uid));
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  auto anon = engine_->Apply(hotcrp::kConfAnonName, {});
  ASSERT_TRUE(anon.ok()) << anon.status();

  auto revealed = engine_->Reveal(scrub->disguise_id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();

  // Account restored, but reviews stay decorrelated per ConfAnon.
  EXPECT_EQ(CountWhere("ContactInfo", "contactId", uid), 1u);
  EXPECT_EQ(CountWhere("PaperReview", "contactId", uid), 0u);
  EXPECT_GT(revealed->values_redisguised + revealed->rows_suppressed, 0u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

}  // namespace
}  // namespace edna
