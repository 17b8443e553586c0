// Multi-client soak battery for the disguise-as-a-service daemon: 8
// concurrent clients × 200 users of mixed applies/reveals over the wire,
// checked against a serial single-engine replay oracle — per shard, the
// final database must be BIT-IDENTICAL to a fresh in-memory engine with the
// same deterministic-rng seed executing the same per-user tasks one at a
// time. This extends the core_batch_test oracle across sockets, the
// connection handlers, the shard router, and the per-shard executors.
//
// Suite name ServerSoakTest is load-bearing: the tsan-concurrency preset
// filters on it, so the whole file must stay TSan-clean.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/batch.h"
#include "src/core/engine.h"
#include "src/db/database.h"
#include "src/disguise/spec_parser.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/sql/value.h"
#include "src/vault/offline_vault.h"
#include "tests/server_test_util.h"

namespace edna::server {
namespace {

using core::BatchTask;
using sql::Value;
using testing::Fingerprint;
using testing::MixedTasks;
using testing::ShardRig;

constexpr int kUsers = 200;
constexpr int kClients = 8;
constexpr uint64_t kSeed = 0x5eed;

// In-memory single-engine world for the serial oracle (mirrors the shard
// rig: same schema, same population, same specs, same rng seed).
struct OracleWorld {
  db::Database db;
  vault::OfflineVault vault;
  SimulatedClock clock{1000};
  std::unique_ptr<core::DisguiseEngine> engine;

  OracleWorld() {
    testing::BuildSchema(&db);
    testing::PopulateUsers(&db, kUsers);
    core::EngineOptions options;
    options.deterministic_rng = true;
    options.rng_seed = kSeed;
    engine = std::make_unique<core::DisguiseEngine>(&db, &vault, &clock, options);
    for (const char* text :
         {testing::kScrubSpec, testing::kRedactNotesSpec, testing::kAnonAllSpec}) {
      auto spec = disguise::ParseDisguiseSpec(text);
      if (!spec.ok() || !engine->RegisterSpec(*std::move(spec)).ok()) {
        std::abort();  // constructors cannot ASSERT
      }
    }
  }
};

TEST(ServerSoakTest, EightClientsMatchTheSerialReplayOracle) {
  ShardRig rig;
  ASSERT_TRUE(rig.Open(/*num_shards=*/2, /*threads_per_shard=*/4, kUsers, kSeed).ok());
  ASSERT_TRUE(rig.Serve().ok());

  const std::vector<BatchTask> tasks = MixedTasks(kUsers);

  // Client c owns users u with u % kClients == c — all of one user's tasks
  // run on one client in submission order, so per-user FIFO holds end to
  // end (client -> connection thread -> shard router -> worker queue).
  std::vector<std::thread> clients;
  std::mutex failures_mu;
  std::vector<std::string> failures;
  size_t total_ops = 0;
  for (int c = 0; c < kClients; ++c) {
    std::vector<BatchTask> mine;
    for (const BatchTask& t : tasks) {
      ASSERT_TRUE(t.uid.is_int());
      if (t.uid.AsInt() % kClients == c) {
        mine.push_back(t);
      }
    }
    total_ops += mine.size();
    clients.emplace_back([&rig, &failures_mu, &failures, mine = std::move(mine)] {
      auto note = [&](const std::string& msg) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back(msg);
      };
      auto client = rig.Connect();
      if (!client.ok()) {
        note("connect: " + client.status().ToString());
        return;
      }
      for (const BatchTask& t : mine) {
        if (t.kind == BatchTask::Kind::kApply) {
          auto r = (*client)->Apply(t.spec_name, t.uid);
          if (!r.ok()) {
            note("apply " + t.spec_name + " uid " + t.uid.ToSqlString() + ": " +
                 r.status().ToString());
          }
        } else {
          auto r = (*client)->Reveal(t.spec_name, t.uid);
          if (!r.ok()) {
            note("reveal " + t.spec_name + " uid " + t.uid.ToSqlString() + ": " +
                 r.status().ToString());
          }
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  ASSERT_EQ(total_ops, tasks.size());
  EXPECT_TRUE(failures.empty()) << failures.size() << " op(s) failed, first: "
                                << failures.front();

  // Service-level invariants over the wire.
  auto checker = rig.Connect();
  ASSERT_TRUE(checker.ok()) << checker.status();
  auto audit = (*checker)->Audit();
  ASSERT_TRUE(audit.ok()) << audit.status();
  EXPECT_EQ(audit->violations, 0u) << audit->summary;
  auto stats = (*checker)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->Get("dispatched"), tasks.size());
  EXPECT_EQ(stats->Get("dispatch_errors"), 0u);
  EXPECT_EQ(stats->Get("applies") + stats->Get("reveals"), tasks.size());
  EXPECT_EQ(stats->Get("frozen"), 0u);
  rig.server->Stop();

  // The oracle: per shard, a serial replay of exactly the tasks the router
  // sent there must reproduce the shard's database bit for bit.
  for (size_t s = 0; s < rig.shards->num_shards(); ++s) {
    OracleWorld oracle;
    size_t replayed = 0;
    for (const BatchTask& t : tasks) {
      if (rig.shards->ShardFor(t.uid) != s) {
        continue;
      }
      ++replayed;
      if (t.kind == BatchTask::Kind::kApply) {
        auto r = oracle.engine->ApplyForUser(t.spec_name, t.uid);
        ASSERT_TRUE(r.ok()) << "oracle apply " << t.spec_name << " uid "
                            << t.uid.ToSqlString() << ": " << r.status();
      } else {
        auto entry = oracle.engine->log().LatestActiveFor(t.spec_name, t.uid);
        ASSERT_TRUE(entry.has_value());
        auto r = oracle.engine->Reveal(entry->id);
        ASSERT_TRUE(r.ok()) << r.status();
      }
    }
    EXPECT_GT(replayed, 0u) << "shard " << s << " received no work";

    auto shard_fp = Fingerprint(rig.shards->engine(s)->db());
    auto oracle_fp = Fingerprint(&oracle.db);
    ASSERT_EQ(shard_fp.size(), oracle_fp.size());
    for (const auto& [table, rows] : oracle_fp) {
      EXPECT_EQ(shard_fp[table], rows)
          << "shard " << s << " table \"" << table
          << "\" diverged from the serial oracle";
    }
  }
}

// Global disguises riding the two-phase barrier while per-user traffic
// hammers every shard: the barrier must quiesce all shards (no torn global),
// and afterwards everything still audits clean.
TEST(ServerSoakTest, GlobalBarrierInterleavesWithPerUserTraffic) {
  ShardRig rig;
  ASSERT_TRUE(rig.Open(/*num_shards=*/2, /*threads_per_shard=*/4, /*num_users=*/64).ok());
  ASSERT_TRUE(rig.Serve().ok());

  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&rig, &failures_mu, &failures, c] {
      auto note = [&](const std::string& msg) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back(msg);
      };
      auto client = rig.Connect();
      if (!client.ok()) {
        note("connect: " + client.status().ToString());
        return;
      }
      for (int u = c + 1; u <= 64; u += 4) {
        auto a = (*client)->Apply("Scrub", Value::Int(u));
        if (!a.ok()) {
          note("apply uid " + std::to_string(u) + ": " + a.status().ToString());
          continue;
        }
        auto r = (*client)->Reveal("Scrub", Value::Int(u));
        if (!r.ok()) {
          note("reveal uid " + std::to_string(u) + ": " + r.status().ToString());
        }
      }
    });
  }
  // Two global anonymizations race the per-user traffic.
  std::thread global([&rig, &failures_mu, &failures] {
    auto note = [&](const std::string& msg) {
      std::lock_guard<std::mutex> lock(failures_mu);
      failures.push_back(msg);
    };
    auto client = rig.Connect();
    if (!client.ok()) {
      note("global connect: " + client.status().ToString());
      return;
    }
    for (int i = 0; i < 2; ++i) {
      auto g = (*client)->Apply("AnonAll", Value::Null());
      if (!g.ok()) {
        note("global apply: " + g.status().ToString());
      }
    }
  });
  for (std::thread& t : clients) {
    t.join();
  }
  global.join();
  EXPECT_TRUE(failures.empty()) << failures.size() << " op(s) failed, first: "
                                << failures.front();

  auto checker = rig.Connect();
  ASSERT_TRUE(checker.ok()) << checker.status();
  auto audit = (*checker)->Audit();
  ASSERT_TRUE(audit.ok()) << audit.status();
  EXPECT_EQ(audit->violations, 0u) << audit->summary;
  auto stats = (*checker)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->Get("globals"), 2u);
}

}  // namespace
}  // namespace edna::server
