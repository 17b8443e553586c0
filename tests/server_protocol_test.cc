// Wire-protocol battery for the disguise-as-a-service daemon
// (src/server/protocol.h, src/server/server.h): frame codec round trips,
// the malformed-frame error taxonomy of FORMATS.md §6, and a 10k+ frame
// fuzz battery — truncated, oversized, bit-flipped, garbage — that must
// yield clean error replies or connection closes, never a crash or hang.
// Runs under the default ctest label and must be ASan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/sql/value.h"
#include "tests/server_test_util.h"

namespace edna::server {
namespace {

using sql::Value;
using testing::ShardRig;

// A close shows up as a clean EOF (kNotFound) or, when the server closes
// with our bytes still unread in its receive buffer, as a TCP reset
// (kInternal "connection reset"). Both satisfy the "then close" contract;
// a recv timeout (kInternal "timed out") does not.
bool ConnectionClosed(const Status& s) {
  if (s.code() == StatusCode::kNotFound) {
    return true;
  }
  return s.code() == StatusCode::kInternal &&
         s.ToString().find("timed out") == std::string::npos;
}

// ---------------------------------------------------------------------------
// Codec unit tests (no sockets).

TEST(ServerProtocolTest, FrameRoundTripsThroughTheCodec) {
  ApplyRequest req{.spec_name = "Scrub", .uid = Value::Int(42)};
  std::vector<uint8_t> wire = EncodeFrame(Verb::kApply, 7, EncodeApply(req));
  ASSERT_GE(wire.size(), kFrameHeaderBytes);

  uint32_t payload_len = 0;
  ASSERT_TRUE(DecodeFrameHeader(wire.data(), &payload_len).ok());
  EXPECT_EQ(payload_len + kFrameHeaderBytes, wire.size());
  EXPECT_EQ(PeekFrameMagic(wire.data()), kFrameMagic);

  Frame frame;
  std::vector<uint8_t> payload(wire.begin() + kFrameHeaderBytes, wire.end());
  ASSERT_TRUE(DecodeFramePayload(wire.data(), payload, &frame).ok());
  EXPECT_EQ(frame.verb, Verb::kApply);
  EXPECT_EQ(frame.request_id, 7u);

  ApplyRequest decoded;
  ASSERT_TRUE(DecodeApply(frame.body, &decoded).ok());
  EXPECT_EQ(decoded.spec_name, "Scrub");
  EXPECT_EQ(decoded.uid.ToSqlString(), "42");
}

TEST(ServerProtocolTest, HeaderRejectsBadMagicLengthAndCrc) {
  std::vector<uint8_t> wire = EncodeFrame(Verb::kPing, 1, EncodePing({.echo = "x"}));
  uint32_t payload_len = 0;

  {  // bad magic
    std::vector<uint8_t> bad = wire;
    bad[0] ^= 0xFF;
    EXPECT_NE(PeekFrameMagic(bad.data()), kFrameMagic);
    EXPECT_FALSE(DecodeFrameHeader(bad.data(), &payload_len).ok());
  }
  {  // oversized length
    std::vector<uint8_t> bad = wire;
    uint32_t huge = kMaxFrameBytes + 1;
    std::memcpy(bad.data() + 4, &huge, sizeof(huge));
    EXPECT_FALSE(DecodeFrameHeader(bad.data(), &payload_len).ok());
  }
  {  // CRC flip
    ASSERT_TRUE(DecodeFrameHeader(wire.data(), &payload_len).ok());
    std::vector<uint8_t> payload(wire.begin() + kFrameHeaderBytes, wire.end());
    payload.back() ^= 0x01;
    Frame frame;
    Status s = DecodeFramePayload(wire.data(), payload, &frame);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
  }
}

TEST(ServerProtocolTest, BodyCodecsRejectTrailingBytes) {
  std::vector<uint8_t> body = EncodeApply({.spec_name = "Scrub", .uid = Value::Int(1)});
  body.push_back(0xAB);
  ApplyRequest decoded;
  EXPECT_FALSE(DecodeApply(body, &decoded).ok());

  std::vector<uint8_t> ping = EncodePing({.echo = "hey"});
  ping.push_back(0x00);
  PingRequest p;
  EXPECT_FALSE(DecodePing(ping, &p).ok());
}

// ---------------------------------------------------------------------------
// Live-daemon taxonomy tests.

class ServerWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rig_.Open(/*num_shards=*/1, /*threads_per_shard=*/2,
                          /*num_users=*/8)
                    .ok());
    ASSERT_TRUE(rig_.Serve().ok());
  }

  std::unique_ptr<Client> MustConnect() {
    auto client = rig_.Connect();
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  ShardRig rig_;
};

TEST_F(ServerWireTest, PingAppliesRevealsAndStats) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  auto pong = client->Ping("hello");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(*pong, "hello");

  auto applied = client->Apply("Scrub", Value::Int(3));
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_GT(applied->disguise_id, 0u);
  EXPECT_GT(applied->rows_touched, 0u);

  auto revealed = client->Reveal("Scrub", Value::Int(3));
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  EXPECT_EQ(revealed->disguise_id, applied->disguise_id);

  auto audit = client->Audit();
  ASSERT_TRUE(audit.ok()) << audit.status();
  EXPECT_EQ(audit->violations, 0u) << audit->summary;

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->Get("shards"), 1u);
  EXPECT_EQ(stats->Get("applies"), 1u);
  EXPECT_EQ(stats->Get("reveals"), 1u);
  EXPECT_GE(stats->Get("srv_frames_ok"), 4u);
}

TEST_F(ServerWireTest, EngineErrorsTravelAsErrorReplies) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  auto unknown = client->Apply("NoSuchSpec", Value::Int(1));
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound) << unknown.status();

  auto missing = client->Reveal("Scrub", Value::Int(1));  // nothing applied
  EXPECT_FALSE(missing.ok());

  // The connection survives engine-level errors.
  EXPECT_TRUE(client->Ping("still here").ok());
}

TEST_F(ServerWireTest, BadMagicClosesTheConnectionSilently) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  std::vector<uint8_t> junk = {'B', 'O', 'G', 'U', 'S', 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(client->RawSend(junk).ok());
  auto reply = client->RawReadFrame(2000);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(ConnectionClosed(reply.status())) << reply.status();
}

TEST_F(ServerWireTest, OversizedLengthGetsErrorReplyThenClose) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  std::vector<uint8_t> wire = EncodeFrame(Verb::kPing, 9, EncodePing({.echo = ""}));
  uint32_t huge = kMaxFrameBytes + 7;
  std::memcpy(wire.data() + 4, &huge, sizeof(huge));
  ASSERT_TRUE(client->RawSend(wire).ok());

  auto reply = client->RawReadFrame(2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->verb, Verb::kError);
  ErrorReply err;
  ASSERT_TRUE(DecodeErrorReply(reply->body, &err).ok());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);

  auto eof = client->RawReadFrame(2000);
  ASSERT_FALSE(eof.ok());
  EXPECT_TRUE(ConnectionClosed(eof.status())) << eof.status();
}

TEST_F(ServerWireTest, CrcMismatchKeepsTheConnectionOpen) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  std::vector<uint8_t> wire = EncodeFrame(Verb::kPing, 11, EncodePing({.echo = "x"}));
  wire[kFrameHeaderBytes] ^= 0x40;  // corrupt payload, CRC now wrong
  ASSERT_TRUE(client->RawSend(wire).ok());

  auto reply = client->RawReadFrame(2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->verb, Verb::kError);

  // Framing stayed in sync: the next well-formed request works.
  auto pong = client->Ping("recovered");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(*pong, "recovered");
}

TEST_F(ServerWireTest, UnknownVerbAndUndecodableBodyReplyErrors) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->RawSendFrame(static_cast<Verb>(0x6E), 13, {}).ok());
  auto reply = client->RawReadFrame(2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ErrorReply err;
  ASSERT_TRUE(DecodeErrorReply(reply->body, &err).ok());
  EXPECT_EQ(err.code, StatusCode::kUnimplemented);

  // Undecodable apply body.
  ASSERT_TRUE(client->RawSendFrame(Verb::kApply, 14, {0xDE, 0xAD}).ok());
  reply = client->RawReadFrame(2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_TRUE(DecodeErrorReply(reply->body, &err).ok());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);

  // Stats must carry an empty body.
  ASSERT_TRUE(client->RawSendFrame(Verb::kStats, 15, {0x01}).ok());
  reply = client->RawReadFrame(2000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_TRUE(DecodeErrorReply(reply->body, &err).ok());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);

  EXPECT_TRUE(client->Ping("alive").ok());
}

// ---------------------------------------------------------------------------
// The fuzz battery: 10k+ malformed frames across six mutation classes. The
// invariants, per FORMATS.md §6: a complete malformed frame draws an error
// reply or a connection close within the timeout (never a hang), a
// truncated frame never wedges the daemon, and after the whole battery the
// daemon still answers pings and audits clean.

TEST_F(ServerWireTest, FuzzBatteryNeverCrashesOrHangsTheDaemon) {
  constexpr int kIterations = 10500;
  std::mt19937 gen(0xF022u);  // fixed seed: failures must reproduce
  auto byte = [&gen] { return static_cast<uint8_t>(gen() & 0xFF); };

  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto reconnect = [&]() {
    client = MustConnect();
    ASSERT_NE(client, nullptr);
  };

  // A valid apply frame to mutate.
  const std::vector<uint8_t> valid = EncodeFrame(
      Verb::kApply, 99, EncodeApply({.spec_name = "Scrub", .uid = Value::Int(1)}));

  int error_replies = 0;
  int closes = 0;
  for (int i = 0; i < kIterations; ++i) {
    SCOPED_TRACE("fuzz iteration " + std::to_string(i));
    switch (i % 6) {
      case 0: {  // random garbage burst, then give up on the connection
        std::vector<uint8_t> junk(1 + gen() % 80);
        for (uint8_t& b : junk) {
          b = byte();
        }
        ASSERT_TRUE(client->RawSend(junk).ok());
        reconnect();
        break;
      }
      case 1: {  // bit flip inside the payload: CRC error reply, stays open
        std::vector<uint8_t> bad = valid;
        size_t pos = kFrameHeaderBytes + gen() % (bad.size() - kFrameHeaderBytes);
        bad[pos] ^= static_cast<uint8_t>(1u << (gen() % 8));
        ASSERT_TRUE(client->RawSend(bad).ok());
        auto reply = client->RawReadFrame(5000);
        ASSERT_TRUE(reply.ok()) << "daemon hung or dropped a CRC-flip frame: "
                                << reply.status();
        EXPECT_EQ(reply->verb, Verb::kError);
        ++error_replies;
        break;
      }
      case 2: {  // truncated frame, then close: daemon must just move on
        size_t cut = 1 + gen() % (valid.size() - 1);
        std::vector<uint8_t> prefix(valid.begin(), valid.begin() + cut);
        ASSERT_TRUE(client->RawSend(prefix).ok());
        reconnect();
        break;
      }
      case 3: {  // oversized declared length: error reply then close
        std::vector<uint8_t> bad = valid;
        uint32_t huge = kMaxFrameBytes + 1 + gen() % 1024;
        std::memcpy(bad.data() + 4, &huge, sizeof(huge));
        ASSERT_TRUE(client->RawSend(bad).ok());
        auto reply = client->RawReadFrame(5000);
        ASSERT_TRUE(reply.ok()) << "daemon hung on an oversized header: "
                                << reply.status();
        EXPECT_EQ(reply->verb, Verb::kError);
        ++error_replies;
        auto eof = client->RawReadFrame(5000);
        ASSERT_FALSE(eof.ok());
        EXPECT_TRUE(ConnectionClosed(eof.status())) << eof.status();
        ++closes;
        reconnect();
        break;
      }
      case 4: {  // unknown verb, well-framed: error reply, stays open
        ASSERT_TRUE(
            client->RawSendFrame(static_cast<Verb>(0x20 + gen() % 0x40), i, {}).ok());
        auto reply = client->RawReadFrame(5000);
        ASSERT_TRUE(reply.ok()) << "daemon hung on an unknown verb: "
                                << reply.status();
        EXPECT_EQ(reply->verb, Verb::kError);
        ++error_replies;
        break;
      }
      default: {  // valid verb, random body bytes (CRC valid): error reply
        std::vector<uint8_t> body(gen() % 48);
        for (uint8_t& b : body) {
          b = byte();
        }
        Verb verbs[] = {Verb::kApply, Verb::kReveal, Verb::kPing, Verb::kAudit};
        ASSERT_TRUE(client->RawSendFrame(verbs[gen() % 4], i, body).ok());
        auto reply = client->RawReadFrame(5000);
        ASSERT_TRUE(reply.ok()) << "daemon hung on a garbage body: "
                                << reply.status();
        // Random bytes occasionally decode into a valid request (an empty
        // audit body, a ping with junk echo) — a non-error reply is fine;
        // the invariant is "replies, never hangs".
        if (reply->verb == Verb::kError) {
          ++error_replies;
        }
        break;
      }
    }
    if (i % 500 == 0) {  // periodic liveness probe on a fresh connection
      auto probe = rig_.Connect();
      ASSERT_TRUE(probe.ok()) << "daemon stopped accepting at iteration " << i
                              << ": " << probe.status();
      auto pong = (*probe)->Ping("probe");
      ASSERT_TRUE(pong.ok()) << "daemon unresponsive at iteration " << i << ": "
                             << pong.status();
    }
  }
  EXPECT_GT(error_replies, kIterations / 3);
  EXPECT_GT(closes, 0);

  // The daemon survived the battery: answers, audits clean, counted the abuse.
  auto survivor = MustConnect();
  ASSERT_NE(survivor, nullptr);
  EXPECT_TRUE(survivor->Ping("survived").ok());
  auto audit = survivor->Audit();
  ASSERT_TRUE(audit.ok()) << audit.status();
  EXPECT_EQ(audit->violations, 0u) << audit->summary;
  auto stats = survivor->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->Get("srv_frames_rejected"), 0u);
}

TEST_F(ServerWireTest, ShutdownVerbStopsTheDaemon) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Shutdown().ok());
  rig_.server->WaitForShutdown();
  EXPECT_FALSE(rig_.server->running());
}

// The stats reply carries every database counter as db_<name>, in a fixed
// order, each summed over all shards.
TEST(ServerStatsTest, StatsReplySumsEveryDbCounterOverBothShards) {
  using Counter = std::atomic<uint64_t> db::DbStats::*;
  const std::vector<std::pair<std::string, Counter>> kExported = {
      {"db_queries", &db::DbStats::queries},
      {"db_rows_read", &db::DbStats::rows_read},
      {"db_rows_inserted", &db::DbStats::rows_inserted},
      {"db_rows_updated", &db::DbStats::rows_updated},
      {"db_rows_deleted", &db::DbStats::rows_deleted},
      {"db_index_lookups", &db::DbStats::index_lookups},
      {"db_full_scans", &db::DbStats::full_scans},
      {"db_rows_examined", &db::DbStats::rows_examined},
      {"db_plan_cache_hits", &db::DbStats::plan_cache_hits},
      {"db_plan_cache_misses", &db::DbStats::plan_cache_misses},
      {"db_range_probes", &db::DbStats::range_probes},
      {"db_page_hits", &db::DbStats::page_hits},
      {"db_page_misses", &db::DbStats::page_misses},
      {"db_page_evictions", &db::DbStats::page_evictions},
      {"db_page_writebacks", &db::DbStats::page_writebacks},
      {"db_resident_bytes", &db::DbStats::resident_bytes},
  };

  ShardRig rig;
  ASSERT_TRUE(rig.Open(/*num_shards=*/2, /*threads_per_shard=*/1, /*num_users=*/8).ok());
  ASSERT_TRUE(rig.Serve().ok());
  auto client = rig.Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  for (int uid = 1; uid <= 8; ++uid) {
    auto applied = (*client)->Apply("Scrub", Value::Int(uid));
    ASSERT_TRUE(applied.ok()) << applied.status();
  }

  auto shard_sums = [&rig, &kExported] {
    std::vector<uint64_t> sums(kExported.size(), 0);
    for (size_t shard = 0; shard < rig.shards->num_shards(); ++shard) {
      const db::DbStats stats = rig.shards->engine(shard)->db()->stats();
      EXPECT_GT(stats.queries.load(), 0u) << "shard " << shard << " ran no statement";
      for (size_t i = 0; i < kExported.size(); ++i) {
        sums[i] += (stats.*kExported[i].second).load();
      }
    }
    return sums;
  };
  const std::vector<uint64_t> before = shard_sums();
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(shard_sums(), before) << "the daemon was not idle";

  std::vector<std::string> db_names;
  for (const auto& [name, value] : stats->counters) {
    if (name.rfind("db_", 0) == 0) {
      db_names.push_back(name);
    }
  }
  std::vector<std::string> want_names;
  for (size_t i = 0; i < kExported.size(); ++i) {
    want_names.push_back(kExported[i].first);
    EXPECT_EQ(stats->Get(kExported[i].first), before[i]) << kExported[i].first;
  }
  EXPECT_EQ(db_names, want_names);
}

}  // namespace
}  // namespace edna::server
