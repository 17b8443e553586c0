// Property battery for the page/extent cache (src/db/pagecache.h).
//
// The central property: the cache budget is INVISIBLE to logical state. One
// deterministic workload runs under budgets from "effectively unbounded"
// down to "one page", and every run must end fingerprint-identical — spill
// and refault lose nothing — while the bounded runs actually evict (nonzero
// eviction/writeback counters) and settle at or under their budget. A
// corruption battery then bit-flips, truncates, and unlinks the extent spill
// files under a live database and asserts the taxonomy: reads return the
// correct row or fail with kInternal/kNotFound — never crash, never a
// silently wrong row — and a reopen (extents are wiped; snapshot + WAL are
// canonical) restores every byte. The LZ codec gets its own round-trip and
// corrupt-input property checks, and a HotCRP-scale run pins the headline
// acceptance number: a quarter-footprint budget completes bit-identical.
#include "src/db/pagecache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/hotcrp/generator.h"
#include "src/common/rng.h"
#include "src/db/database.h"
#include "src/db/durable.h"
#include "src/sql/parser.h"
#include "tests/reference_oracle.h"

namespace edna::db {
namespace {

using sql::Value;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/edna_db_pagecache_XXXXXX";
    dir_ = mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!dir_.empty()) {
      std::string cmd = "rm -rf " + dir_;
      [[maybe_unused]] int rc = system(cmd.c_str());
    }
  }
  std::string Sub(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

// Canonical text dump of every table in RowId order. Scan faults spilled
// pages back in, so equal dumps across budgets mean the spill/refault cycle
// preserved every byte of every row.
std::string Dump(Database* db) {
  std::string out;
  for (const TableSchema& ts : db->schema().tables()) {
    out += "== " + ts.name() + "\n";
    const Table* t = db->FindTable(ts.name());
    t->Scan([&](RowId id, const Row& row) {
      out += std::to_string(id);
      for (const Value& v : row) {
        out += "|" + v.ToSqlString();
      }
      out += "\n";
    });
  }
  return out;
}

// Payloads alternate compressible (repeated alpha runs) and high-entropy
// (alnum noise) so extent frames exercise both the LZ and the raw path.
std::string PayloadFor(Rng& rng, int i) {
  if (i % 3 == 0) {
    std::string run = rng.NextAlphaString(4);
    std::string out;
    for (int k = 0; k < 20 + i % 40; ++k) {
      out += run;
    }
    return out;
  }
  return rng.NextAlnumString(40 + static_cast<size_t>(i % 80));
}

constexpr int kWorkloadRows = 400;

// Deterministic mixed workload: the statement sequence (and thus the final
// state) is a pure function of `seed`, never of the cache budget.
void RunWorkload(Database* db, uint64_t seed) {
  TableSchema items("items");
  items
      .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "num", .type = ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "payload", .type = ColumnType::kString})
      .SetPrimaryKey({"id"});
  ASSERT_TRUE(db->CreateTable(std::move(items)).ok());

  Rng rng(seed);
  for (int i = 0; i < kWorkloadRows; ++i) {
    ASSERT_TRUE(db->InsertValues("items",
                                 {{"num", Value::Int(i * 7)},
                                  {"payload", Value::String(PayloadFor(rng, i))}})
                    .ok());
  }
  for (int i = 0; i < 150; ++i) {
    RowId id = 1 + static_cast<RowId>(rng.NextBounded(kWorkloadRows));
    ASSERT_TRUE(
        db->SetColumn("items", id, "num", Value::Int(static_cast<int64_t>(i) - 40)).ok());
  }
  for (int i = 0; i < 60; ++i) {
    RowId id = 1 + static_cast<RowId>(rng.NextBounded(kWorkloadRows));
    Status s = db->DeleteRow("items", id);
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kNotFound) << s;
  }
}

struct RunResult {
  std::string dump;
  uint64_t footprint = 0;  // ResidentBytes() BEFORE dumping (Dump refaults)
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

// Payload-free statements whose boundary gives the evictor extra rounds to
// settle at/under budget (Count with no predicate never faults a page).
void Settle(Database* db) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->Count("items", nullptr, {}).ok());
  }
}

RunResult RunDurableWorkload(const std::string& dir, uint64_t budget) {
  RunResult r;
  DurableOptions opts;
  opts.cache.max_resident_bytes = budget;
  DurableOpenReport report;
  auto opened = DurableDatabase::Open(dir, opts, &report);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) {
    return r;
  }
  Database* db = (*opened)->db();
  RunWorkload(db, /*seed=*/42);
  Settle(db);
  r.footprint = db->page_cache()->ResidentBytes();
  r.evictions = db->stats().page_evictions.load();
  r.writebacks = db->stats().page_writebacks.load();
  r.hits = db->stats().page_hits.load();
  r.misses = db->stats().page_misses.load();
  r.dump = Dump(db);
  return r;
}

std::string ReopenAndDump(const std::string& dir, uint64_t budget) {
  DurableOptions opts;
  opts.cache.max_resident_bytes = budget;
  DurableOpenReport report;
  auto opened = DurableDatabase::Open(dir, opts, &report);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) {
    return "";
  }
  EXPECT_TRUE((*opened)->db()->CheckIntegrity().ok());
  return Dump((*opened)->db());
}

constexpr uint64_t kUnboundedBudget = 1ull << 30;  // 1 GiB: never evicts

TEST(PageCachePropertyTest, VectorizedScanSurvivesEvictionAndMatchesRowMode) {
  // Under a one-byte budget every statement boundary evicts, so each scan
  // reads its rows from pages faulted back in from spilled extents — and
  // must still return exactly the rows a row-by-row reference filter does.
  TempDir tmp;
  DurableOptions opts;
  opts.cache.max_resident_bytes = 1;  // always over budget: everything spills
  DurableOpenReport report;
  auto opened = DurableDatabase::Open(tmp.Sub("vec"), opts, &report);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Database* db = (*opened)->db();
  RunWorkload(db, /*seed=*/7);
  Settle(db);
  ASSERT_GT(db->stats().page_evictions.load(), 0u);

  auto pred = sql::ParseExpression("\"num\" >= 0 AND \"payload\" <> ''");
  ASSERT_TRUE(pred.ok()) << pred.status();
  auto rows = db->Select("items", pred->get(), {});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_FALSE(rows->empty());
  const RowId first = rows->front().id;
  const size_t matched = rows->size();
  Settle(db);
  EXPECT_TRUE(oracle::SelectMatchesReference(*db, "items", **pred, {}));
  EXPECT_GT(db->stats().rows_examined.load(), 0u);

  // A mutation between scans (with its own eviction round at the statement
  // boundary) must be visible to the next scan.
  ASSERT_TRUE(db->SetColumn("items", first, "num", Value::Int(-1000)).ok());
  auto after = db->Select("items", pred->get(), {});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->size(), matched - 1);
  Settle(db);
  EXPECT_TRUE(oracle::SelectMatchesReference(*db, "items", **pred, {}));
}

TEST(PageCachePropertyTest, BudgetSweepIsFingerprintIdenticalAndBounded) {
  TempDir tmp;
  RunResult unbounded = RunDurableWorkload(tmp.Sub("u"), kUnboundedBudget);
  ASSERT_FALSE(unbounded.dump.empty());
  ASSERT_GT(unbounded.footprint, 0u);
  EXPECT_EQ(unbounded.evictions, 0u) << "a 1 GiB budget must never evict";
  EXPECT_EQ(unbounded.misses, 0u);

  const uint64_t footprint = unbounded.footprint;
  struct Leg {
    const char* name;
    uint64_t budget;
  };
  const Leg legs[] = {
      {"half", footprint / 2},
      {"tenth", footprint / 10},
      {"one-page", 4096},
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    std::string dir = tmp.Sub(leg.name);
    RunResult bounded = RunDurableWorkload(dir, leg.budget);
    EXPECT_EQ(bounded.dump, unbounded.dump)
        << "bounded run diverged from the unbounded reference";
    EXPECT_GT(bounded.evictions, 0u) << "budget below footprint but nothing evicted";
    EXPECT_GT(bounded.writebacks, 0u) << "dirty pages evicted without a frame write";
    EXPECT_GT(bounded.misses, 0u) << "nothing ever faulted back";
    EXPECT_LE(bounded.footprint, leg.budget)
        << "settled resident bytes exceed the budget";
    // Durability is budget-independent too: a bounded reopen replays
    // snapshot + WAL (extents are wiped) back to the identical state.
    EXPECT_EQ(ReopenAndDump(dir, leg.budget), unbounded.dump);
  }
}

TEST(PageCachePropertyTest, LzCodecRoundTripsAndSurvivesCorruptInput) {
  Rng rng(7);
  std::vector<std::vector<uint8_t>> inputs;
  inputs.push_back({});                                  // empty
  inputs.push_back(std::vector<uint8_t>(4096, 0));       // all zeros
  inputs.push_back(rng.NextBytes(15));                   // below raw-store floor
  inputs.push_back(rng.NextBytes(5000));                 // high entropy
  {
    std::vector<uint8_t> repeated;
    for (int i = 0; i < 300; ++i) {
      repeated.push_back(static_cast<uint8_t>("edna-extent-"[i % 12]));
    }
    inputs.push_back(std::move(repeated));
  }
  {
    std::vector<uint8_t> mixed = rng.NextBytes(1000);
    mixed.resize(3000, 0x5a);  // entropy head, compressible tail
    inputs.push_back(std::move(mixed));
  }

  bool any_compressed = false;
  for (size_t c = 0; c < inputs.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const std::vector<uint8_t>& in = inputs[c];
    std::vector<uint8_t> packed = LzCompress(in);
    if (packed.empty()) {
      continue;  // stored raw: nothing to round-trip
    }
    any_compressed = true;
    EXPECT_LT(packed.size(), in.size()) << "a kept compression must shrink";
    std::vector<uint8_t> out;
    Status s = LzDecompress(packed.data(), packed.size(), in.size(), &out);
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_EQ(out, in);

    // Corrupt-input property: random single-byte flips and truncations must
    // yield kInternal or a full-length (possibly wrong — the extent CRC
    // catches that upstream) buffer, never a crash or out-of-bounds access.
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<uint8_t> bad = packed;
      bad[rng.NextBounded(bad.size())] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      std::vector<uint8_t> scratch;
      Status ds = LzDecompress(bad.data(), bad.size(), in.size(), &scratch);
      if (ds.ok()) {
        EXPECT_EQ(scratch.size(), in.size());
      } else {
        EXPECT_EQ(ds.code(), StatusCode::kInternal) << ds;
      }
    }
    for (size_t len = 0; len < packed.size(); len += 1 + packed.size() / 16) {
      std::vector<uint8_t> scratch;
      Status ds = LzDecompress(packed.data(), len, in.size(), &scratch);
      if (ds.ok()) {
        EXPECT_EQ(scratch.size(), in.size());
      } else {
        EXPECT_EQ(ds.code(), StatusCode::kInternal) << ds;
      }
    }
  }
  EXPECT_TRUE(any_compressed) << "no input compressed; the LZ path went untested";
}

// Compares the bounded database against a fully-resident oracle row by row,
// asserting the failure taxonomy on the way. Adds how many LIVE rows failed
// to read to `*failed_live_reads`.
void SweepAgainstOracle(Database* bounded, Database* oracle,
                        size_t* failed_live_reads) {
  for (RowId id = 1; id <= kWorkloadRows; ++id) {
    StatusOr<Row> want = oracle->GetRow("items", id);
    StatusOr<Row> got = bounded->GetRow("items", id);
    if (got.ok()) {
      // A successful read must be the TRUE row — corruption may cost
      // availability, never silently wrong data.
      ASSERT_TRUE(want.ok()) << "bounded read resurrected deleted row " << id;
      ASSERT_EQ(got->size(), want->size());
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ((*got)[i].ToSqlString(), (*want)[i].ToSqlString())
            << "row " << id << " col " << i << " silently diverged";
      }
      continue;
    }
    EXPECT_TRUE(got.status().code() == StatusCode::kNotFound ||
                got.status().code() == StatusCode::kInternal)
        << "row " << id << ": unexpected failure class: " << got.status();
    if (want.ok()) {
      ++*failed_live_reads;
    }
  }
}

TEST(PageCachePropertyTest, ExtentCorruptionFailsLoudlyNeverSilently) {
  TempDir tmp;

  DurableOptions oracle_opts;
  oracle_opts.cache.max_resident_bytes = kUnboundedBudget;
  DurableOpenReport oracle_report;
  auto oracle = DurableDatabase::Open(tmp.Sub("oracle"), oracle_opts, &oracle_report);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  RunWorkload((*oracle)->db(), /*seed=*/42);
  std::string truth = Dump((*oracle)->db());

  DurableOptions opts;
  opts.cache.max_resident_bytes = 1;  // always over budget: everything spills
  DurableOpenReport report;
  std::string dir = tmp.Sub("victim");
  auto victim = DurableDatabase::Open(dir, opts, &report);
  ASSERT_TRUE(victim.ok()) << victim.status();
  Database* db = (*victim)->db();
  RunWorkload(db, /*seed=*/42);
  Settle(db);
  ASSERT_NE(db->page_cache(), nullptr);
  std::vector<std::string> files = db->page_cache()->DebugExtentFiles();
  ASSERT_FALSE(files.empty()) << "nothing spilled; the fuzz has no target";

  // Pristine sweep: every live row reads back exactly despite total spill.
  size_t pristine_failures = 0;
  SweepAgainstOracle(db, (*oracle)->db(), &pristine_failures);
  EXPECT_EQ(pristine_failures, 0u);

  // Bit-flip sweep. An always-over-budget run appends a fresh frame at
  // nearly every statement boundary, so most of each file is DEAD frames the
  // page directory no longer references — live frames cluster at the tail.
  // Each round flips one bit near the tail of EVERY extent file; flips
  // accumulate (pages refault from the same frames on every sweep), and the
  // total over all rounds must hit live data.
  Rng rng(99);
  size_t failed_reads = 0;
  for (int round = 0; round < 8; ++round) {
    for (const std::string& path : files) {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(f.good()) << path;
      f.seekg(0, std::ios::end);
      auto size = static_cast<uint64_t>(f.tellg());
      ASSERT_GT(size, 0u);
      uint64_t tail = std::max<uint64_t>(size / 16, 1);
      uint64_t off = size - 1 - rng.NextBounded(tail);
      f.seekg(static_cast<std::streamoff>(off));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ (1 << rng.NextBounded(8)));
      f.seekp(static_cast<std::streamoff>(off));
      f.write(&byte, 1);
      f.close();
    }
    SweepAgainstOracle(db, (*oracle)->db(), &failed_reads);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(failed_reads, 0u) << "tail bit flips never hit a live frame";

  // Truncation: chop every extent file to half; tail frames become short
  // reads (kInternal), head frames keep working.
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good()) << path;
    auto size = static_cast<uint64_t>(in.tellg());
    in.close();
    ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(size / 2)), 0);
  }
  size_t post_truncate_failures = 0;
  SweepAgainstOracle(db, (*oracle)->db(), &post_truncate_failures);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  // Unlink: with every spill file gone, every spilled live row must fail
  // kNotFound (ENOENT) — and still never crash or fabricate data.
  for (const std::string& path : files) {
    ASSERT_EQ(unlink(path.c_str()), 0) << path;
  }
  size_t post_unlink_failures = 0;
  SweepAgainstOracle(db, (*oracle)->db(), &post_unlink_failures);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  // Extents are a cache, not a durability source: reopening the mangled
  // directory wipes them and replays snapshot + WAL to the exact truth.
  victim->reset();
  EXPECT_EQ(ReopenAndDump(dir, /*budget=*/1), truth);
}

TEST(PageCachePropertyTest, HotcrpQuarterFootprintBudgetMatchesUnbounded) {
  TempDir tmp;
  hotcrp::Config config;

  auto populate = [&](const std::string& dir, uint64_t budget, RunResult* r) {
    DurableOptions opts;
    opts.cache.max_resident_bytes = budget;
    DurableOpenReport report;
    auto opened = DurableDatabase::Open(dir, opts, &report);
    ASSERT_TRUE(opened.ok()) << opened.status();
    Database* db = (*opened)->db();
    auto generated = hotcrp::Populate(db, config.Scaled(0.25));
    ASSERT_TRUE(generated.ok()) << generated.status();
    const std::string settle_table = db->schema().tables().front().name();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(db->Count(settle_table, nullptr, {}).ok());
    }
    r->footprint = db->page_cache()->ResidentBytes();
    r->evictions = db->stats().page_evictions.load();
    r->writebacks = db->stats().page_writebacks.load();
    r->dump = Dump(db);
    ASSERT_TRUE(db->CheckIntegrity().ok());
  };

  RunResult unbounded;
  populate(tmp.Sub("u"), kUnboundedBudget, &unbounded);
  ASSERT_GT(unbounded.footprint, 0u);
  ASSERT_EQ(unbounded.evictions, 0u);

  const uint64_t quarter = unbounded.footprint / 4;
  RunResult bounded;
  populate(tmp.Sub("q"), quarter, &bounded);
  EXPECT_EQ(bounded.dump, unbounded.dump)
      << "quarter-budget HotCRP diverged from the unbounded reference";
  EXPECT_GT(bounded.evictions, 0u);
  EXPECT_GT(bounded.writebacks, 0u);
  EXPECT_LE(bounded.footprint, quarter)
      << "HotCRP did not settle within a quarter of its footprint";
}

}  // namespace
}  // namespace edna::db
