// Integration tests for the disguisectl command-line tool: runs the real
// binary (path injected by CMake) end to end against temp database images.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#ifndef DISGUISECTL_PATH
#error "DISGUISECTL_PATH must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult RunCli(const std::string& args, const std::string& env = "") {
  std::string cmd = (env.empty() ? "" : env + " ") + std::string(DISGUISECTL_PATH) +
                    " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  int rc = pclose(pipe);
  result.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return result;
}

std::string TempDbPath(const char* name) {
  return ::testing::TempDir() + "/" + name + ".edb";
}

TEST(DisguisectlTest, UsageOnNoArguments) {
  RunResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage"), std::string::npos);
  EXPECT_EQ(RunCli("frobnicate").exit_code, 2);
}

TEST(DisguisectlTest, DemoInfoSchemaQuery) {
  std::string db = TempDbPath("cli_demo");
  RunResult demo = RunCli("demo hotcrp --out " + db + " --scale 0.1 --seed 7");
  ASSERT_EQ(demo.exit_code, 0) << demo.output;
  EXPECT_NE(demo.output.find("25 tables"), std::string::npos);

  RunResult info = RunCli("info " + db);
  ASSERT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("ContactInfo"), std::string::npos);
  EXPECT_NE(info.output.find("(total)"), std::string::npos);

  RunResult schema = RunCli("schema " + db);
  ASSERT_EQ(schema.exit_code, 0);
  EXPECT_NE(schema.output.find("CREATE TABLE \"PaperReview\""), std::string::npos);

  RunResult query = RunCli("query " + db + " --table ContactInfo --where '\"roles\" = 1'");
  ASSERT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("row(s) match"), std::string::npos);
  std::remove(db.c_str());
}

TEST(DisguisectlTest, SpecsAndLint) {
  RunResult specs = RunCli("specs hotcrp");
  ASSERT_EQ(specs.exit_code, 0);
  EXPECT_NE(specs.output.find("HotCRP-GDPR+"), std::string::npos);
  EXPECT_NE(specs.output.find("generate_placeholder"), std::string::npos);

  RunResult lint = RunCli("lint hotcrp");
  ASSERT_EQ(lint.exit_code, 0) << lint.output;  // warnings only, no errors
  EXPECT_NE(lint.output.find("== HotCRP-GDPR =="), std::string::npos);

  RunResult lint_lob = RunCli("lint lobsters");
  ASSERT_EQ(lint_lob.exit_code, 0) << lint_lob.output;
}

TEST(DisguisectlTest, LintJson) {
  RunResult lint = RunCli("lint hotcrp --json");
  ASSERT_EQ(lint.exit_code, 0) << lint.output;
  EXPECT_EQ(lint.output.front(), '[');
  EXPECT_NE(lint.output.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_NE(lint.output.find("\"code\":"), std::string::npos);
  EXPECT_EQ(lint.output.find("=="), std::string::npos);  // no text-mode headers
}

TEST(DisguisectlTest, AnalyzeShippedSpecsIsClean) {
  // The CI gate: shipped disguises must analyze with zero errors.
  RunResult hotcrp = RunCli("analyze hotcrp");
  ASSERT_EQ(hotcrp.exit_code, 0) << hotcrp.output;
  EXPECT_NE(hotcrp.output.find("0 error(s)"), std::string::npos);

  RunResult lobsters = RunCli("analyze lobsters");
  ASSERT_EQ(lobsters.exit_code, 0) << lobsters.output;
  EXPECT_NE(lobsters.output.find("0 error(s)"), std::string::npos);

  RunResult json = RunCli("analyze lobsters --json");
  ASSERT_EQ(json.exit_code, 0);
  EXPECT_NE(json.output.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.output.find("\"errors\": 0"), std::string::npos);

  EXPECT_EQ(RunCli("analyze nosuchapp").exit_code, 2);
}

TEST(DisguisectlTest, AnalyzeFlagsSeededBadSpec) {
  // A per-user spec that only hashes the email: every other PII column and
  // FK-linked table is retained, so analyze must fail the spec.
  std::string spec_path = ::testing::TempDir() + "/bad_spec.txt";
  {
    FILE* f = std::fopen(spec_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "disguise_name: \"BadSpec\"\n"
        "user_to_disguise: $UID\n"
        "table ContactInfo:\n"
        "  transformations:\n"
        "    Modify(pred: \"contactId\" = $UID, column: \"email\", value: Hash)\n",
        f);
    std::fclose(f);
  }
  RunResult r = RunCli("analyze hotcrp " + spec_path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("pii-retained"), std::string::npos);
  // Findings name a concrete retention path through the FK graph.
  EXPECT_NE(r.output.find("-[ActionLog.contactId]-> ContactInfo"), std::string::npos);
  std::remove(spec_path.c_str());
}

TEST(DisguisectlTest, VerifyShippedSpecsIsClean) {
  // The CI gate: the lifecycle verifier must prove the shipped registries
  // reversible at the maximum supported interleaving depth.
  RunResult hotcrp = RunCli("verify hotcrp --k 3");
  ASSERT_EQ(hotcrp.exit_code, 0) << hotcrp.output;
  EXPECT_NE(hotcrp.output.find("0 error(s)"), std::string::npos);
  EXPECT_NE(hotcrp.output.find("combo(s)"), std::string::npos);
  EXPECT_NE(hotcrp.output.find("region(s)"), std::string::npos);

  RunResult lobsters = RunCli("verify lobsters");
  ASSERT_EQ(lobsters.exit_code, 0) << lobsters.output;
  EXPECT_NE(lobsters.output.find("0 error(s)"), std::string::npos);

  RunResult json = RunCli("verify lobsters --json");
  ASSERT_EQ(json.exit_code, 0) << json.output;
  EXPECT_NE(json.output.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.output.find("\"stats\""), std::string::npos);
  EXPECT_NE(json.output.find("\"errors\": 0"), std::string::npos);

  EXPECT_EQ(RunCli("verify nosuchapp").exit_code, 2);
}

TEST(DisguisectlTest, FailOnThresholdGatesExitCodes) {
  // Shipped hotcrp verifies with zero errors but nonzero warnings (genuine
  // reveal-order hazards with a documented safe order), so raising the
  // threshold to `warning` must flip the exit code without changing output.
  EXPECT_EQ(RunCli("verify hotcrp").exit_code, 0);
  RunResult strict = RunCli("verify hotcrp --fail-on warning");
  EXPECT_EQ(strict.exit_code, 1) << strict.output;
  EXPECT_NE(strict.output.find("reveal-order-unsafe"), std::string::npos);

  // Same flag wired through analyze.
  EXPECT_EQ(RunCli("analyze hotcrp").exit_code, 0);
  EXPECT_EQ(RunCli("analyze hotcrp --fail-on warning").exit_code, 1);
  EXPECT_EQ(RunCli("analyze hotcrp --fail-on error").exit_code, 0);

  // Bad inputs are usage errors, not findings.
  EXPECT_EQ(RunCli("verify hotcrp --fail-on bogus").exit_code, 2);
  EXPECT_EQ(RunCli("verify hotcrp --k 9").exit_code, 2);
  EXPECT_EQ(RunCli("verify hotcrp --k 0").exit_code, 2);
}

TEST(DisguisectlTest, VerifyFlagsSeededBadSpec) {
  // An irreversible-by-construction spec: claims reversible but the Expr
  // transform has no inverse the verifier can prove, and the untouched
  // predicate column makes re-application match the same rows.
  std::string spec_path = ::testing::TempDir() + "/bad_verify_spec.txt";
  {
    FILE* f = std::fopen(spec_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "disguise_name: \"Sloppy\"\n"
        "user_to_disguise: $UID\n"
        "reversible: true\n"
        "table ContactInfo:\n"
        "  transformations:\n"
        "    Modify(pred: \"contactId\" = $UID, column: \"email\", value: Hash)\n",
        f);
    std::fclose(f);
  }
  RunResult r = RunCli("verify hotcrp " + spec_path + " --fail-on warning");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("not-idempotent"), std::string::npos);
  std::remove(spec_path.c_str());
}

TEST(DisguisectlTest, ExplainAndApplyRoundTrip) {
  std::string db = TempDbPath("cli_apply");
  ASSERT_EQ(RunCli("demo hotcrp --out " + db + " --scale 0.1 --seed 7").exit_code, 0);

  RunResult explain = RunCli("explain " + db + " --spec HotCRP-GDPR+ --uid 2");
  ASSERT_EQ(explain.exit_code, 0) << explain.output;
  EXPECT_NE(explain.output.find("Decorrelate"), std::string::npos);
  EXPECT_NE(explain.output.find("placeholder"), std::string::npos);

  RunResult apply = RunCli("apply " + db + " --spec HotCRP-GDPR+ --uid 2");
  ASSERT_EQ(apply.exit_code, 0) << apply.output;
  EXPECT_NE(apply.output.find("applied \"HotCRP-GDPR+\""), std::string::npos);
  EXPECT_NE(apply.output.find("saved"), std::string::npos);

  // The scrubbed user is gone from the saved image.
  RunResult query = RunCli("query " + db + " --table PaperReview --where '\"contactId\" = 2'");
  ASSERT_EQ(query.exit_code, 0);
  EXPECT_NE(query.output.find("0 row(s) match"), std::string::npos);
  std::remove(db.c_str());
}

TEST(DisguisectlTest, ApplyWithRevealRestores) {
  std::string db = TempDbPath("cli_reveal");
  ASSERT_EQ(RunCli("demo hotcrp --out " + db + " --scale 0.1 --seed 7").exit_code, 0);
  RunResult before = RunCli("query " + db + " --table PaperReview --where '\"contactId\" = 2'");
  ASSERT_EQ(before.exit_code, 0);

  RunResult apply = RunCli("apply " + db + " --spec HotCRP-GDPR+ --uid 2 --reveal");
  ASSERT_EQ(apply.exit_code, 0) << apply.output;
  EXPECT_NE(apply.output.find("revealed:"), std::string::npos);

  RunResult after = RunCli("query " + db + " --table PaperReview --where '\"contactId\" = 2'");
  EXPECT_EQ(after.output, before.output);  // identical counts and rows
  std::remove(db.c_str());
}

TEST(DisguisectlTest, AuditAndRecoverOnPersistedVault) {
  std::string db = TempDbPath("cli_audit");
  ASSERT_EQ(RunCli("demo hotcrp --out " + db + " --scale 0.1 --seed 7").exit_code, 0);

  // A fresh image is consistent, and so is one with a table-vault disguise.
  RunResult clean = RunCli("audit " + db);
  ASSERT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("consistent"), std::string::npos);

  RunResult apply = RunCli("apply " + db + " --spec HotCRP-GDPR+ --uid 2 --vault table");
  ASSERT_EQ(apply.exit_code, 0) << apply.output;
  RunResult audit = RunCli("audit " + db);
  ASSERT_EQ(audit.exit_code, 0) << audit.output;

  // Recovery on a healthy image is a no-op that still exits 0 and saves.
  RunResult recover = RunCli("recover " + db);
  ASSERT_EQ(recover.exit_code, 0) << recover.output;
  EXPECT_NE(recover.output.find("recovery:"), std::string::npos);
  EXPECT_NE(recover.output.find("consistent"), std::string::npos);

  // A crash mid-apply (via the env fail-point grammar) must not corrupt the
  // saved image: the transaction never commits, so the last good image
  // stays on disk and still audits clean.
  RunResult crashed = RunCli("apply " + db +
                             " --spec HotCRP-GDPR --uid 5 --vault table",
                             "EDNA_FAILPOINTS=db.commit=crash");
  EXPECT_EQ(crashed.exit_code, 1) << crashed.output;
  EXPECT_NE(crashed.output.find("simulated crash"), std::string::npos);
  RunResult after = RunCli("audit " + db);
  EXPECT_EQ(after.exit_code, 0) << after.output;
  std::remove(db.c_str());
}

TEST(DisguisectlTest, BatchAppliesForEveryListedUser) {
  std::string db = TempDbPath("cli_batch");
  ASSERT_EQ(RunCli("demo hotcrp --out " + db + " --scale 0.1 --seed 7").exit_code, 0);

  // One id per line; comments and surrounding whitespace are tolerated.
  std::string uids_path = ::testing::TempDir() + "/cli_batch_uids.txt";
  {
    FILE* f = std::fopen(uids_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# mass GDPR deletion wave\n2\n3\n  4\n5\n", f);
    std::fclose(f);
  }

  RunResult batch = RunCli("batch " + db + " --spec HotCRP-GDPR --uids-file " +
                           uids_path + " --threads 4 --vault table");
  ASSERT_EQ(batch.exit_code, 0) << batch.output;
  EXPECT_NE(batch.output.find("submitted=4 succeeded=4 failed=0"), std::string::npos);
  EXPECT_NE(batch.output.find("consistent"), std::string::npos);
  EXPECT_NE(batch.output.find("saved"), std::string::npos);

  // Every listed user is gone from the saved image.
  for (int uid : {2, 3, 4, 5}) {
    RunResult query = RunCli("query " + db + " --table ContactInfo --where '\"contactId\" = " +
                             std::to_string(uid) + "'");
    ASSERT_EQ(query.exit_code, 0);
    EXPECT_NE(query.output.find("0 row(s) match"), std::string::npos) << query.output;
  }
  std::remove(uids_path.c_str());
  std::remove(db.c_str());
}

TEST(DisguisectlTest, BatchRejectsBadInputs) {
  std::string db = TempDbPath("cli_batch_err");
  ASSERT_EQ(RunCli("demo hotcrp --out " + db + " --scale 0.1 --seed 7").exit_code, 0);
  // Missing required flags is a usage error.
  EXPECT_EQ(RunCli("batch " + db + " --spec HotCRP-GDPR").exit_code, 2);
  // A malformed uids file names the offending line.
  std::string uids_path = ::testing::TempDir() + "/cli_batch_bad_uids.txt";
  {
    FILE* f = std::fopen(uids_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("2\nnot-a-number\n", f);
    std::fclose(f);
  }
  RunResult bad = RunCli("batch " + db + " --spec HotCRP-GDPR --uids-file " + uids_path);
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  EXPECT_NE(bad.output.find("bad user id"), std::string::npos);
  EXPECT_NE(bad.output.find(":2"), std::string::npos);
  std::remove(uids_path.c_str());
  std::remove(db.c_str());
}

// Durable mode round trip on the HotCRP schema: init a data directory,
// apply through the WAL, checkpoint, recover, audit — each step a separate
// process, so state flows only through the directory on disk.
TEST(DisguisectlTest, DurableDataDirRoundTrip) {
  std::string dir = ::testing::TempDir() + "/cli_durable_dir";
  std::string rmrf = "rm -rf " + dir;
  ASSERT_EQ(std::system(rmrf.c_str()), 0);

  RunResult demo = RunCli("demo hotcrp --data-dir " + dir + " --scale 0.1 --seed 7");
  ASSERT_EQ(demo.exit_code, 0) << demo.output;
  EXPECT_NE(demo.output.find("initialized"), std::string::npos);
  // A second init must refuse to clobber the directory.
  EXPECT_EQ(RunCli("demo hotcrp --data-dir " + dir).exit_code, 1);

  RunResult apply =
      RunCli("apply --data-dir " + dir + " --spec HotCRP-GDPR --uid 3");
  ASSERT_EQ(apply.exit_code, 0) << apply.output;
  EXPECT_NE(apply.output.find("applied \"HotCRP-GDPR\""), std::string::npos);
  EXPECT_NE(apply.output.find("WAL-logged"), std::string::npos);

  RunResult checkpoint = RunCli("checkpoint --data-dir " + dir);
  ASSERT_EQ(checkpoint.exit_code, 0) << checkpoint.output;
  EXPECT_NE(checkpoint.output.find("checkpointed"), std::string::npos);
  // Compaction truncated the log back to its bare header.
  EXPECT_NE(checkpoint.output.find("-> 16 bytes"), std::string::npos);

  RunResult recover = RunCli("recover --data-dir " + dir);
  ASSERT_EQ(recover.exit_code, 0) << recover.output;
  EXPECT_NE(recover.output.find("no violations"), std::string::npos);

  RunResult audit = RunCli("audit --data-dir " + dir);
  ASSERT_EQ(audit.exit_code, 0) << audit.output;

  // The disguise (and its reveal records) survived every restart: the vault
  // table holds the user's data and info still sees all 25 HotCRP tables.
  RunResult info = RunCli("info --data-dir " + dir);
  ASSERT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("ContactInfo"), std::string::npos);
  EXPECT_NE(info.output.find("__edna_vault"), std::string::npos);

  // Usage errors: durable mode takes no positional; checkpoint requires it.
  EXPECT_EQ(RunCli("apply x.edb --data-dir " + dir + " --spec HotCRP-GDPR").exit_code, 2);
  EXPECT_EQ(RunCli("checkpoint").exit_code, 2);
  ASSERT_EQ(std::system(rmrf.c_str()), 0);
}

TEST(DisguisectlTest, ErrorsSurfaceCleanly) {
  EXPECT_EQ(RunCli("info /no/such/file.edb").exit_code, 1);
  EXPECT_EQ(RunCli("demo nosuchapp --out /tmp/x.edb").exit_code, 1);
  std::string db = TempDbPath("cli_err");
  ASSERT_EQ(RunCli("demo lobsters --out " + db + " --scale 0.1").exit_code, 0);
  // Per-user spec without --uid.
  EXPECT_EQ(RunCli("apply " + db + " --spec Lobsters-GDPR").exit_code, 1);
  // Unknown spec name resolves as a file path and fails cleanly.
  EXPECT_EQ(RunCli("apply " + db + " --spec NoSuchSpec --uid 1").exit_code, 1);
  std::remove(db.c_str());
}

// Numeric flags must reject garbage loudly (exit 2 + a message naming the
// flag) instead of silently falling back to defaults.
TEST(DisguisectlTest, NumericFlagsRejectGarbage) {
  RunResult scale = RunCli("demo hotcrp --out /tmp/nf.edb --scale bogus");
  EXPECT_EQ(scale.exit_code, 2);
  EXPECT_NE(scale.output.find("--scale"), std::string::npos) << scale.output;

  RunResult seed = RunCli("demo hotcrp --out /tmp/nf.edb --seed 12x");
  EXPECT_EQ(seed.exit_code, 2);
  EXPECT_NE(seed.output.find("--seed"), std::string::npos) << seed.output;

  std::string db = TempDbPath("cli_numflags");
  ASSERT_EQ(RunCli("demo lobsters --out " + db + " --scale 0.1").exit_code, 0);
  RunResult limit = RunCli("query " + db + " --table users --limit many");
  EXPECT_EQ(limit.exit_code, 2);
  EXPECT_NE(limit.output.find("--limit"), std::string::npos) << limit.output;
  std::remove(db.c_str());

  RunResult shards = RunCli("serve hotcrp --data-dir /tmp/nf-dir --shards abc");
  EXPECT_EQ(shards.exit_code, 2);
  EXPECT_NE(shards.output.find("--shards"), std::string::npos) << shards.output;

  RunResult uid = RunCli("apply --connect 127.0.0.1:1 --spec X --uid 3.5x");
  EXPECT_EQ(uid.exit_code, 2);
  EXPECT_NE(uid.output.find("--uid"), std::string::npos) << uid.output;
}

// EDNA_CACHE_MB follows the same contract: garbage is an error naming the
// variable, a valid value still works.
TEST(DisguisectlTest, CacheMbEnvRejectsGarbage) {
  std::string dir = ::testing::TempDir() + "/cli_cache_env";
  std::string rmrf = "rm -rf " + dir;
  ASSERT_EQ(std::system(rmrf.c_str()), 0);

  RunResult bad = RunCli("demo lobsters --durable --data-dir " + dir + " --scale 0.1",
                         "EDNA_CACHE_MB=lots");
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.output.find("EDNA_CACHE_MB"), std::string::npos) << bad.output;

  RunResult good = RunCli("demo lobsters --durable --data-dir " + dir + " --scale 0.1",
                          "EDNA_CACHE_MB=8");
  EXPECT_EQ(good.exit_code, 0) << good.output;

  RunResult bad_flag = RunCli("info --data-dir " + dir + " --cache-mb huge");
  EXPECT_EQ(bad_flag.exit_code, 2);
  EXPECT_NE(bad_flag.output.find("--cache-mb"), std::string::npos) << bad_flag.output;
  ASSERT_EQ(std::system(rmrf.c_str()), 0);
}

// End-to-end daemon smoke over the CLI: serve in the background, drive it
// with --connect client commands, stop it with the shutdown verb.
TEST(DisguisectlTest, ServeAndConnectRoundTrip) {
  std::string dir = ::testing::TempDir() + "/cli_serve";
  std::string rmrf = "rm -rf " + dir;
  ASSERT_EQ(std::system(rmrf.c_str()), 0);
  std::string port_file = dir + ".port";
  std::remove(port_file.c_str());

  std::string launch = std::string(DISGUISECTL_PATH) + " serve hotcrp --data-dir " +
                       dir + " --shards 2 --scale 0.05 --port-file " + port_file +
                       " > " + dir + ".log 2>&1 &";
  ASSERT_EQ(std::system(launch.c_str()), 0);

  // Wait for the daemon to publish its ephemeral port.
  std::string port;
  for (int i = 0; i < 300 && port.empty(); ++i) {
    FILE* f = std::fopen(port_file.c_str(), "r");
    if (f != nullptr) {
      char buf[16] = {0};
      if (std::fgets(buf, sizeof(buf), f) != nullptr) {
        port.assign(buf);
        while (!port.empty() && (port.back() == '\n' || port.back() == '\r')) {
          port.pop_back();
        }
      }
      std::fclose(f);
    }
    if (port.empty()) {
      std::system("sleep 0.1");
    }
  }
  ASSERT_FALSE(port.empty()) << "daemon never wrote " << port_file;
  std::string at = " --connect 127.0.0.1:" + port;

  RunResult ping = RunCli("ping" + at + " --echo hello");
  EXPECT_EQ(ping.exit_code, 0) << ping.output;
  EXPECT_NE(ping.output.find("pong: hello"), std::string::npos);

  RunResult apply = RunCli("apply" + at + " --spec HotCRP-GDPR --uid 2");
  EXPECT_EQ(apply.exit_code, 0) << apply.output;
  EXPECT_NE(apply.output.find("applied \"HotCRP-GDPR\""), std::string::npos);

  RunResult reveal = RunCli("reveal" + at + " --spec HotCRP-GDPR --uid 2");
  EXPECT_EQ(reveal.exit_code, 0) << reveal.output;

  RunResult audit = RunCli("audit" + at);
  EXPECT_EQ(audit.exit_code, 0) << audit.output;
  EXPECT_NE(audit.output.find("clean"), std::string::npos);

  RunResult stats = RunCli("stats" + at);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("shards"), std::string::npos);

  RunResult stop = RunCli("shutdown" + at);
  EXPECT_EQ(stop.exit_code, 0) << stop.output;

  // A second shutdown can no longer connect.
  EXPECT_NE(RunCli("ping" + at + " --echo x").exit_code, 0);
  std::remove(port_file.c_str());
  ASSERT_EQ(std::system(rmrf.c_str()), 0);
}

}  // namespace
