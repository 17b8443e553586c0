// disguisectl: command-line front end to the disguising library.
//
//   disguisectl demo <hotcrp|lobsters> --out <db.edb> [--scale F] [--seed N]
//       Generate a synthetic application database and save it.
//   disguisectl info <db.edb>
//       Print per-table row counts.
//   disguisectl schema <db.edb>
//       Print the database's DDL.
//   disguisectl query <db.edb> --table T [--where PRED] [--limit N]
//       Count and show matching rows.
//   disguisectl specs <hotcrp|lobsters>
//       Print the application's shipped disguise specifications.
//   disguisectl lint <hotcrp|lobsters> [spec-file] [--json]
//       Lint a spec (shipped specs when no file is given) against the
//       application schema. --json emits machine-readable findings.
//   disguisectl analyze <hotcrp|lobsters> [spec-file...] [--json]
//                       [--annotations FILE] [--identity TABLE]
//                       [--fail-on error|warning]
//       Run the full static analyzer (lint + PII taint flow + composition
//       conflicts) over the shipped disguises, or over the given spec
//       files, against the application schema. --annotations overlays a
//       sensitivity sidecar file (docs/FORMATS.md); --identity overrides
//       the derived identity table. Exit 1 iff findings at or above the
//       --fail-on level (default: error) were found, so the command
//       gates CI.
//   disguisectl verify <hotcrp|lobsters> [spec-file...] [--json] [--k N]
//                      [--annotations FILE] [--identity TABLE]
//                      [--fail-on error|warning]
//       Run the lifecycle verifier: symbolic model checking of every
//       disguise combination up to --k specs (reversibility, vault
//       completeness, idempotence, reveal-order safety), whole-registry
//       PII coverage analysis, and the compiled-program checker over all
//       predicates. Same flags and exit convention as analyze; --json
//       emits the schema in docs/FORMATS.md §5.
//   disguisectl explain <db.edb> --spec NAME|FILE [--uid N]
//       Dry-run: report what applying the disguise would touch.
//   disguisectl apply <db.edb> --spec NAME|FILE [--uid N] [--optimize]
//                     [--reveal] [--no-save] [--vault offline|table]
//       Apply a disguise (optionally reveal it again immediately to
//       demonstrate reversibility) and save the database back. With
//       --vault table the reveal records live in the database's reserved
//       vault table and survive in the saved image.
//   disguisectl batch <db.edb> --spec NAME|FILE --uids-file FILE
//                     [--threads N] [--max-attempts N] [--no-save]
//                     [--vault offline|table]
//       Apply the disguise for every user id listed in FILE (one id per
//       line, '#' comments allowed) through the worker-pool batch
//       executor. Tasks for different users run in parallel; write-write
//       conflicts abort-and-retry until --max-attempts. Prints the batch
//       report, audits consistency, and saves the database back. Exit 1
//       if any task failed or the audit found violations.
//   disguisectl audit <db.edb>
//       Check the cross-store consistency invariants (database, vault
//       table, disguise log, commit journal). Exit 1 if violations found.
//   disguisectl recover <db.edb> [--no-save]
//       Run crash recovery on the image: repair half-applied disguises,
//       drop orphan vault records, then re-audit and save the result.
//   disguisectl checkpoint --data-dir DIR
//       Compact a durable data directory: snapshot the database (plus the
//       commit-journal sidecar) and truncate the WAL.
//   disguisectl serve <hotcrp|lobsters> --data-dir DIR [--shards N]
//                     [--threads N] [--port N] [--port-file FILE]
//                     [--scale F] [--seed N] [--cache-mb N]
//                     [--no-remote-shutdown]
//       Run the disguised daemon: N durable engine shards under DIR
//       (created and demo-populated when empty), the application's shipped
//       specs registered on every shard, and the wire protocol of
//       docs/FORMATS.md §6 served on 127.0.0.1. --port 0 (default) picks an
//       ephemeral port; --port-file writes the bound port for scripts.
//       Blocks until SIGINT/SIGTERM or a client shutdown request.
//   disguisectl ping|stats|shutdown --connect HOST:PORT
//   disguisectl apply --connect HOST:PORT --spec NAME [--uid N]
//   disguisectl reveal --connect HOST:PORT --spec NAME [--uid N] [--id N]
//   disguisectl audit --connect HOST:PORT
//   disguisectl checkpoint --connect HOST:PORT
//       Client mode: run one verb against a live daemon instead of a local
//       image/data dir. --spec must name a spec the daemon has registered.
//
// Durable mode: demo/info/apply/batch/audit/recover also accept
// --data-dir DIR in place of the <db.edb> positional. The directory holds a
// write-ahead log plus snapshots (docs/FORMATS.md); every commit is logged,
// so there is nothing to save — kill -9 at any point and the next command
// replays and repairs. `recover --data-dir DIR` runs the full end-to-end
// recovery pipeline (snapshot + WAL replay + journal repair) and audits.
//
// Shipped spec names: HotCRP-GDPR, HotCRP-GDPR+, HotCRP-ConfAnon,
// Lobsters-GDPR. Exit code 0 on success, 1 on error, 2 on usage error.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/lint.h"
#include "src/analysis/taint.h"
#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/schema.h"
#include "src/apps/hotcrp/generator.h"
#include "src/apps/lobsters/disguises.h"
#include "src/apps/lobsters/schema.h"
#include "src/apps/lobsters/generator.h"
#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/core/batch.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/core/durable_engine.h"
#include "src/core/engine.h"
#include "src/db/durable.h"
#include "src/db/storage.h"
#include "src/disguise/spec_parser.h"
#include "src/sql/parser.h"
#include "src/vault/offline_vault.h"
#include "src/vault/table_vault.h"

namespace {

using edna::Status;
using edna::StatusOr;
using edna::sql::Value;

int Usage() {
  std::fprintf(stderr,
               "usage: disguisectl "
               "<demo|info|schema|query|specs|lint|analyze|verify|explain|apply|batch|"
               "audit|recover|checkpoint|serve|ping|reveal|stats|shutdown>"
               " ...\n"
               "run with a command and no arguments for per-command help; see the\n"
               "header of tools/disguisectl.cc for the full synopsis.\n");
  return 2;
}

// Minimal flag parser: positionals plus --key value / --switch.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& dflt = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? dflt : it->second;
  }
};

Args ParseArgs(int argc, char** argv, const std::vector<std::string>& value_flags) {
  Args args;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      bool takes_value =
          std::find(value_flags.begin(), value_flags.end(), name) != value_flags.end();
      if (takes_value && i + 1 < argc) {
        args.flags[name] = argv[++i];
      } else {
        args.flags[name] = "1";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

// True when the db argument is malformed: file mode takes exactly the
// <db.edb> positional, durable mode exactly --data-dir and no positional.
bool BadDbArg(const Args& args) {
  return args.Has("data-dir") ? !args.positional.empty()
                              : args.positional.size() != 1;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Bad flag values are usage errors (exit 2), like any other malformed
// command line.
int FailUsage(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

// Strict numeric flag access: "--threads 4x" is an error, never a silent
// fall-back to the default (src/common/strings.h ParseUint64 semantics).
StatusOr<uint64_t> UintFlag(const Args& args, const std::string& name, uint64_t dflt) {
  if (!args.Has(name)) {
    return dflt;
  }
  uint64_t v = 0;
  if (!edna::ParseUint64(args.Get(name), &v)) {
    return edna::InvalidArgument("--" + name + ": \"" + args.Get(name) +
                                 "\" is not an unsigned integer");
  }
  return v;
}

StatusOr<int64_t> IntFlag(const Args& args, const std::string& name, int64_t dflt) {
  if (!args.Has(name)) {
    return dflt;
  }
  int64_t v = 0;
  if (!edna::ParseInt64(args.Get(name), &v)) {
    return edna::InvalidArgument("--" + name + ": \"" + args.Get(name) +
                                 "\" is not an integer");
  }
  return v;
}

StatusOr<double> DoubleFlag(const Args& args, const std::string& name, double dflt) {
  if (!args.Has(name)) {
    return dflt;
  }
  double v = 0;
  if (!edna::ParseDouble(args.Get(name), &v)) {
    return edna::InvalidArgument("--" + name + ": \"" + args.Get(name) +
                                 "\" is not a number");
  }
  return v;
}

// Durable-mode options from the shared flags. --cache-mb N bounds resident
// row memory via the page cache (src/db/pagecache.h); absent or 0 leaves the
// database fully resident (EDNA_CACHE_MB can still force a budget).
StatusOr<edna::db::DurableOptions> DurableOptsFromArgs(const Args& args) {
  edna::db::DurableOptions opts;
  if (args.Has("cache-mb")) {
    ASSIGN_OR_RETURN(uint64_t mb, UintFlag(args, "cache-mb", 0));
    opts.cache.max_resident_bytes = mb << 20;
  }
  return opts;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return edna::NotFound("cannot open \"" + path + "\"");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Resolves a spec argument: a shipped name or a path to a spec file.
StatusOr<edna::disguise::DisguiseSpec> ResolveSpec(const std::string& arg) {
  if (arg == edna::hotcrp::kGdprName) {
    return edna::hotcrp::GdprSpec();
  }
  if (arg == edna::hotcrp::kGdprPlusName) {
    return edna::hotcrp::GdprPlusSpec();
  }
  if (arg == edna::hotcrp::kConfAnonName) {
    return edna::hotcrp::ConfAnonSpec();
  }
  if (arg == edna::lobsters::kGdprName) {
    return edna::lobsters::GdprSpec();
  }
  ASSIGN_OR_RETURN(std::string text, ReadFile(arg));
  return edna::disguise::ParseDisguiseSpec(text);
}

// Populates `db` with the named demo application. Shared by the --out
// (image file) and --data-dir (durable directory) variants of CmdDemo.
Status PopulateDemo(const std::string& app, double scale, uint64_t seed,
                    edna::db::Database* db) {
  if (app == "hotcrp") {
    edna::hotcrp::Config config;
    config.seed = seed;
    return edna::hotcrp::Populate(db, config.Scaled(scale)).status();
  }
  if (app == "lobsters") {
    edna::lobsters::Config config;
    config.seed = seed;
    return edna::lobsters::Populate(db, config.Scaled(scale)).status();
  }
  return edna::InvalidArgument("unknown application \"" + app + "\"");
}

int CmdDemo(const Args& args) {
  if (args.positional.size() != 1 || (!args.Has("out") && !args.Has("data-dir"))) {
    std::fprintf(stderr, "usage: disguisectl demo <hotcrp|lobsters> "
                         "--out <db.edb>|--data-dir DIR [--scale F] [--seed N]\n");
    return 2;
  }
  auto scale = DoubleFlag(args, "scale", 1.0);
  auto seed = UintFlag(args, "seed", 42);
  if (!scale.ok()) {
    return FailUsage(scale.status());
  }
  if (!seed.ok()) {
    return FailUsage(seed.status());
  }
  const std::string& app = args.positional[0];
  if (args.Has("data-dir")) {
    // Populate straight through a durable database: every insert is
    // WAL-logged, then one checkpoint compacts the load into a snapshot.
    auto dopts = DurableOptsFromArgs(args);
    if (!dopts.ok()) {
      return FailUsage(dopts.status());
    }
    edna::db::DurableOpenReport report;
    auto dd = edna::db::DurableDatabase::Open(args.Get("data-dir"), *dopts, &report);
    if (!dd.ok()) {
      return Fail(dd.status());
    }
    if ((*dd)->db()->schema().num_tables() > 0) {
      std::fprintf(stderr, "error: %s already holds a database\n",
                   args.Get("data-dir").c_str());
      return 1;
    }
    Status populated = PopulateDemo(app, *scale, *seed, (*dd)->db());
    if (!populated.ok()) {
      return Fail(populated);
    }
    Status compacted = (*dd)->Checkpoint();
    if (!compacted.ok()) {
      return Fail(compacted);
    }
    std::printf("initialized %s: %zu tables, %zu rows (snapshot lsn %llu)\n",
                args.Get("data-dir").c_str(), (*dd)->db()->schema().num_tables(),
                (*dd)->db()->TotalRows(),
                static_cast<unsigned long long>((*dd)->wal()->appended_lsn()));
    return 0;
  }
  edna::db::Database db;
  Status populated = PopulateDemo(app, *scale, *seed, &db);
  if (!populated.ok()) {
    return Fail(populated);
  }
  Status saved = edna::db::SaveDatabaseToFile(db, args.Get("out"));
  if (!saved.ok()) {
    return Fail(saved);
  }
  std::printf("wrote %s: %zu tables, %zu rows\n", args.Get("out").c_str(),
              db.schema().num_tables(), db.TotalRows());
  return 0;
}

int CmdInfo(const Args& args) {
  if (BadDbArg(args)) {
    std::fprintf(stderr, "usage: disguisectl info <db.edb>|--data-dir DIR\n");
    return 2;
  }
  std::unique_ptr<edna::db::DurableDatabase> durable;
  std::unique_ptr<edna::db::Database> owned;
  edna::db::Database* db = nullptr;
  if (args.Has("data-dir")) {
    auto dopts = DurableOptsFromArgs(args);
    if (!dopts.ok()) {
      return FailUsage(dopts.status());
    }
    edna::db::DurableOpenReport report;
    auto opened =
        edna::db::DurableDatabase::Open(args.Get("data-dir"), *dopts, &report);
    if (!opened.ok()) {
      return Fail(opened.status());
    }
    durable = *std::move(opened);
    db = durable->db();
  } else {
    auto loaded = edna::db::LoadDatabaseFromFile(args.positional[0]);
    if (!loaded.ok()) {
      return Fail(loaded.status());
    }
    owned = *std::move(loaded);
    db = owned.get();
  }
  std::printf("%-28s %10s\n", "table", "rows");
  for (const edna::db::TableSchema& ts : db->schema().tables()) {
    std::printf("%-28s %10zu\n", ts.name().c_str(),
                db->FindTable(ts.name())->num_rows());
  }
  std::printf("%-28s %10zu\n", "(total)", db->TotalRows());
  return 0;
}

int CmdSchema(const Args& args) {
  if (args.positional.size() != 1) {
    std::fprintf(stderr, "usage: disguisectl schema <db.edb>\n");
    return 2;
  }
  auto db = edna::db::LoadDatabaseFromFile(args.positional[0]);
  if (!db.ok()) {
    return Fail(db.status());
  }
  std::printf("%s", (*db)->schema().ToSql().c_str());
  return 0;
}

int CmdQuery(const Args& args) {
  if (args.positional.size() != 1 || !args.Has("table")) {
    std::fprintf(stderr,
                 "usage: disguisectl query <db.edb> --table T [--where PRED] [--limit N]\n");
    return 2;
  }
  auto db = edna::db::LoadDatabaseFromFile(args.positional[0]);
  if (!db.ok()) {
    return Fail(db.status());
  }
  edna::sql::ExprPtr pred;
  if (args.Has("where")) {
    auto parsed = edna::sql::ParseExpression(args.Get("where"));
    if (!parsed.ok()) {
      return Fail(parsed.status());
    }
    pred = *std::move(parsed);
  }
  auto rows = (*db)->Select(args.Get("table"), pred.get(), {});
  if (!rows.ok()) {
    return Fail(rows.status());
  }
  auto limit_or = UintFlag(args, "limit", 10);
  if (!limit_or.ok()) {
    return FailUsage(limit_or.status());
  }
  size_t limit = static_cast<size_t>(*limit_or);
  std::printf("%zu row(s) match\n", rows->size());
  for (size_t i = 0; i < rows->size() && i < limit; ++i) {
    std::printf("  %s\n", edna::db::RowToString(*(*rows)[i].row).c_str());
  }
  if (rows->size() > limit) {
    std::printf("  ... %zu more\n", rows->size() - limit);
  }
  return 0;
}

int CmdSpecs(const Args& args) {
  if (args.positional.size() != 1) {
    std::fprintf(stderr, "usage: disguisectl specs <hotcrp|lobsters>\n");
    return 2;
  }
  if (args.positional[0] == "hotcrp") {
    std::printf("%s\n%s\n%s\n", edna::hotcrp::GdprSpecText().c_str(),
                edna::hotcrp::GdprPlusSpecText().c_str(),
                edna::hotcrp::ConfAnonSpecText().c_str());
    return 0;
  }
  if (args.positional[0] == "lobsters") {
    std::printf("%s\n", edna::lobsters::GdprSpecText().c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown application \"%s\"\n", args.positional[0].c_str());
  return 2;
}

// Resolves the <hotcrp|lobsters> positional plus optional spec-file
// positionals into a schema and the list of specs to analyze. Spec files
// replace the shipped specs.
Status LoadAppSpecs(const Args& args, edna::db::Schema* schema,
                    std::vector<edna::disguise::DisguiseSpec>* specs) {
  const std::string& app = args.positional[0];
  if (app == "hotcrp") {
    *schema = edna::hotcrp::BuildSchema();
    if (args.positional.size() == 1) {
      specs->push_back(*edna::hotcrp::GdprSpec());
      specs->push_back(*edna::hotcrp::GdprPlusSpec());
      specs->push_back(*edna::hotcrp::ConfAnonSpec());
    }
  } else if (app == "lobsters") {
    *schema = edna::lobsters::BuildSchema();
    if (args.positional.size() == 1) {
      specs->push_back(*edna::lobsters::GdprSpec());
    }
  } else {
    return edna::InvalidArgument("unknown application \"" + app + "\"");
  }
  for (size_t i = 1; i < args.positional.size(); ++i) {
    ASSIGN_OR_RETURN(edna::disguise::DisguiseSpec spec, ResolveSpec(args.positional[i]));
    specs->push_back(std::move(spec));
  }
  return edna::OkStatus();
}

int CmdLint(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: disguisectl lint <hotcrp|lobsters> [spec-file] [--json]\n");
    return 2;
  }
  if (args.positional[0] != "hotcrp" && args.positional[0] != "lobsters") {
    std::fprintf(stderr, "unknown application \"%s\"\n", args.positional[0].c_str());
    return 2;
  }
  edna::db::Schema schema;
  std::vector<edna::disguise::DisguiseSpec> specs;
  Status loaded = LoadAppSpecs(args, &schema, &specs);
  if (!loaded.ok()) {
    return Fail(loaded);
  }

  const bool json = args.Has("json");
  std::vector<edna::analysis::Finding> all;
  bool any_errors = false;
  for (const edna::disguise::DisguiseSpec& spec : specs) {
    Status valid = spec.Validate(schema);
    if (!json) {
      std::printf("== %s ==\n", spec.name().c_str());
    }
    if (!valid.ok()) {
      edna::analysis::Finding f{edna::analysis::Severity::kError, "invalid-spec",
                                spec.name(), "", "", valid.ToString()};
      if (!json) {
        std::printf("%s\n", f.ToString().c_str());
      }
      all.push_back(std::move(f));
      any_errors = true;
      continue;
    }
    auto findings = edna::analysis::LintSpec(spec, schema);
    if (!json) {
      if (findings.empty()) {
        std::printf("clean\n");
      }
      for (const edna::analysis::Finding& f : findings) {
        std::printf("%s\n", f.ToString().c_str());
      }
    }
    any_errors = any_errors || edna::analysis::HasErrors(findings);
    all.insert(all.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
  }
  if (json) {
    std::printf("%s\n", edna::analysis::FindingsToJson(all).c_str());
  }
  return any_errors ? 1 : 0;
}

// Overlays a --annotations sensitivity sidecar onto the schema, if given.
Status ApplyAnnotationsFlag(const Args& args, edna::db::Schema* schema) {
  if (!args.Has("annotations")) {
    return edna::OkStatus();
  }
  ASSIGN_OR_RETURN(std::string text, ReadFile(args.Get("annotations")));
  ASSIGN_OR_RETURN(auto annotations,
                   edna::analysis::ParseSensitivityAnnotations(text));
  return edna::analysis::ApplySensitivityAnnotations(annotations, schema);
}

// Exit policy shared by analyze/verify: --fail-on error (default) fails the
// command on errors only; --fail-on warning fails on warnings too. Returns 2
// (usage error) on an unknown level.
int ExitForFindings(const Args& args, const edna::analysis::FindingCounts& counts) {
  const std::string level = args.Get("fail-on", "error");
  if (level == "error") {
    return counts.errors > 0 ? 1 : 0;
  }
  if (level == "warning") {
    return counts.errors > 0 || counts.warnings > 0 ? 1 : 0;
  }
  std::fprintf(stderr, "unknown --fail-on level \"%s\" (want error|warning)\n",
               level.c_str());
  return 2;
}

int CmdAnalyze(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: disguisectl analyze <hotcrp|lobsters> [spec-file...] [--json] "
                 "[--annotations FILE] [--identity TABLE] [--fail-on error|warning]\n");
    return 2;
  }
  if (args.positional[0] != "hotcrp" && args.positional[0] != "lobsters") {
    std::fprintf(stderr, "unknown application \"%s\"\n", args.positional[0].c_str());
    return 2;
  }
  edna::db::Schema schema;
  std::vector<edna::disguise::DisguiseSpec> specs;
  Status loaded = LoadAppSpecs(args, &schema, &specs);
  if (!loaded.ok()) {
    return Fail(loaded);
  }
  Status annotated = ApplyAnnotationsFlag(args, &schema);
  if (!annotated.ok()) {
    return Fail(annotated);
  }
  edna::analysis::AnalyzerOptions options;
  options.taint.identity_table = args.Get("identity");
  edna::analysis::AnalysisReport report = edna::analysis::Analyze(specs, schema, options);
  std::printf("%s", args.Has("json") ? report.ToJson().c_str()
                                     : report.ToString().c_str());
  return ExitForFindings(args, report.Counts());
}

int CmdVerify(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: disguisectl verify <hotcrp|lobsters> [spec-file...] [--json] "
                 "[--k N] [--annotations FILE] [--identity TABLE] "
                 "[--fail-on error|warning]\n");
    return 2;
  }
  if (args.positional[0] != "hotcrp" && args.positional[0] != "lobsters") {
    std::fprintf(stderr, "unknown application \"%s\"\n", args.positional[0].c_str());
    return 2;
  }
  edna::db::Schema schema;
  std::vector<edna::disguise::DisguiseSpec> specs;
  Status loaded = LoadAppSpecs(args, &schema, &specs);
  if (!loaded.ok()) {
    return Fail(loaded);
  }
  Status annotated = ApplyAnnotationsFlag(args, &schema);
  if (!annotated.ok()) {
    return Fail(annotated);
  }
  edna::analysis::VerifyOptions options;
  options.coverage.identity_table = args.Get("identity");
  if (args.Has("k")) {
    auto k = IntFlag(args, "k", 0);
    if (!k.ok()) {
      return FailUsage(k.status());
    }
    if (*k < 1 || *k > 3) {
      std::fprintf(stderr, "--k must be 1, 2, or 3 (got \"%s\")\n",
                   args.Get("k").c_str());
      return 2;
    }
    options.lifecycle.max_k = static_cast<int>(*k);
  }
  edna::analysis::VerifyReport report = edna::analysis::Verify(specs, schema, options);
  std::printf("%s", args.Has("json") ? report.ToJson().c_str()
                                     : report.ToString().c_str());
  return ExitForFindings(args, report.Counts());
}

// Shared setup for explain/apply/audit/recover/checkpoint. Two modes:
//  * file mode: load <db.edb>, build an in-memory engine, save explicitly;
//  * durable mode (--data-dir): DurableEngine::Open runs the whole recovery
//    pipeline and every later commit is WAL-logged — nothing to save.
struct EngineSetup {
  // File mode owns these three; durable mode owns `durable` instead.
  std::unique_ptr<edna::db::Database> db;
  std::unique_ptr<edna::vault::Vault> vault;
  std::unique_ptr<edna::SystemClock> clock;
  std::unique_ptr<edna::core::DisguiseEngine> file_engine;
  std::unique_ptr<edna::core::DurableEngine> durable;

  edna::core::DisguiseEngine* engine = nullptr;  // either mode
  edna::db::Database* database = nullptr;        // either mode
  bool durable_mode = false;
  std::string spec_name;
};

StatusOr<EngineSetup> SetUpEngine(const Args& args, bool optimize, bool want_spec) {
  EngineSetup setup;
  edna::core::EngineOptions options;
  options.reuse_decorrelation = optimize;
  if (args.Has("data-dir")) {
    edna::core::DurableEngineOptions dopts;
    ASSIGN_OR_RETURN(dopts.durable, DurableOptsFromArgs(args));
    dopts.engine = options;
    edna::core::DurableEngineReport report;
    ASSIGN_OR_RETURN(setup.durable, edna::core::DurableEngine::Open(
                                        args.Get("data-dir"), dopts, &report));
    setup.durable_mode = true;
    setup.engine = setup.durable->engine();
    setup.database = setup.durable->db();
    for (const std::string& note : report.db.notes) {
      std::printf("note: %s\n", note.c_str());
    }
    if (report.db.wal.torn_bytes_dropped > 0) {
      std::printf("note: dropped %llu torn WAL byte(s): %s\n",
                  static_cast<unsigned long long>(report.db.wal.torn_bytes_dropped),
                  report.db.wal.torn_reason.c_str());
    }
    if (report.recovery.TotalRepairs() > 0) {
      std::printf("%s", report.recovery.ToString().c_str());
    }
  } else {
    ASSIGN_OR_RETURN(setup.db, edna::db::LoadDatabaseFromFile(args.positional[0]));
    std::string vault_kind = args.Get("vault", want_spec ? "offline" : "table");
    if (vault_kind == "table") {
      ASSIGN_OR_RETURN(setup.vault, edna::vault::TableVault::Create(setup.db.get()));
    } else if (vault_kind == "offline") {
      setup.vault = std::make_unique<edna::vault::OfflineVault>();
    } else {
      return edna::InvalidArgument("unknown vault kind \"" + vault_kind +
                                   "\" (expected offline or table)");
    }
    setup.clock = std::make_unique<edna::SystemClock>();
    setup.file_engine = std::make_unique<edna::core::DisguiseEngine>(
        setup.db.get(), setup.vault.get(), setup.clock.get(), options);
    RETURN_IF_ERROR(setup.file_engine->LoadLogFromMirror());
    setup.engine = setup.file_engine.get();
    setup.database = setup.db.get();
  }
  if (want_spec) {
    ASSIGN_OR_RETURN(edna::disguise::DisguiseSpec spec, ResolveSpec(args.Get("spec")));
    setup.spec_name = spec.name();
    RETURN_IF_ERROR(setup.engine->RegisterSpec(std::move(spec)));
  }
  return setup;
}

StatusOr<edna::sql::ParamMap> ParamsFromArgs(const Args& args) {
  edna::sql::ParamMap params;
  if (args.Has("uid")) {
    ASSIGN_OR_RETURN(int64_t uid, IntFlag(args, "uid", 0));
    params.emplace(edna::disguise::kUidParam, Value::Int(uid));
  }
  return params;
}

int CmdExplain(const Args& args) {
  if (BadDbArg(args) || !args.Has("spec")) {
    std::fprintf(stderr, "usage: disguisectl explain <db.edb>|--data-dir DIR "
                         "--spec NAME|FILE [--uid N]\n");
    return 2;
  }
  auto setup = SetUpEngine(args, /*optimize=*/false, /*want_spec=*/true);
  if (!setup.ok()) {
    return Fail(setup.status());
  }
  auto params = ParamsFromArgs(args);
  if (!params.ok()) {
    return FailUsage(params.status());
  }
  auto report = setup->engine->Explain(setup->spec_name, *params);
  if (!report.ok()) {
    return Fail(report.status());
  }
  std::printf("%s", report->ToString().c_str());
  return 0;
}

int CmdApply(const Args& args) {
  if (BadDbArg(args) || !args.Has("spec")) {
    std::fprintf(stderr, "usage: disguisectl apply <db.edb>|--data-dir DIR "
                         "--spec NAME|FILE [--uid N] [--optimize] [--reveal] "
                         "[--no-save]\n");
    return 2;
  }
  auto setup = SetUpEngine(args, args.Has("optimize"), /*want_spec=*/true);
  if (!setup.ok()) {
    return Fail(setup.status());
  }
  auto params = ParamsFromArgs(args);
  if (!params.ok()) {
    return FailUsage(params.status());
  }
  auto applied = setup->engine->Apply(setup->spec_name, *params);
  if (!applied.ok()) {
    return Fail(applied.status());
  }
  std::printf("applied \"%s\" (disguise id %llu): removed=%zu modified=%zu "
              "decorrelated=%zu placeholders=%zu queries=%llu%s\n",
              setup->spec_name.c_str(),
              static_cast<unsigned long long>(applied->disguise_id), applied->rows_removed,
              applied->rows_modified, applied->rows_decorrelated,
              applied->placeholders_created,
              static_cast<unsigned long long>(applied->queries),
              applied->composed ? " (composed with prior disguises)" : "");

  if (args.Has("reveal")) {
    auto revealed = setup->engine->Reveal(applied->disguise_id);
    if (!revealed.ok()) {
      return Fail(revealed.status());
    }
    std::printf("revealed: rows_restored=%zu columns_restored=%zu "
                "placeholders_dropped=%zu\n",
                revealed->rows_restored, revealed->columns_restored,
                revealed->placeholders_dropped);
  }

  Status integrity = setup->database->CheckIntegrity();
  if (!integrity.ok()) {
    return Fail(integrity);
  }
  if (setup->durable_mode) {
    Status flushed = setup->durable->Flush();
    if (!flushed.ok()) {
      return Fail(flushed);
    }
    std::printf("durable: WAL-logged in %s\n", args.Get("data-dir").c_str());
  } else if (!args.Has("no-save")) {
    Status saved = edna::db::SaveDatabaseToFile(*setup->database, args.positional[0]);
    if (!saved.ok()) {
      return Fail(saved);
    }
    std::printf("saved %s\n", args.positional[0].c_str());
    if (!args.Has("reveal") && args.Get("vault", "offline") == "offline" &&
        setup->engine->FindSpec(setup->spec_name)->reversible()) {
      std::printf("note: the reveal record lives only in this process's vault; to keep "
                  "the disguise reversible across runs, use --reveal in the same "
                  "invocation or --vault table.\n");
    }
  }
  return 0;
}

// Parses a uids file: one integer id per line; blank lines and lines
// starting with '#' are skipped.
StatusOr<std::vector<int64_t>> ReadUidsFile(const std::string& path) {
  ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  std::vector<int64_t> uids;
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') {
      continue;
    }
    char* end = nullptr;
    long long uid = std::strtoll(line.c_str() + begin, &end, 10);
    while (end != nullptr && (*end == ' ' || *end == '\t' || *end == '\r')) {
      ++end;
    }
    if (end == line.c_str() + begin || (end != nullptr && *end != '\0')) {
      return edna::InvalidArgument("bad user id at " + path + ":" +
                                   std::to_string(lineno) + ": \"" + line + "\"");
    }
    uids.push_back(uid);
  }
  return uids;
}

int CmdBatch(const Args& args) {
  if (BadDbArg(args) || !args.Has("spec") || !args.Has("uids-file")) {
    std::fprintf(stderr,
                 "usage: disguisectl batch <db.edb>|--data-dir DIR --spec NAME|FILE "
                 "--uids-file FILE [--threads N] [--max-attempts N] [--no-save] "
                 "[--vault offline|table]\n");
    return 2;
  }
  auto uids = ReadUidsFile(args.Get("uids-file"));
  if (!uids.ok()) {
    return Fail(uids.status());
  }
  if (uids->empty()) {
    std::fprintf(stderr, "error: %s lists no user ids\n",
                 args.Get("uids-file").c_str());
    return 1;
  }
  auto setup = SetUpEngine(args, args.Has("optimize"), /*want_spec=*/true);
  if (!setup.ok()) {
    return Fail(setup.status());
  }

  edna::core::BatchOptions options;
  auto threads = IntFlag(args, "threads", 4);
  auto attempts = IntFlag(args, "max-attempts", 64);
  if (!threads.ok()) {
    return FailUsage(threads.status());
  }
  if (!attempts.ok()) {
    return FailUsage(attempts.status());
  }
  options.num_threads = static_cast<int>(*threads);
  options.max_attempts = static_cast<int>(*attempts);
  if (options.num_threads < 1 || options.max_attempts < 1) {
    std::fprintf(stderr, "error: --threads and --max-attempts must be >= 1\n");
    return 2;
  }
  if (setup->durable_mode) {
    // One group-durability point for the whole batch instead of per task.
    edna::core::DurableEngine* durable = setup->durable.get();
    options.drain_flush = [durable] { return durable->Flush(); };
  }
  edna::core::BatchExecutor executor(setup->engine, options);
  for (int64_t uid : *uids) {
    executor.Submit(edna::core::BatchTask::Apply(setup->spec_name, Value::Int(uid)));
  }
  edna::core::BatchReport report = executor.Drain();
  std::printf("%s", report.ToString().c_str());
  for (const auto& result : report.results) {
    if (!result.status.ok()) {
      std::fprintf(stderr, "task %zu (uid=%s): %s\n", result.index,
                   result.task.uid.ToSqlString().c_str(),
                   result.status.ToString().c_str());
    }
  }

  auto audit = setup->engine->AuditConsistency();
  if (!audit.ok()) {
    return Fail(audit.status());
  }
  std::printf("%s", audit->ToString().c_str());
  Status integrity = setup->database->CheckIntegrity();
  if (!integrity.ok()) {
    return Fail(integrity);
  }
  if (setup->durable_mode) {
    if (!report.flush_status.ok()) {
      return Fail(report.flush_status);
    }
    std::printf("durable: WAL-logged in %s\n", args.Get("data-dir").c_str());
  } else if (!args.Has("no-save")) {
    Status saved = edna::db::SaveDatabaseToFile(*setup->database, args.positional[0]);
    if (!saved.ok()) {
      return Fail(saved);
    }
    std::printf("saved %s\n", args.positional[0].c_str());
  }
  return (report.failed == 0 && !report.halted && audit->ok()) ? 0 : 1;
}

int CmdAudit(const Args& args) {
  if (BadDbArg(args)) {
    std::fprintf(stderr, "usage: disguisectl audit <db.edb>|--data-dir DIR\n");
    return 2;
  }
  auto setup = SetUpEngine(args, /*optimize=*/false, /*want_spec=*/false);
  if (!setup.ok()) {
    return Fail(setup.status());
  }
  auto report = setup->engine->AuditConsistency();
  if (!report.ok()) {
    return Fail(report.status());
  }
  std::printf("%s", report->ToString().c_str());
  return report->ok() ? 0 : 1;
}

int CmdRecover(const Args& args) {
  if (BadDbArg(args)) {
    std::fprintf(stderr,
                 "usage: disguisectl recover <db.edb> [--no-save] | --data-dir DIR\n");
    return 2;
  }
  auto setup = SetUpEngine(args, /*optimize=*/false, /*want_spec=*/false);
  if (!setup.ok()) {
    return Fail(setup.status());
  }
  auto report = setup->engine->Recover();
  if (!report.ok()) {
    return Fail(report.status());
  }
  std::printf("%s", report->ToString().c_str());
  auto audit = setup->engine->AuditConsistency();
  if (!audit.ok()) {
    return Fail(audit.status());
  }
  std::printf("%s", audit->ToString().c_str());
  if (!audit->ok()) {
    return 1;
  }
  if (setup->durable_mode) {
    Status flushed = setup->durable->Flush();
    if (!flushed.ok()) {
      return Fail(flushed);
    }
  } else if (!args.Has("no-save")) {
    Status saved = edna::db::SaveDatabaseToFile(*setup->database, args.positional[0]);
    if (!saved.ok()) {
      return Fail(saved);
    }
    std::printf("saved %s\n", args.positional[0].c_str());
  }
  return 0;
}

int CmdCheckpoint(const Args& args) {
  if (!args.Has("data-dir") || !args.positional.empty()) {
    std::fprintf(stderr, "usage: disguisectl checkpoint --data-dir DIR\n");
    return 2;
  }
  // Open through the full engine so the checkpoint stores the commit-journal
  // sidecar beside the snapshot (and recovery repairs run first if needed).
  auto setup = SetUpEngine(args, /*optimize=*/false, /*want_spec=*/false);
  if (!setup.ok()) {
    return Fail(setup.status());
  }
  edna::db::WriteAheadLog* wal = setup->durable->durable()->wal();
  uint64_t before = wal->SizeBytes();
  Status compacted = setup->durable->Checkpoint();
  if (!compacted.ok()) {
    return Fail(compacted);
  }
  std::printf("checkpointed %s at lsn %llu: wal %llu -> %llu bytes\n",
              args.Get("data-dir").c_str(),
              static_cast<unsigned long long>(wal->appended_lsn()),
              static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(wal->SizeBytes()));
  return 0;
}

// --- Disguise-as-a-service (serve + client mode) -----------------------------

// Signal-driven stop: the handler only flips a flag (async-signal-safe);
// CmdServe's wait loop does the actual Stop().
volatile std::sig_atomic_t g_stop_requested = 0;
void RequestServeStop(int) { g_stop_requested = 1; }

// Shipped specs of one application, the set a daemon registers per shard.
Status ShippedSpecs(const std::string& app,
                    std::vector<edna::disguise::DisguiseSpec>* specs) {
  if (app == "hotcrp") {
    specs->push_back(*edna::hotcrp::GdprSpec());
    specs->push_back(*edna::hotcrp::GdprPlusSpec());
    specs->push_back(*edna::hotcrp::ConfAnonSpec());
    return edna::OkStatus();
  }
  if (app == "lobsters") {
    specs->push_back(*edna::lobsters::GdprSpec());
    return edna::OkStatus();
  }
  return edna::InvalidArgument("unknown application \"" + app + "\"");
}

int CmdServe(const Args& args) {
  if (args.positional.size() != 1 || !args.Has("data-dir")) {
    std::fprintf(stderr,
                 "usage: disguisectl serve <hotcrp|lobsters> --data-dir DIR "
                 "[--shards N] [--threads N] [--port N] [--port-file FILE] "
                 "[--scale F] [--seed N] [--cache-mb N] "
                 "[--no-remote-shutdown]\n");
    return 2;
  }
  const std::string& app = args.positional[0];
  auto shards = UintFlag(args, "shards", 2);
  auto threads = UintFlag(args, "threads", 2);
  auto port = UintFlag(args, "port", 0);
  auto scale = DoubleFlag(args, "scale", 1.0);
  auto seed = UintFlag(args, "seed", 42);
  for (const Status& s : {shards.status(), threads.status(), port.status(),
                          scale.status(), seed.status()}) {
    if (!s.ok()) {
      return FailUsage(s);
    }
  }
  if (*shards < 1 || *threads < 1 || *port > 65535) {
    std::fprintf(stderr,
                 "error: --shards and --threads must be >= 1, --port <= 65535\n");
    return 2;
  }
  std::vector<edna::disguise::DisguiseSpec> specs;
  Status shipped = ShippedSpecs(app, &specs);
  if (!shipped.ok()) {
    return FailUsage(shipped);
  }

  edna::server::ShardSetOptions sopts;
  sopts.num_shards = static_cast<int>(*shards);
  sopts.threads_per_shard = static_cast<int>(*threads);
  {
    auto dopts = DurableOptsFromArgs(args);
    if (!dopts.ok()) {
      return FailUsage(dopts.status());
    }
    sopts.durable = *dopts;
  }
  // Specs register after the bootstrap below — a fresh shard has no schema
  // for them to validate against yet.
  auto set = edna::server::ShardSet::Open(args.Get("data-dir"), sopts);
  if (!set.ok()) {
    return Fail(set.status());
  }
  for (size_t i = 0; i < (*set)->num_shards(); ++i) {
    edna::core::DurableEngine* engine = (*set)->engine(i);
    // A fresh shard still carries the reserved "__edna*" tables (vault, log
    // mirror) — only application tables decide whether to bootstrap demo data.
    size_t app_tables = 0;
    for (const auto& table : engine->db()->schema().tables()) {
      if (!edna::StartsWith(table.name(), "__edna")) {
        ++app_tables;
      }
    }
    if (app_tables == 0) {
      Status populated = PopulateDemo(app, *scale, *seed, engine->db());
      if (!populated.ok()) {
        return Fail(populated);
      }
      Status compacted = engine->Checkpoint();
      if (!compacted.ok()) {
        return Fail(compacted);
      }
      std::printf("shard %zu: populated %s demo (%zu rows)\n", i, app.c_str(),
                  engine->db()->TotalRows());
    }
    for (const edna::disguise::DisguiseSpec& spec : specs) {
      Status registered = engine->engine()->RegisterSpec(spec);
      if (!registered.ok()) {
        return Fail(registered);
      }
    }
  }

  edna::server::ServerOptions server_opts;
  server_opts.port = static_cast<uint16_t>(*port);
  server_opts.allow_remote_shutdown = !args.Has("no-remote-shutdown");
  edna::server::DisguisedServer server(set->get(), server_opts);
  Status started = server.Start();
  if (!started.ok()) {
    return Fail(started);
  }
  if (args.Has("port-file")) {
    std::ofstream out(args.Get("port-file"), std::ios::trunc);
    out << server.port() << "\n";
    out.flush();
    if (!out) {
      server.Stop();
      return Fail(edna::Internal("cannot write --port-file " + args.Get("port-file")));
    }
  }
  std::printf("disguised: serving %s on 127.0.0.1:%u (%zu shard(s), %d thread(s) each)\n",
              app.c_str(), server.port(), (*set)->num_shards(),
              sopts.threads_per_shard);
  std::fflush(stdout);

  std::signal(SIGINT, RequestServeStop);
  std::signal(SIGTERM, RequestServeStop);
  while (g_stop_requested == 0 && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  std::printf("disguised: stopped%s\n", (*set)->frozen() ? " (frozen by a simulated crash)" : "");
  return 0;
}

// Parses --connect HOST:PORT.
StatusOr<std::pair<std::string, uint16_t>> ParseHostPort(const std::string& s) {
  size_t colon = s.rfind(':');
  uint64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !edna::ParseUint64(s.substr(colon + 1), &port) || port == 0 || port > 65535) {
    return edna::InvalidArgument("--connect expects HOST:PORT, got \"" + s + "\"");
  }
  return std::make_pair(s.substr(0, colon), static_cast<uint16_t>(port));
}

// Client mode: one verb against a live daemon.
int CmdClient(const std::string& cmd, const Args& args) {
  auto hp = ParseHostPort(args.Get("connect"));
  if (!hp.ok()) {
    return FailUsage(hp.status());
  }
  // Validate per-verb flags before dialing: garbage must fail fast with a
  // usage error, not after burning the connect timeout.
  Value uid = Value::Null();
  uint64_t reveal_id = 0;
  if (cmd == "apply" || cmd == "reveal") {
    if (!args.Has("spec")) {
      std::fprintf(stderr, "usage: disguisectl %s --connect HOST:PORT --spec NAME "
                           "[--uid N]%s\n",
                   cmd.c_str(), cmd == "reveal" ? " [--id N]" : "");
      return 2;
    }
    if (args.Has("uid")) {
      auto parsed = IntFlag(args, "uid", 0);
      if (!parsed.ok()) {
        return FailUsage(parsed.status());
      }
      uid = Value::Int(*parsed);
    }
    if (cmd == "reveal") {
      auto id = UintFlag(args, "id", 0);
      if (!id.ok()) {
        return FailUsage(id.status());
      }
      reveal_id = *id;
    }
  }
  auto client = edna::server::Client::Connect(hp->first, hp->second);
  if (!client.ok()) {
    return Fail(client.status());
  }
  if (cmd == "ping") {
    auto echoed = (*client)->Ping(args.Get("echo", "hello"));
    if (!echoed.ok()) {
      return Fail(echoed.status());
    }
    std::printf("pong: %s\n", echoed->c_str());
    return 0;
  }
  if (cmd == "apply" || cmd == "reveal") {
    StatusOr<edna::server::OpReply> op =
        cmd == "apply" ? (*client)->Apply(args.Get("spec"), uid)
                       : (*client)->Reveal(args.Get("spec"), uid, reveal_id);
    if (!op.ok()) {
      return Fail(op.status());
    }
    std::printf("%s \"%s\"%s: disguise id %llu on shard %u "
                "(attempts=%u queries=%llu rows_touched=%llu)\n",
                cmd == "apply" ? "applied" : "revealed", args.Get("spec").c_str(),
                uid.is_null() ? " globally" : (" for uid " + uid.ToSqlString()).c_str(),
                static_cast<unsigned long long>(op->disguise_id), op->shard,
                op->attempts, static_cast<unsigned long long>(op->queries),
                static_cast<unsigned long long>(op->rows_touched));
    return 0;
  }
  if (cmd == "audit") {
    auto audit = (*client)->Audit();
    if (!audit.ok()) {
      return Fail(audit.status());
    }
    if (audit->violations == 0) {
      std::printf("audit: %u shard(s) clean\n", audit->shards);
      return 0;
    }
    std::printf("audit: %llu violation(s) across %u shard(s)\n%s",
                static_cast<unsigned long long>(audit->violations), audit->shards,
                audit->summary.c_str());
    return 1;
  }
  if (cmd == "checkpoint") {
    auto ckpt = (*client)->Checkpoint();
    if (!ckpt.ok()) {
      return Fail(ckpt.status());
    }
    std::printf("checkpointed %u shard(s)\n", ckpt->shards);
    return 0;
  }
  if (cmd == "stats") {
    auto stats = (*client)->Stats();
    if (!stats.ok()) {
      return Fail(stats.status());
    }
    std::printf("%s", stats->ToString().c_str());
    return 0;
  }
  if (cmd == "shutdown") {
    Status stopped = (*client)->Shutdown();
    if (!stopped.ok()) {
      return Fail(stopped);
    }
    std::printf("daemon stopped\n");
    return 0;
  }
  std::fprintf(stderr, "command \"%s\" does not support --connect\n", cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string cmd = argv[1];
  Args args = ParseArgs(argc - 2, argv + 2, {"out", "scale", "seed", "table", "where",
                                             "limit", "spec", "uid", "vault",
                                             "annotations", "identity", "uids-file",
                                             "threads", "max-attempts", "data-dir",
                                             "fail-on", "k", "cache-mb", "connect",
                                             "shards", "port", "port-file", "echo",
                                             "id"});
  if (args.Has("connect")) {
    return CmdClient(cmd, args);
  }
  if (cmd == "serve") {
    return CmdServe(args);
  }
  if (cmd == "demo") {
    return CmdDemo(args);
  }
  if (cmd == "info") {
    return CmdInfo(args);
  }
  if (cmd == "schema") {
    return CmdSchema(args);
  }
  if (cmd == "query") {
    return CmdQuery(args);
  }
  if (cmd == "specs") {
    return CmdSpecs(args);
  }
  if (cmd == "lint") {
    return CmdLint(args);
  }
  if (cmd == "analyze") {
    return CmdAnalyze(args);
  }
  if (cmd == "verify") {
    return CmdVerify(args);
  }
  if (cmd == "explain") {
    return CmdExplain(args);
  }
  if (cmd == "apply") {
    return CmdApply(args);
  }
  if (cmd == "batch") {
    return CmdBatch(args);
  }
  if (cmd == "audit") {
    return CmdAudit(args);
  }
  if (cmd == "recover") {
    return CmdRecover(args);
  }
  if (cmd == "checkpoint") {
    return CmdCheckpoint(args);
  }
  return Usage();
}
