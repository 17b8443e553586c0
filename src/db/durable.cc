#include "src/db/durable.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "src/common/failpoint.h"
#include "src/common/file.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/db/storage.h"

namespace edna::db {

namespace {

constexpr char kWalFileName[] = "wal.edw";
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".edb";
constexpr char kJournalPrefix[] = "journal-";
constexpr char kJournalSuffix[] = ".ednj";

// The calling thread's staged commit attachment per instance (see
// StageAttachment). Keyed by pointer; Open() clears the current thread's
// slot for a fresh instance so a recycled address cannot inherit a payload
// staged before a simulated crash.
thread_local std::unordered_map<const DurableDatabase*, std::vector<uint8_t>>
    tls_staged;

std::string SnapshotPath(const std::string& dir, uint64_t lsn) {
  return dir + "/" + kSnapshotPrefix +
         std::to_string(static_cast<unsigned long long>(lsn)) + kSnapshotSuffix;
}

std::string JournalPath(const std::string& dir, uint64_t lsn) {
  return dir + "/" + kJournalPrefix +
         std::to_string(static_cast<unsigned long long>(lsn)) + kJournalSuffix;
}

// Files named <prefix><decimal lsn><suffix> in `dir`, newest (highest LSN)
// first.
StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListByLsn(
    const std::string& dir, const std::string& prefix, const std::string& suffix) {
  ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  std::vector<std::pair<uint64_t, std::string>> out;
  for (std::string& name : names) {
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10), std::move(name));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace

DurableDatabase::DurableDatabase(std::string dir, DurableOptions options,
                                 std::unique_ptr<Database> db,
                                 std::unique_ptr<WriteAheadLog> wal)
    : dir_(std::move(dir)),
      options_(std::move(options)),
      db_(std::move(db)),
      wal_(std::move(wal)) {}

DurableDatabase::~DurableDatabase() {
  if (db_ != nullptr) {
    db_->SetWalSink(nullptr);
  }
  tls_staged.erase(this);
}

StatusOr<std::unique_ptr<DurableDatabase>> DurableDatabase::Open(
    const std::string& dir, const DurableOptions& options,
    DurableOpenReport* report) {
  DurableOpenReport local;
  DurableOpenReport* rep = report != nullptr ? report : &local;
  *rep = DurableOpenReport{};

  RETURN_IF_ERROR(MakeDir(dir));

  // The WAL first: its scan (and torn-tail truncation) is independent of
  // which snapshot we start from, and its first replayable LSN decides how
  // far back a snapshot fallback may reach.
  std::vector<WalRecord> replay;
  std::unique_ptr<WriteAheadLog> wal;
  ASSIGN_OR_RETURN(wal, WriteAheadLog::Open(dir + "/" + kWalFileName, options.wal,
                                            &replay, &rep->wal));
  const uint64_t wal_first =
      replay.empty() ? wal->appended_lsn() + 1 : replay.front().lsn;

  // Newest readable snapshot whose gap the WAL still covers. A corrupt
  // snapshot is skipped (falling back to an older one, or to full replay)
  // ONLY when the WAL reaches back far enough; otherwise recovery fails
  // loudly rather than load a state with silent holes.
  std::unique_ptr<Database> db;
  bool have_snapshot = false;
  uint64_t snapshot_lsn = 0;
  ASSIGN_OR_RETURN(auto snapshots, ListByLsn(dir, kSnapshotPrefix, kSnapshotSuffix));
  for (auto& [lsn, name] : snapshots) {
    StatusOr<std::unique_ptr<Database>> loaded =
        LoadDatabaseFromFile(dir + "/" + name);
    if (loaded.ok()) {
      if (wal_first > lsn + 1) {
        return Internal(StrFormat(
            "recovery gap: \"%s\" covers lsn <= %llu but the WAL starts at "
            "%llu; a newer snapshot this WAL was truncated against is missing "
            "or corrupt",
            name.c_str(), static_cast<unsigned long long>(lsn),
            static_cast<unsigned long long>(wal_first)));
      }
      db = std::move(*loaded);
      have_snapshot = true;
      snapshot_lsn = lsn;
      break;
    }
    if (loaded.status().code() == StatusCode::kInvalidArgument) {
      rep->notes.push_back("skipped " + name + ": " + loaded.status().message());
      continue;
    }
    return loaded.status();  // I/O error: refuse to guess
  }
  if (!have_snapshot) {
    if (wal_first > 1) {
      return Internal(StrFormat(
          "recovery gap: no readable snapshot, and the WAL starts at lsn %llu "
          "(history before it was compacted into a snapshot that is now "
          "unreadable)",
          static_cast<unsigned long long>(wal_first)));
    }
    db = std::make_unique<Database>();
    if (!rep->notes.empty()) {
      rep->notes.push_back("recovering from an empty database via full WAL replay");
    }
  }

  // Attach the page cache before replay so recovery itself runs under the
  // memory budget. The EDNA_CACHE_MB environment variable is the test/CI
  // hook for forcing a budget without threading options everywhere.
  CacheOptions cache = options.cache;
  if (cache.max_resident_bytes == 0) {
    if (const char* env = std::getenv("EDNA_CACHE_MB"); env != nullptr) {
      // Strict parse: a typo'd budget must fail the open, not silently run
      // unbounded (strtoull("garbage") == 0 used to mean "no cache").
      uint64_t mb = 0;
      if (!ParseUint64(env, &mb)) {
        return InvalidArgument(StrFormat(
            "EDNA_CACHE_MB=\"%s\" is not an unsigned integer (megabytes)", env));
      }
      cache.max_resident_bytes = mb << 20;
    }
  }
  if (cache.max_resident_bytes > 0) {
    RETURN_IF_ERROR(db->AttachPageCache(cache, dir + "/extents"));
  }

  // Replay everything newer than the snapshot. Commit records are physical
  // redo (idempotent); DDL records are strict — a DDL that cannot re-apply
  // means the log and snapshot disagree, which must fail loudly.
  size_t replayed_since_evict = 0;
  for (const WalRecord& rec : replay) {
    if (rec.lsn <= snapshot_lsn) {
      continue;  // already folded into the snapshot (journal deltas too)
    }
    EDNA_FAIL_POINT(failpoints::kWalReplay);
    switch (rec.kind) {
      case WalRecord::Kind::kCommit: {
        for (const WalChange& ch : rec.commit.changes) {
          RETURN_IF_ERROR(db->ApplyWalChange(ch));
        }
        for (const auto& [table, counter] : rec.commit.counters) {
          RETURN_IF_ERROR(db->EnsureAutoCounterAtLeast(table, counter));
        }
        for (const std::vector<uint8_t>& blob : rec.commit.attachments) {
          rep->journal_deltas.emplace_back(rec.lsn, blob);
        }
        break;
      }
      case WalRecord::Kind::kCreateTable: {
        if (!rec.schema.has_value()) {
          return Internal("create-table WAL record without a schema");
        }
        RETURN_IF_ERROR(db->CreateTable(*rec.schema));
        break;
      }
      case WalRecord::Kind::kAddColumn: {
        RETURN_IF_ERROR(db->AddColumnToTable(rec.table, rec.column, rec.fill));
        break;
      }
      case WalRecord::Kind::kCreateIndex: {
        RETURN_IF_ERROR(db->CreateIndex(rec.table, rec.index_column));
        break;
      }
      case WalRecord::Kind::kSidecar: {
        rep->journal_deltas.emplace_back(rec.lsn, rec.sidecar);
        break;
      }
    }
    ++rep->records_replayed;
    // Replay applies rows below the statement-boundary eviction hooks;
    // sweep periodically so a long replay stays within the budget.
    if (++replayed_since_evict >= 64) {
      replayed_since_evict = 0;
      RETURN_IF_ERROR(db->MaybeEvictPages());
    }
  }
  // Replay applied rows without per-row FK checks (records may arrive in
  // any FK order within a commit); audit once, like the image loader does.
  // With a page cache the audit faults every page in (transiently exceeding
  // the budget); its trailing eviction pass restores the bound.
  RETURN_IF_ERROR(db->CheckIntegrity());
  rep->snapshot_lsn = snapshot_lsn;

  // The engine's journal image that matches the chosen snapshot.
  if (have_snapshot) {
    StatusOr<std::vector<uint8_t>> journal = ReadFile(JournalPath(dir, snapshot_lsn));
    if (journal.ok()) {
      rep->journal_image = std::move(*journal);
    } else if (journal.status().code() != StatusCode::kNotFound) {
      return journal.status();
    }
  }

  auto dd = std::unique_ptr<DurableDatabase>(new DurableDatabase(
      dir, options, std::move(db), std::move(wal)));
  tls_staged.erase(dd.get());
  // Attach the sink only now: nothing in recovery re-logs.
  dd->db_->SetWalSink(dd.get());
  return dd;
}

Status DurableDatabase::Checkpoint() {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  uint64_t mark = 0;
  std::unique_ptr<Database> copy;
  ASSIGN_OR_RETURN(copy, db_->SnapshotForCheckpoint(&mark));
  EDNA_FAIL_POINT(failpoints::kSnapshotWrite);

  // Journal image first: if we crash before the snapshot rename below, the
  // stray journal-<mark> file is invisible (recovery keys the journal off
  // the newest installed snapshot) and the next checkpoint collects it.
  if (sidecar_provider_) {
    EDNA_FAIL_POINT(failpoints::kJournalPersist);
    RETURN_IF_ERROR(WriteFileAtomically(JournalPath(dir_, mark), sidecar_provider_()));
  }

  std::vector<uint8_t> wire = SerializeDatabase(*copy);
  copy.reset();
  RETURN_IF_ERROR(
      WriteFileAtomically(SnapshotPath(dir_, mark), wire, failpoints::kSnapshotRename));

  // Only now is it safe to drop the log prefix the snapshot covers. If
  // commits raced past `mark`, the log stays; replay just skips lsn <= mark.
  ASSIGN_OR_RETURN(bool truncated, wal_->TruncateIfCovered(mark));
  if (!truncated) {
    EDNA_LOG(kInfo) << "checkpoint at lsn " << mark
                    << ": WAL advanced concurrently, left untruncated";
  }
  GarbageCollect(mark);
  return OkStatus();
}

Status DurableDatabase::MaybeCheckpoint() {
  if (options_.checkpoint_threshold_bytes == 0 ||
      wal_->SizeBytes() <= options_.checkpoint_threshold_bytes) {
    return OkStatus();
  }
  return Checkpoint();
}

Status DurableDatabase::Flush() { return wal_->Flush(); }

void DurableDatabase::GarbageCollect(uint64_t keep_lsn) {
  for (const auto& [prefix, suffix] : {std::pair{kSnapshotPrefix, kSnapshotSuffix},
                                       std::pair{kJournalPrefix, kJournalSuffix}}) {
    auto files = ListByLsn(dir_, prefix, suffix);
    if (!files.ok()) {
      continue;
    }
    for (auto& [lsn, name] : *files) {
      if (lsn != keep_lsn) {
        RemoveFile(dir_ + "/" + name);
      }
    }
  }
}

StatusOr<uint64_t> DurableDatabase::AppendSidecar(std::vector<uint8_t> blob) {
  WalRecord rec;
  rec.kind = WalRecord::Kind::kSidecar;
  rec.sidecar = std::move(blob);
  return wal_->Append(rec);
}

void DurableDatabase::StageAttachment(std::vector<uint8_t> blob) {
  tls_staged[this] = std::move(blob);
}

void DurableDatabase::SetSidecarSnapshotProvider(
    std::function<std::vector<uint8_t>()> provider) {
  sidecar_provider_ = std::move(provider);
}

StatusOr<uint64_t> DurableDatabase::AppendCommit(WalCommit commit) {
  // A staged payload rides this commit. It is consumed by the ATTEMPT, not
  // the outcome: a simulated crash in the append must lose it the same way
  // a real process death would.
  if (auto it = tls_staged.find(this); it != tls_staged.end()) {
    commit.attachments.push_back(std::move(it->second));
    tls_staged.erase(it);
  }
  WalRecord rec;
  rec.kind = WalRecord::Kind::kCommit;
  rec.commit = std::move(commit);
  return wal_->Append(rec);
}

StatusOr<uint64_t> DurableDatabase::AppendDdl(const WalRecord& record) {
  return wal_->Append(record);
}

Status DurableDatabase::SyncCommit(uint64_t lsn) { return wal_->Sync(lsn); }

uint64_t DurableDatabase::AppendedLsn() const { return wal_->appended_lsn(); }

void DurableDatabase::OnRollback() { tls_staged.erase(this); }

}  // namespace edna::db
