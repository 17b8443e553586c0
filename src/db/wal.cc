#include "src/db/wal.h"

#include <chrono>
#include <thread>

#include "src/common/crc32.h"
#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/db/storage.h"
#include "src/sql/codec.h"

namespace edna::db {

namespace {

constexpr uint32_t kWalMagic = 0x45444E57;  // "EDNW"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderSize = 16;  // magic + version + base_lsn
constexpr size_t kFrameHeaderSize = 8;  // payload_len + crc
// Upper bound on one frame's payload; anything larger during the scan is
// treated as a torn length field, not an allocation request.
constexpr uint32_t kMaxPayload = 1u << 30;

std::vector<uint8_t> EncodeHeader(uint64_t base_lsn) {
  sql::ByteWriter w;
  w.U32(kWalMagic);
  w.U32(kWalVersion);
  w.U64(base_lsn);
  return w.Take();
}

}  // namespace

std::vector<uint8_t> EncodeWalPayload(const WalRecord& record) {
  sql::ByteWriter w;
  w.U64(record.lsn);
  w.U8(static_cast<uint8_t>(record.kind));
  switch (record.kind) {
    case WalRecord::Kind::kCommit: {
      const WalCommit& c = record.commit;
      w.U32(static_cast<uint32_t>(c.changes.size()));
      for (const WalChange& ch : c.changes) {
        w.U8(ch.erase ? 1 : 0);
        w.String(ch.table);
        w.U64(ch.id);
        if (!ch.erase) {
          w.U32(static_cast<uint32_t>(ch.row.size()));
          for (const sql::Value& v : ch.row) {
            w.Value(v);
          }
        }
      }
      w.U32(static_cast<uint32_t>(c.counters.size()));
      for (const auto& [table, counter] : c.counters) {
        w.String(table);
        w.I64(counter);
      }
      w.U32(static_cast<uint32_t>(c.attachments.size()));
      for (const std::vector<uint8_t>& a : c.attachments) {
        w.U32(static_cast<uint32_t>(a.size()));
        w.Bytes(a.data(), a.size());
      }
      break;
    }
    case WalRecord::Kind::kCreateTable:
      SerializeTableSchema(&w, *record.schema);
      break;
    case WalRecord::Kind::kAddColumn:
      w.String(record.table);
      SerializeColumnDef(&w, record.column);
      w.Value(record.fill);
      break;
    case WalRecord::Kind::kCreateIndex:
      w.String(record.table);
      w.String(record.index_column);
      break;
    case WalRecord::Kind::kSidecar:
      w.U32(static_cast<uint32_t>(record.sidecar.size()));
      w.Bytes(record.sidecar.data(), record.sidecar.size());
      break;
  }
  return w.Take();
}

StatusOr<WalRecord> DecodeWalPayload(const std::vector<uint8_t>& payload) {
  sql::ByteReader r(payload);
  WalRecord rec;
  ASSIGN_OR_RETURN(rec.lsn, r.U64());
  ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind < static_cast<uint8_t>(WalRecord::Kind::kCommit) ||
      kind > static_cast<uint8_t>(WalRecord::Kind::kSidecar)) {
    return InvalidArgument("bad WAL record kind " + std::to_string(kind));
  }
  rec.kind = static_cast<WalRecord::Kind>(kind);
  auto read_blob = [&r](std::vector<uint8_t>* out) -> Status {
    ASSIGN_OR_RETURN(uint32_t len, r.U32());
    if (len > r.remaining()) {
      return InvalidArgument("WAL blob length exceeds payload");
    }
    out->resize(len);
    for (uint32_t i = 0; i < len; ++i) {
      ASSIGN_OR_RETURN((*out)[i], r.U8());
    }
    return OkStatus();
  };
  switch (rec.kind) {
    case WalRecord::Kind::kCommit: {
      ASSIGN_OR_RETURN(uint32_t nchanges, r.U32());
      rec.commit.changes.reserve(nchanges);
      for (uint32_t i = 0; i < nchanges; ++i) {
        WalChange ch;
        ASSIGN_OR_RETURN(uint8_t erase, r.U8());
        ch.erase = erase != 0;
        ASSIGN_OR_RETURN(ch.table, r.String());
        ASSIGN_OR_RETURN(ch.id, r.U64());
        if (!ch.erase) {
          ASSIGN_OR_RETURN(uint32_t width, r.U32());
          ch.row.reserve(width);
          for (uint32_t c = 0; c < width; ++c) {
            ASSIGN_OR_RETURN(sql::Value v, r.Value());
            ch.row.push_back(std::move(v));
          }
        }
        rec.commit.changes.push_back(std::move(ch));
      }
      ASSIGN_OR_RETURN(uint32_t ncounters, r.U32());
      for (uint32_t i = 0; i < ncounters; ++i) {
        std::string table;
        ASSIGN_OR_RETURN(table, r.String());
        ASSIGN_OR_RETURN(int64_t counter, r.I64());
        rec.commit.counters.emplace_back(std::move(table), counter);
      }
      ASSIGN_OR_RETURN(uint32_t nattach, r.U32());
      for (uint32_t i = 0; i < nattach; ++i) {
        std::vector<uint8_t> blob;
        RETURN_IF_ERROR(read_blob(&blob));
        rec.commit.attachments.push_back(std::move(blob));
      }
      break;
    }
    case WalRecord::Kind::kCreateTable: {
      ASSIGN_OR_RETURN(TableSchema ts, DeserializeTableSchema(&r));
      rec.schema = std::move(ts);
      break;
    }
    case WalRecord::Kind::kAddColumn: {
      ASSIGN_OR_RETURN(rec.table, r.String());
      ASSIGN_OR_RETURN(rec.column, DeserializeColumnDef(&r));
      ASSIGN_OR_RETURN(rec.fill, r.Value());
      break;
    }
    case WalRecord::Kind::kCreateIndex: {
      ASSIGN_OR_RETURN(rec.table, r.String());
      ASSIGN_OR_RETURN(rec.index_column, r.String());
      break;
    }
    case WalRecord::Kind::kSidecar: {
      RETURN_IF_ERROR(read_blob(&rec.sidecar));
      break;
    }
  }
  if (!r.AtEnd()) {
    return InvalidArgument("trailing bytes in WAL record payload");
  }
  return rec;
}

// --- Open / scan -------------------------------------------------------------

WriteAheadLog::WriteAheadLog(File wal_file, const WalOptions& options, uint64_t next_lsn,
                             uint64_t size_bytes)
    : options_(options),
      wal_file_(std::move(wal_file)),
      next_lsn_(next_lsn),
      size_bytes_(size_bytes) {
  appended_lsn_.store(next_lsn_ - 1, std::memory_order_relaxed);
  durable_lsn_ = next_lsn_ - 1;  // everything recovered from disk is durable
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, const WalOptions& options,
    std::vector<WalRecord>* replay, WalScanStats* stats) {
  replay->clear();
  *stats = WalScanStats{};

  ASSIGN_OR_RETURN(File wal_file, File::Open(path, File::Mode::kReadWrite));
  ASSIGN_OR_RETURN(uint64_t end, wal_file.Size());

  if (end == 0) {
    // Fresh log: write the header before handing the log out, so a crash
    // right after creation still leaves a well-formed (empty) file, and
    // sync the directory so that the new file's entry survives one too.
    std::vector<uint8_t> header = EncodeHeader(/*base_lsn=*/1);
    RETURN_IF_ERROR(wal_file.WriteAt(0, header));
    RETURN_IF_ERROR(wal_file.Sync());
    RETURN_IF_ERROR(SyncParentDir(path));
    return std::unique_ptr<WriteAheadLog>(
        new WriteAheadLog(std::move(wal_file), options, /*next_lsn=*/1, header.size()));
  }

  // Existing log: read it fully and scan.
  ASSIGN_OR_RETURN(std::vector<uint8_t> file, wal_file.ReadAt(0, end));

  // Header. A file too short to hold one, or with the wrong magic/version,
  // is not "an empty log" — refuse rather than silently discard history.
  if (file.size() < kHeaderSize) {
    return InvalidArgument("WAL \"" + path + "\" is shorter than its header");
  }
  sql::ByteReader hdr(file);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t base_lsn = 0;
  {
    auto m = hdr.U32();
    auto v = hdr.U32();
    auto b = hdr.U64();
    if (!m.ok() || !v.ok() || !b.ok()) {
      return InvalidArgument("WAL \"" + path + "\" header is unreadable");
    }
    magic = *m;
    version = *v;
    base_lsn = *b;
  }
  if (magic != kWalMagic) {
    return InvalidArgument("\"" + path + "\" is not a WAL file (bad magic)");
  }
  if (version != kWalVersion) {
    return InvalidArgument(StrFormat("unsupported WAL version %u", version));
  }
  if (base_lsn == 0) {
    return InvalidArgument("WAL header carries invalid base LSN 0");
  }

  // Frame scan: keep the longest valid prefix.
  size_t pos = kHeaderSize;
  uint64_t expected_lsn = base_lsn;
  auto torn = [&](const std::string& why) { stats->torn_reason = why; };
  while (pos < file.size()) {
    if (file.size() - pos < kFrameHeaderSize) {
      torn("partial frame header");
      break;
    }
    uint32_t payload_len = static_cast<uint32_t>(file[pos]) |
                           static_cast<uint32_t>(file[pos + 1]) << 8 |
                           static_cast<uint32_t>(file[pos + 2]) << 16 |
                           static_cast<uint32_t>(file[pos + 3]) << 24;
    uint32_t expected_crc = static_cast<uint32_t>(file[pos + 4]) |
                            static_cast<uint32_t>(file[pos + 5]) << 8 |
                            static_cast<uint32_t>(file[pos + 6]) << 16 |
                            static_cast<uint32_t>(file[pos + 7]) << 24;
    if (payload_len > kMaxPayload || payload_len > file.size() - pos - kFrameHeaderSize) {
      torn("frame length exceeds file");
      break;
    }
    std::vector<uint8_t> payload(file.begin() + pos + kFrameHeaderSize,
                                 file.begin() + pos + kFrameHeaderSize + payload_len);
    if (Crc32(payload) != expected_crc) {
      torn("frame checksum mismatch");
      break;
    }
    StatusOr<WalRecord> rec = DecodeWalPayload(payload);
    if (!rec.ok()) {
      torn("undecodable frame: " + rec.status().ToString());
      break;
    }
    if (rec->lsn != expected_lsn) {
      torn(StrFormat("LSN discontinuity (want %llu, frame says %llu)",
                     static_cast<unsigned long long>(expected_lsn),
                     static_cast<unsigned long long>(rec->lsn)));
      break;
    }
    replay->push_back(*std::move(rec));
    ++expected_lsn;
    pos += kFrameHeaderSize + payload_len;
  }
  stats->records_recovered = replay->size();
  stats->torn_bytes_dropped = file.size() - pos;

  if (pos < file.size()) {
    // Drop the torn tail so the next append starts on a frame boundary.
    RETURN_IF_ERROR(wal_file.Truncate(pos));
    RETURN_IF_ERROR(wal_file.Sync());
    EDNA_LOG(kWarning) << "WAL \"" << path << "\": dropped " << stats->torn_bytes_dropped
                       << " torn byte(s) (" << stats->torn_reason << "), kept "
                       << replay->size() << " record(s)";
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(wal_file), options, expected_lsn, pos));
}

// --- Append / sync -----------------------------------------------------------

StatusOr<uint64_t> WriteAheadLog::Append(const WalRecord& record) {
  std::lock_guard<std::mutex> lock(append_mu_);
  // The fail point fires BEFORE anything reaches the file: a simulated
  // crash here models the record never having been written.
  EDNA_FAIL_POINT(failpoints::kWalAppend);
  if (!write_error_.ok()) {
    return write_error_;
  }
  WalRecord framed = record;
  framed.lsn = next_lsn_;
  std::vector<uint8_t> payload = EncodeWalPayload(framed);
  sql::ByteWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload));
  w.Bytes(payload.data(), payload.size());
  std::vector<uint8_t> frame = w.Take();
  Status written = wal_file_.WriteAt(size_bytes_, frame);
  if (!written.ok()) {
    write_error_ = written;  // sticky: the file now ends mid-frame
    return written;
  }
  size_bytes_ += frame.size();
  ++next_lsn_;
  appended_lsn_.store(framed.lsn, std::memory_order_release);
  return framed.lsn;
}

Status WriteAheadLog::Sync(uint64_t lsn) {
  EDNA_FAIL_POINT(failpoints::kWalSync);
  if (options_.sync_mode == WalOptions::SyncMode::kNone || lsn == 0) {
    return OkStatus();
  }

  std::unique_lock<std::mutex> lk(sync_mu_);
  for (;;) {
    if (!sync_error_.ok()) {
      return sync_error_;
    }
    if (lsn <= durable_lsn_) {
      return OkStatus();
    }
    if (!sync_in_progress_) {
      break;  // become the leader
    }
    sync_cv_.wait(lk);
  }
  sync_in_progress_ = true;
  lk.unlock();

  if (options_.sync_mode == WalOptions::SyncMode::kGroup &&
      options_.group_window_us > 0) {
    // Linger so commits racing in behind us ride the same fsync.
    std::this_thread::sleep_for(std::chrono::microseconds(options_.group_window_us));
  }
  // Everything appended before the fsync is covered by it.
  uint64_t covered = appended_lsn_.load(std::memory_order_acquire);
  Status synced = wal_file_.Sync();

  lk.lock();
  sync_in_progress_ = false;
  if (synced.ok()) {
    if (covered > durable_lsn_) {
      durable_lsn_ = covered;
    }
  } else {
    sync_error_ = synced;  // sticky
  }
  sync_cv_.notify_all();
  return synced;
}

Status WriteAheadLog::Flush() { return Sync(appended_lsn_.load(std::memory_order_acquire)); }

StatusOr<bool> WriteAheadLog::TruncateIfCovered(uint64_t lsn) {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  EDNA_FAIL_POINT(failpoints::kWalTruncate);
  if (!write_error_.ok()) {
    return write_error_;
  }
  if (appended_lsn_.load(std::memory_order_acquire) != lsn) {
    return false;  // records newer than the snapshot exist; keep the log
  }
  // Flush so any committer still waiting on Sync(<=lsn) is satisfied before
  // its records disappear from the file. (sync_mu_ is only taken inside
  // Sync, after append_mu_ is NOT held there — no ordering violation.)
  if (options_.sync_mode != WalOptions::SyncMode::kNone) {
    std::unique_lock<std::mutex> lk(sync_mu_);
    if (!sync_error_.ok()) {
      return sync_error_;
    }
    if (durable_lsn_ < lsn) {
      Status synced = wal_file_.Sync();
      if (!synced.ok()) {
        sync_error_ = synced;
        sync_cv_.notify_all();
        return synced;
      }
      durable_lsn_ = lsn;
      sync_cv_.notify_all();
    }
  }
  // Rewrite the header with the advanced base LSN, then drop the frames.
  // Order matters for crash safety: ftruncate-then-header would leave a
  // window where old base_lsn + no frames reads as "records lost"; header
  // first merely makes the old frames unreachable (LSN discontinuity →
  // treated as torn tail), which replay already tolerates because the
  // snapshot covering `lsn` supersedes them.
  Status written = wal_file_.WriteAt(0, EncodeHeader(lsn + 1));
  if (written.ok()) {
    written = wal_file_.Truncate(kHeaderSize);
  }
  if (written.ok()) {
    written = wal_file_.Sync();
  }
  if (!written.ok()) {
    write_error_ = written;
    return written;
  }
  size_bytes_ = kHeaderSize;
  return true;
}

uint64_t WriteAheadLog::appended_lsn() const {
  return appended_lsn_.load(std::memory_order_acquire);
}

uint64_t WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return durable_lsn_;
}

uint64_t WriteAheadLog::SizeBytes() const {
  std::lock_guard<std::mutex> lock(append_mu_);
  return size_bytes_;
}

}  // namespace edna::db
