#include "src/db/pagecache.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/db/database.h"
#include "src/db/table.h"
#include "src/sql/codec.h"

namespace edna::db {

namespace {

// Extent frame header (20 bytes, little-endian; docs/FORMATS.md):
//   u32 magic "EDNX" | u8 version | u8 flags (bit0 = LZ-compressed) |
//   u16 page_count | u32 raw_len | u32 stored_len | u32 crc32(stored payload)
constexpr uint32_t kExtentMagic = 0x584E4445;  // "EDNX"
constexpr uint8_t kExtentVersion = 1;
constexpr uint8_t kFlagCompressed = 0x01;
constexpr size_t kFrameHeaderSize = 20;

uint16_t ReadLe16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t ReadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

Status WriteFullyAt(int fd, const uint8_t* data, size_t len, uint64_t off) {
  size_t written = 0;
  while (written < len) {
    ssize_t n = ::pwrite(fd, data + written, len - written,
                         static_cast<off_t>(off + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Internal(std::string("extent pwrite failed: ") + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return OkStatus();
}

}  // namespace

uint64_t ApproxValueBytes(const sql::Value& v) {
  uint64_t bytes = sizeof(sql::Value);
  if (v.is_string()) {
    bytes += v.AsString().size();
  } else if (v.is_blob()) {
    bytes += v.AsBlob().size();
  }
  return bytes;
}

uint64_t ApproxRowBytes(const Row& row) {
  uint64_t bytes = 32;  // map-node + vector-header overhead approximation
  for (const sql::Value& v : row) bytes += ApproxValueBytes(v);
  return bytes;
}

std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& in) {
  const size_t n = in.size();
  if (n < 16) return {};
  std::vector<uint8_t> out;
  out.reserve(n);
  constexpr uint32_t kHashBits = 13;
  std::vector<uint32_t> htab(1u << kHashBits, 0xFFFFFFFFu);
  auto hash4 = [&in](size_t p) {
    uint32_t v;
    std::memcpy(&v, &in[p], 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  };
  auto emit_ext = [&out](size_t len) {
    while (len >= 255) {
      out.push_back(255);
      len -= 255;
    }
    out.push_back(static_cast<uint8_t>(len));
  };
  // Stop matching 12 bytes before the end so the stream always closes with a
  // literals-only sequence (the decoder's end-of-input condition).
  const size_t limit = n - 12;
  size_t pos = 0;
  size_t anchor = 0;
  while (pos < limit) {
    const uint32_t h = hash4(pos);
    const size_t cand = htab[h];
    htab[h] = static_cast<uint32_t>(pos);
    if (cand == 0xFFFFFFFFu || pos - cand > 0xFFFF ||
        std::memcmp(&in[cand], &in[pos], 4) != 0) {
      ++pos;
      continue;
    }
    size_t mlen = 4;
    while (pos + mlen < limit && in[cand + mlen] == in[pos + mlen]) ++mlen;
    const size_t lit = pos - anchor;
    const size_t mex = mlen - 4;
    out.push_back(static_cast<uint8_t>((std::min<size_t>(lit, 15) << 4) |
                                       std::min<size_t>(mex, 15)));
    if (lit >= 15) emit_ext(lit - 15);
    out.insert(out.end(), in.begin() + static_cast<ptrdiff_t>(anchor),
               in.begin() + static_cast<ptrdiff_t>(pos));
    const uint16_t dist = static_cast<uint16_t>(pos - cand);
    out.push_back(static_cast<uint8_t>(dist & 0xFF));
    out.push_back(static_cast<uint8_t>(dist >> 8));
    if (mex >= 15) emit_ext(mex - 15);
    pos += mlen;
    anchor = pos;
    if (out.size() >= n) return {};
  }
  const size_t lit = n - anchor;
  out.push_back(static_cast<uint8_t>(std::min<size_t>(lit, 15) << 4));
  if (lit >= 15) emit_ext(lit - 15);
  out.insert(out.end(), in.begin() + static_cast<ptrdiff_t>(anchor), in.end());
  if (out.size() >= n) return {};
  return out;
}

Status LzDecompress(const uint8_t* in, size_t in_len, size_t raw_len,
                    std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(raw_len);
  size_t p = 0;
  auto read_ext = [in, in_len, &p](size_t base, size_t* len) {
    *len = base;
    if (base < 15) return true;
    while (true) {
      if (p >= in_len) return false;
      const uint8_t b = in[p++];
      *len += b;
      if (b != 255) return true;
    }
  };
  while (p < in_len) {
    const uint8_t token = in[p++];
    size_t lit = 0;
    if (!read_ext(token >> 4, &lit)) return Internal("lz: truncated literal length");
    if (lit > in_len - p) return Internal("lz: literal overrun");
    if (out->size() + lit > raw_len) return Internal("lz: output overflow");
    out->insert(out->end(), in + p, in + p + lit);
    p += lit;
    if (p == in_len) break;  // final literals-only sequence
    if (in_len - p < 2) return Internal("lz: truncated match offset");
    const size_t dist = static_cast<size_t>(in[p]) | (static_cast<size_t>(in[p + 1]) << 8);
    p += 2;
    if (dist == 0 || dist > out->size()) return Internal("lz: bad match distance");
    size_t mlen = 0;
    if (!read_ext(token & 0x0F, &mlen)) return Internal("lz: truncated match length");
    mlen += 4;
    if (out->size() + mlen > raw_len) return Internal("lz: output overflow");
    const size_t from = out->size() - dist;
    for (size_t i = 0; i < mlen; ++i) out->push_back((*out)[from + i]);
  }
  if (out->size() != raw_len) return Internal("lz: decompressed size mismatch");
  return OkStatus();
}

PageCache::PageCache(CacheOptions options, std::string dir, DbStats* stats)
    : options_(options), dir_(std::move(dir)), stats_(stats) {}

PageCache::~PageCache() = default;

Status PageCache::Init() {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    return Internal("cannot create extents directory " + dir_ + ": " +
                    std::strerror(errno));
  }
  // Spill files are scoped to one process lifetime; stale ones are garbage.
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return Internal("cannot open extents directory " + dir_ + ": " +
                    std::strerror(errno));
  }
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".edx") == 0) {
      ::unlink((dir_ + "/" + name).c_str());
    }
  }
  ::closedir(d);
  return OkStatus();
}

std::string PageCache::ExtentPath(uint32_t table_id) const {
  return dir_ + "/t" + std::to_string(table_id) + ".edx";
}

uint32_t PageCache::RegisterTable(const std::string& name, Table* table) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t id = static_cast<uint32_t>(tables_.size());
  tables_.emplace_back();
  TableState& ts = tables_.back();
  ts.name = name;
  ts.table = table;
  ids_[name] = id;
  // Seed accounting: every current row is resident and has no frame yet.
  uint64_t total = 0;
  table->Scan([&](RowId row_id, const Row& row) {
    const uint64_t page = PageOf(row_id);
    PageMeta& meta = ts.pages[page];  // default: resident, dirty, no frame
    const uint64_t bytes = ApproxRowBytes(row);
    meta.bytes += bytes;
    total += bytes;
  });
  for (auto& [page, meta] : ts.pages) ClockTouch(id, page, meta);
  AddResident(static_cast<int64_t>(total));
  return id;
}

Status PageCache::Access(uint32_t table_id, uint64_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  TableState& ts = tables_[table_id];
  auto [it, inserted] = ts.pages.try_emplace(page);
  PageMeta& meta = it->second;
  if (inserted) {
    // First touch of a page that has never held rows (insert path).
    ClockTouch(table_id, page, meta);
    return OkStatus();
  }
  if (meta.resident) {
    stats_->page_hits.fetch_add(1, std::memory_order_relaxed);
    ClockTouch(table_id, page, meta);
    return OkStatus();
  }
  stats_->page_misses.fetch_add(1, std::memory_order_relaxed);
  RETURN_IF_ERROR(Fault(ts, table_id, page, meta));
  ClockTouch(table_id, page, meta);
  return OkStatus();
}

Status PageCache::Fault(TableState& ts, uint32_t table_id, uint64_t page,
                        PageMeta& meta) {
  EDNA_FAIL_POINT(failpoints::kExtentRead);
  if (!meta.has_frame) return Internal("spilled page has no extent frame");
  FramePages frame_pages;
  RETURN_IF_ERROR(ReadFrame(table_id, meta.frame_off, meta.frame_len, &frame_pages));
  for (auto& [frame_page, rows] : frame_pages) {
    // A frame can hold several pages of one eviction round; install only the
    // requested one — siblings may have been faulted back and re-dirtied.
    if (frame_page != page) continue;
    uint64_t bytes = 0;
    for (const auto& [row_id, row] : rows) bytes += ApproxRowBytes(row);
    RETURN_IF_ERROR(ts.table->InstallPageRows(page, &rows));
    meta.resident = true;
    meta.dirty = false;
    meta.bytes = bytes;
    AddResident(static_cast<int64_t>(bytes));
    return OkStatus();
  }
  return Internal("extent frame does not contain page " + std::to_string(page));
}

Status PageCache::ReadFrame(uint32_t table_id, uint64_t off, uint32_t len,
                            FramePages* pages) {
  const std::string path = ExtentPath(table_id);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return NotFound("extent file missing: " + path);
    return Internal("cannot open extent file " + path + ": " + std::strerror(errno));
  }
  std::vector<uint8_t> buf(len);
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::pread(fd, buf.data() + got, len - got, static_cast<off_t>(off + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got < len) return Internal("extent frame truncated: " + path);
  if (len < kFrameHeaderSize) return Internal("extent frame shorter than header");
  if (ReadLe32(buf.data()) != kExtentMagic) return Internal("bad extent frame magic");
  if (buf[4] != kExtentVersion) return Internal("unsupported extent frame version");
  const uint8_t flags = buf[5];
  const uint16_t page_count = ReadLe16(buf.data() + 6);
  const uint32_t raw_len = ReadLe32(buf.data() + 8);
  const uint32_t stored_len = ReadLe32(buf.data() + 12);
  const uint32_t crc = ReadLe32(buf.data() + 16);
  if (kFrameHeaderSize + stored_len != len) {
    return Internal("extent frame length mismatch");
  }
  // Integrity before decompression: a corrupt stored payload must fail the
  // CRC, not trip the decoder.
  if (Crc32(buf.data() + kFrameHeaderSize, stored_len) != crc) {
    return Internal("extent frame CRC mismatch");
  }
  std::vector<uint8_t> raw;
  if (flags & kFlagCompressed) {
    RETURN_IF_ERROR(LzDecompress(buf.data() + kFrameHeaderSize, stored_len, raw_len, &raw));
  } else {
    if (stored_len != raw_len) return Internal("extent frame raw length mismatch");
    raw.assign(buf.begin() + kFrameHeaderSize, buf.end());
  }
  sql::ByteReader reader(raw);
  for (uint16_t i = 0; i < page_count; ++i) {
    auto page = reader.U64();
    if (!page.ok()) return Internal("extent payload corrupt: " + page.status().message());
    auto nrows = reader.U32();
    if (!nrows.ok()) return Internal("extent payload corrupt: " + nrows.status().message());
    std::vector<std::pair<RowId, Row>> rows;
    rows.reserve(*nrows);
    for (uint32_t r = 0; r < *nrows; ++r) {
      auto id = reader.U64();
      if (!id.ok()) return Internal("extent payload corrupt: " + id.status().message());
      auto ncols = reader.U32();
      if (!ncols.ok()) return Internal("extent payload corrupt: " + ncols.status().message());
      if (*ncols > raw.size()) return Internal("extent payload corrupt: column count");
      Row row;
      row.reserve(*ncols);
      for (uint32_t c = 0; c < *ncols; ++c) {
        auto value = reader.Value();
        if (!value.ok()) {
          return Internal("extent payload corrupt: " + value.status().message());
        }
        row.push_back(std::move(*value));
      }
      rows.emplace_back(*id, std::move(row));
    }
    pages->emplace_back(*page, std::move(rows));
  }
  if (!reader.AtEnd()) return Internal("extent payload corrupt: trailing bytes");
  return OkStatus();
}

void PageCache::OnMutation(uint32_t table_id, uint64_t page, int64_t byte_delta) {
  std::lock_guard<std::mutex> lock(mu_);
  TableState& ts = tables_[table_id];
  auto [it, inserted] = ts.pages.try_emplace(page);
  PageMeta& meta = it->second;
  if (inserted) ClockTouch(table_id, page, meta);
  meta.dirty = true;
  if (byte_delta < 0 && meta.bytes < static_cast<uint64_t>(-byte_delta)) {
    meta.bytes = 0;  // accounting is approximate; clamp rather than wrap
  } else {
    meta.bytes = static_cast<uint64_t>(static_cast<int64_t>(meta.bytes) + byte_delta);
  }
  AddResident(byte_delta);
}

void PageCache::PinRow(const std::string& table, RowId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(table);
  if (it == ids_.end()) return;
  TableState& ts = tables_[it->second];
  // RestoreRow claims its intent before the row exists; create the page
  // resident-empty so the pin has something to hold.
  auto [pit, inserted] = ts.pages.try_emplace(PageOf(id));
  if (inserted) ClockTouch(it->second, pit->first, pit->second);
  ++pit->second.pins;
}

void PageCache::UnpinRow(const std::string& table, RowId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(table);
  if (it == ids_.end()) return;
  TableState& ts = tables_[it->second];
  auto pit = ts.pages.find(PageOf(id));
  if (pit != ts.pages.end() && pit->second.pins > 0) --pit->second.pins;
}

bool PageCache::OverBudget() const {
  return options_.max_resident_bytes > 0 &&
         resident_gauge_.load(std::memory_order_relaxed) > options_.max_resident_bytes;
}

std::vector<PageCache::EvictGroup> PageCache::PlanEviction() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_resident_bytes == 0 || resident_bytes_ <= options_.max_resident_bytes) {
    return {};
  }
  const uint64_t need = resident_bytes_ - options_.max_resident_bytes;
  uint64_t freed = 0;
  std::map<uint32_t, std::vector<uint64_t>> by_table;

  auto classify = [&](uint32_t tid, uint64_t page) -> PageMeta* {
    auto it = tables_[tid].pages.find(page);
    if (it == tables_[tid].pages.end()) return nullptr;
    return &it->second;
  };

  size_t steps = ring_.size() * 2 + 8;
  while (freed < need && steps-- > 0 && !ring_.empty()) {
    auto [tid, page] = ring_.front();
    ring_.pop_front();
    PageMeta* meta = classify(tid, page);
    if (meta == nullptr || !meta->resident) {
      if (meta != nullptr) meta->in_ring = false;  // stale ring entry
      continue;
    }
    if (meta->bytes == 0) {  // empty page: nothing to free, drop from ring
      meta->in_ring = false;
      continue;
    }
    if (meta->pins > 0) {
      ring_.emplace_back(tid, page);
      continue;
    }
    if (meta->ref) {  // second chance
      meta->ref = false;
      ring_.emplace_back(tid, page);
      continue;
    }
    meta->in_ring = false;
    by_table[tid].push_back(page);
    freed += meta->bytes;
  }

  std::vector<EvictGroup> groups;
  groups.reserve(by_table.size());
  for (auto& [tid, pages] : by_table) {
    EvictGroup g;
    g.table = tables_[tid].name;
    g.table_id = tid;
    g.pages = std::move(pages);
    groups.push_back(std::move(g));
  }
  return groups;
}

void PageCache::Requeue(uint32_t table_id, const std::vector<uint64_t>& pages) {
  std::lock_guard<std::mutex> lock(mu_);
  TableState& ts = tables_[table_id];
  for (uint64_t page : pages) {
    auto it = ts.pages.find(page);
    if (it != ts.pages.end() && it->second.resident) {
      ClockTouch(table_id, page, it->second);
    }
  }
}

StatusOr<bool> PageCache::EvictPages(uint32_t table_id,
                                     const std::vector<uint64_t>& pages) {
  std::lock_guard<std::mutex> lock(mu_);
  TableState& ts = tables_[table_id];
  std::vector<uint64_t> victims;
  std::vector<uint64_t> dirty;
  for (uint64_t page : pages) {
    auto it = ts.pages.find(page);
    if (it == ts.pages.end()) continue;
    PageMeta& meta = it->second;
    if (!meta.resident) continue;
    if (meta.pins > 0 || meta.bytes == 0) {
      ClockTouch(table_id, page, meta);  // revalidation failed: keep tracked
      continue;
    }
    victims.push_back(page);
    if (meta.dirty || !meta.has_frame) dirty.push_back(page);
  }
  if (victims.empty()) return false;

  auto requeue_victims = [&] {
    for (uint64_t page : victims) ClockTouch(table_id, page, ts.pages[page]);
  };

  if (!dirty.empty()) {
    sql::ByteWriter payload;
    for (uint64_t page : dirty) {
      std::vector<std::pair<RowId, const Row*>> rows;
      ts.table->CollectPageRows(page, &rows);
      payload.U64(page);
      payload.U32(static_cast<uint32_t>(rows.size()));
      for (const auto& [row_id, row] : rows) {
        payload.U64(row_id);
        payload.U32(static_cast<uint32_t>(row->size()));
        for (const sql::Value& v : *row) payload.Value(v);
      }
    }
    const std::vector<uint8_t> raw = payload.Take();

    // Inline fail-point evaluation (not the macro): on an injected failure
    // the victims must return to the clock ring before we bail, or
    // they would stay resident but untracked.
    Status status = FailPoints::Instance().Check(failpoints::kPagecacheWriteback);
    uint64_t frame_off = 0;
    uint32_t frame_len = 0;
    if (status.ok()) {
      const std::vector<uint8_t> compressed = LzCompress(raw);
      const uint8_t flags = compressed.empty() ? 0 : kFlagCompressed;
      const std::vector<uint8_t>& stored = compressed.empty() ? raw : compressed;
      std::vector<uint8_t> frame;
      frame.reserve(kFrameHeaderSize + stored.size());
      sql::ByteWriter header;
      header.U32(kExtentMagic);
      header.U8(kExtentVersion);
      header.U8(flags);
      header.U8(static_cast<uint8_t>(dirty.size() & 0xFF));
      header.U8(static_cast<uint8_t>(dirty.size() >> 8));
      header.U32(static_cast<uint32_t>(raw.size()));
      header.U32(static_cast<uint32_t>(stored.size()));
      header.U32(Crc32(stored));
      frame = header.Take();
      frame.insert(frame.end(), stored.begin(), stored.end());

      frame_off = ts.file_size;
      frame_len = static_cast<uint32_t>(frame.size());
      const std::string path = ExtentPath(table_id);
      const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
      if (fd < 0) {
        status = Internal("cannot open extent file " + path + ": " + std::strerror(errno));
      } else {
        status = WriteFullyAt(fd, frame.data(), frame.size(), frame_off);
        ::close(fd);
      }
    }
    if (!status.ok()) {
      requeue_victims();
      return status;
    }
    // Extents are spill, not durability: no fsync. The frame is append-only;
    // frames superseded by re-dirty + re-evict become dead space reclaimed by
    // the wipe at next Open.
    ts.file_size += frame_len;
    for (uint64_t page : dirty) {
      PageMeta& meta = ts.pages[page];
      meta.has_frame = true;
      meta.dirty = false;
      meta.frame_off = frame_off;
      meta.frame_len = frame_len;
    }
    stats_->page_writebacks.fetch_add(dirty.size(), std::memory_order_relaxed);
  }

  for (uint64_t page : victims) {
    PageMeta& meta = ts.pages[page];
    ts.table->DropPageRows(page);
    meta.resident = false;
    meta.ref = false;
    AddResident(-static_cast<int64_t>(meta.bytes));
  }
  stats_->page_evictions.fetch_add(victims.size(), std::memory_order_relaxed);
  return true;
}

Status PageCache::SnapshotTableRows(uint32_t table_id, std::map<RowId, Row>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  TableState& ts = tables_[table_id];
  *out = ts.table->RawRows();
  for (auto& [page, meta] : ts.pages) {
    if (meta.resident) continue;
    if (!meta.has_frame) return Internal("spilled page has no extent frame");
    FramePages frame_pages;
    RETURN_IF_ERROR(ReadFrame(table_id, meta.frame_off, meta.frame_len, &frame_pages));
    bool found = false;
    for (auto& [frame_page, rows] : frame_pages) {
      if (frame_page != page) continue;
      found = true;
      for (auto& [row_id, row] : rows) {
        auto it = out->find(row_id);
        if (it == out->end()) {
          return Internal("extent frame holds row absent from live table");
        }
        it->second = std::move(row);
      }
    }
    if (!found) return Internal("extent frame does not contain page");
  }
  return OkStatus();
}

void PageCache::RecordStickyError(const Status& s) {
  if (s.ok()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (sticky_.ok()) sticky_ = s;
}

Status PageCache::ConsumeStickyError() {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = sticky_;
  sticky_ = OkStatus();
  return s;
}

uint64_t PageCache::ResidentBytes() const {
  return resident_gauge_.load(std::memory_order_relaxed);
}

bool PageCache::DebugIsRowResident(const std::string& table, RowId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(table);
  if (it == ids_.end()) return true;
  const TableState& ts = tables_[it->second];
  auto pit = ts.pages.find(PageOf(id));
  return pit == ts.pages.end() || pit->second.resident;
}

std::vector<std::string> PageCache::DebugExtentFiles() const {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return files;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".edx") == 0) {
      files.push_back(dir_ + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

void PageCache::ClockTouch(uint32_t table_id, uint64_t page, PageMeta& meta) {
  meta.ref = true;
  if (!meta.in_ring) {
    meta.in_ring = true;
    ring_.emplace_back(table_id, page);
  }
}

void PageCache::AddResident(int64_t delta) {
  if (delta < 0 && resident_bytes_ < static_cast<uint64_t>(-delta)) {
    resident_bytes_ = 0;
  } else {
    resident_bytes_ = static_cast<uint64_t>(static_cast<int64_t>(resident_bytes_) + delta);
  }
  resident_gauge_.store(resident_bytes_, std::memory_order_relaxed);
  stats_->resident_bytes.store(resident_bytes_, std::memory_order_relaxed);
}

}  // namespace edna::db
