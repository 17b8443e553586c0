// Whole-database serialization: schema, rows (with stable row ids), and
// auto-increment counters, in the same little-endian wire format the vault
// uses. Lets tools snapshot a database to a file and reload it, and gives
// benches/CLI a way to ship prepared datasets. The durable layer
// (src/db/durable.h) reuses it for checkpoint snapshots.
//
// Loading validates referential integrity once after all rows are in (rows
// arrive in table order, which need not be FK order — self-referencing
// tables like lobsters' users.invited_by_user_id make per-row checking
// impossible), so a corrupted image cannot produce a silently broken
// database. Since image v3 the body additionally carries a CRC32, so
// corruption is detected up front rather than through downstream FK
// validation alone.
#ifndef SRC_DB_STORAGE_H_
#define SRC_DB_STORAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/sql/codec.h"

namespace edna::db {

// Serializes the full database state (current format: v3, CRC32-framed).
std::vector<uint8_t> SerializeDatabase(const Database& db);

// Reconstructs a database from `wire`. Fails (without partial state) on any
// corruption, schema violation, or integrity violation. Accepts v3 (CRC32
// verified) and legacy v2 (no checksum) images.
StatusOr<std::unique_ptr<Database>> DeserializeDatabase(const std::vector<uint8_t>& wire);

// File convenience wrappers.
//
// Saves through WriteFileAtomically (src/common/file.h): a save that fails
// leaves the previous image at `path` intact.
Status SaveDatabaseToFile(const Database& db, const std::string& path);

// Loads an image file. The status code distinguishes the failure classes a
// recovery path must treat differently:
//   * kNotFound        — the file does not exist ("no snapshot yet");
//   * kInternal        — the file exists but could not be read fully
//                        (I/O error / short read);
//   * kInvalidArgument — the bytes were read but are not a valid image
//                        (bad magic/version, CRC mismatch, truncated or
//                        corrupt body — "snapshot destroyed").
StatusOr<std::unique_ptr<Database>> LoadDatabaseFromFile(const std::string& path);

// Single-table schema wire form, shared with the WAL's DDL records
// (src/db/wal.h) so a table created after the last snapshot replays with an
// identical schema.
void SerializeTableSchema(sql::ByteWriter* w, const TableSchema& ts);
StatusOr<TableSchema> DeserializeTableSchema(sql::ByteReader* r);

// Single-column wire form (WAL add-column records).
void SerializeColumnDef(sql::ByteWriter* w, const ColumnDef& col);
StatusOr<ColumnDef> DeserializeColumnDef(sql::ByteReader* r);

}  // namespace edna::db

#endif  // SRC_DB_STORAGE_H_
