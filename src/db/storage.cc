#include "src/db/storage.h"

#include "src/common/crc32.h"
#include "src/common/failpoint.h"
#include "src/common/file.h"
#include "src/common/strings.h"
#include "src/sql/codec.h"

namespace edna::db {

namespace {

// Image header: magic + version. Bump kVersion on format changes.
constexpr uint32_t kMagic = 0x45444201;  // "EDB" + 1
// Version history: 1 = initial; 2 = per-column sensitivity byte;
// 3 = u32 CRC32 of the body between version and body (v2 still loads).
constexpr uint32_t kVersion = 3;
constexpr uint32_t kLegacyVersion = 2;

}  // namespace

void SerializeColumnDef(sql::ByteWriter* w, const ColumnDef& col) {
  w->String(col.name);
  w->U8(static_cast<uint8_t>(col.type));
  w->U8(static_cast<uint8_t>(col.sensitivity));
  w->U8(col.nullable ? 1 : 0);
  w->U8(col.auto_increment ? 1 : 0);
  w->U8(col.default_value.has_value() ? 1 : 0);
  if (col.default_value.has_value()) {
    w->Value(*col.default_value);
  }
}

StatusOr<ColumnDef> DeserializeColumnDef(sql::ByteReader* r) {
  ColumnDef col;
  ASSIGN_OR_RETURN(col.name, r->String());
  ASSIGN_OR_RETURN(uint8_t type, r->U8());
  if (type > static_cast<uint8_t>(ColumnType::kBlob)) {
    return InvalidArgument("bad column type in database image");
  }
  col.type = static_cast<ColumnType>(type);
  ASSIGN_OR_RETURN(uint8_t sensitivity, r->U8());
  if (sensitivity > static_cast<uint8_t>(Sensitivity::kPii)) {
    return InvalidArgument("bad column sensitivity in database image");
  }
  col.sensitivity = static_cast<Sensitivity>(sensitivity);
  ASSIGN_OR_RETURN(uint8_t nullable, r->U8());
  col.nullable = nullable != 0;
  ASSIGN_OR_RETURN(uint8_t auto_inc, r->U8());
  col.auto_increment = auto_inc != 0;
  ASSIGN_OR_RETURN(uint8_t has_default, r->U8());
  if (has_default != 0) {
    ASSIGN_OR_RETURN(sql::Value v, r->Value());
    col.default_value = std::move(v);
  }
  return col;
}

void SerializeTableSchema(sql::ByteWriter* w, const TableSchema& ts) {
  w->String(ts.name());
  w->U32(static_cast<uint32_t>(ts.columns().size()));
  for (const ColumnDef& col : ts.columns()) {
    SerializeColumnDef(w, col);
  }
  w->U32(static_cast<uint32_t>(ts.primary_key().size()));
  for (const std::string& pk : ts.primary_key()) {
    w->String(pk);
  }
  w->U32(static_cast<uint32_t>(ts.foreign_keys().size()));
  for (const ForeignKeyDef& fk : ts.foreign_keys()) {
    w->String(fk.column);
    w->String(fk.parent_table);
    w->String(fk.parent_column);
    w->U8(static_cast<uint8_t>(fk.on_delete));
  }
  w->U32(static_cast<uint32_t>(ts.indexes().size()));
  for (const IndexDef& idx : ts.indexes()) {
    w->String(idx.column);
  }
}

StatusOr<TableSchema> DeserializeTableSchema(sql::ByteReader* r) {
  ASSIGN_OR_RETURN(std::string name, r->String());
  TableSchema ts(name);
  ASSIGN_OR_RETURN(uint32_t num_cols, r->U32());
  for (uint32_t i = 0; i < num_cols; ++i) {
    ASSIGN_OR_RETURN(ColumnDef col, DeserializeColumnDef(r));
    ts.AddColumn(std::move(col));
  }
  ASSIGN_OR_RETURN(uint32_t num_pk, r->U32());
  std::vector<std::string> pk;
  for (uint32_t i = 0; i < num_pk; ++i) {
    ASSIGN_OR_RETURN(std::string col, r->String());
    pk.push_back(std::move(col));
  }
  ts.SetPrimaryKey(std::move(pk));
  ASSIGN_OR_RETURN(uint32_t num_fks, r->U32());
  for (uint32_t i = 0; i < num_fks; ++i) {
    ForeignKeyDef fk;
    ASSIGN_OR_RETURN(fk.column, r->String());
    ASSIGN_OR_RETURN(fk.parent_table, r->String());
    ASSIGN_OR_RETURN(fk.parent_column, r->String());
    ASSIGN_OR_RETURN(uint8_t action, r->U8());
    if (action > static_cast<uint8_t>(FkAction::kSetNull)) {
      return InvalidArgument("bad FK action in database image");
    }
    fk.on_delete = static_cast<FkAction>(action);
    ts.AddForeignKey(std::move(fk));
  }
  ASSIGN_OR_RETURN(uint32_t num_idx, r->U32());
  for (uint32_t i = 0; i < num_idx; ++i) {
    ASSIGN_OR_RETURN(std::string col, r->String());
    ts.AddIndex(std::move(col));
  }
  return ts;
}

namespace {

// The version-independent image body: table schemas, then per table the
// auto-increment counter and rows.
std::vector<uint8_t> SerializeBody(const Database& db) {
  sql::ByteWriter w;
  const Schema& schema = db.schema();
  w.U32(static_cast<uint32_t>(schema.num_tables()));
  for (const TableSchema& ts : schema.tables()) {
    SerializeTableSchema(&w, ts);
  }
  for (const TableSchema& ts : schema.tables()) {
    const Table* t = db.FindTable(ts.name());
    w.U64(static_cast<uint64_t>(t->PeekAutoIncrement() - 1));
    w.U64(t->num_rows());
    t->Scan([&w](RowId id, const Row& row) {
      w.U64(id);
      w.U32(static_cast<uint32_t>(row.size()));
      for (const sql::Value& v : row) {
        w.Value(v);
      }
    });
  }
  return w.Take();
}

StatusOr<std::unique_ptr<Database>> DeserializeBody(sql::ByteReader* r) {
  auto db = std::make_unique<Database>();
  ASSIGN_OR_RETURN(uint32_t num_tables, r->U32());
  std::vector<std::string> table_order;
  for (uint32_t i = 0; i < num_tables; ++i) {
    ASSIGN_OR_RETURN(TableSchema ts, DeserializeTableSchema(r));
    table_order.push_back(ts.name());
    RETURN_IF_ERROR(db->CreateTable(std::move(ts)));
  }
  RETURN_IF_ERROR(db->schema().Validate());

  for (const std::string& table : table_order) {
    ASSIGN_OR_RETURN(uint64_t auto_counter, r->U64());
    ASSIGN_OR_RETURN(uint64_t num_rows, r->U64());
    for (uint64_t i = 0; i < num_rows; ++i) {
      ASSIGN_OR_RETURN(uint64_t id, r->U64());
      ASSIGN_OR_RETURN(uint32_t width, r->U32());
      Row row;
      row.reserve(width);
      for (uint32_t c = 0; c < width; ++c) {
        ASSIGN_OR_RETURN(sql::Value v, r->Value());
        row.push_back(std::move(v));
      }
      // FK checks deferred: tables load in image order, and rows may
      // forward-reference (self-referencing FKs). Integrity is audited once
      // below.
      RETURN_IF_ERROR(db->BulkLoadRow(table, id, std::move(row)));
    }
    db->EnsureAutoCounterAtLeast(table, static_cast<int64_t>(auto_counter));
  }
  if (!r->AtEnd()) {
    return InvalidArgument("trailing bytes in database image");
  }
  RETURN_IF_ERROR(db->CheckIntegrity());
  return db;
}

}  // namespace

std::vector<uint8_t> SerializeDatabase(const Database& db) {
  std::vector<uint8_t> body = SerializeBody(db);
  sql::ByteWriter w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.U32(Crc32(body));
  w.Bytes(body.data(), body.size());
  return w.Take();
}

StatusOr<std::unique_ptr<Database>> DeserializeDatabase(const std::vector<uint8_t>& wire) {
  sql::ByteReader r(wire);
  ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kMagic) {
    return InvalidArgument("not a database image (bad magic)");
  }
  ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version == kVersion) {
    ASSIGN_OR_RETURN(uint32_t expected_crc, r.U32());
    // Everything after the CRC field is the body; checksum before parsing so
    // corruption fails fast with a precise diagnosis.
    constexpr size_t kBodyOffset = 12;  // magic + version + crc
    uint32_t actual_crc = Crc32(wire.data() + kBodyOffset, wire.size() - kBodyOffset);
    if (actual_crc != expected_crc) {
      return InvalidArgument(
          StrFormat("database image checksum mismatch (stored %08x, computed %08x)",
                    expected_crc, actual_crc));
    }
  } else if (version != kLegacyVersion) {
    return InvalidArgument(StrFormat("unsupported database image version %u", version));
  }
  return DeserializeBody(&r);
}

Status SaveDatabaseToFile(const Database& db, const std::string& path) {
  EDNA_FAIL_POINT(failpoints::kStorageSave);
  return WriteFileAtomically(path, SerializeDatabase(db));
}

StatusOr<std::unique_ptr<Database>> LoadDatabaseFromFile(const std::string& path) {
  EDNA_FAIL_POINT(failpoints::kStorageLoad);
  ASSIGN_OR_RETURN(std::vector<uint8_t> wire, ReadFile(path));
  StatusOr<std::unique_ptr<Database>> db = DeserializeDatabase(wire);
  if (!db.ok() && db.status().code() == StatusCode::kInvalidArgument) {
    return InvalidArgument("corrupt database image \"" + path +
                           "\": " + db.status().message());
  }
  return db;
}

}  // namespace edna::db
