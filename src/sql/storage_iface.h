#ifndef OLXP_SQL_STORAGE_IFACE_H_
#define OLXP_SQL_STORAGE_IFACE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/schema.h"

namespace olxp::sql {

/// Schema resolution used at statement-compile time. Implemented by the
/// engine's catalog; the SQL layer never sees physical storage here.
class Catalog {
 public:
  virtual ~Catalog() = default;
  /// Resolves a table name (case-insensitive) to its id.
  virtual StatusOr<int> TableId(std::string_view name) const = 0;
  /// Schema of table `table_id` (must be valid).
  virtual const storage::TableSchema& GetSchema(int table_id) const = 0;
};

/// Data-plane interface the row-store interpreter runs against. The engine
/// implements it once (TxnStorage, engine/session.cc): the transactional
/// row store, read and written through the statement's transaction (an
/// open explicit one, or the session's auto-commit wrapper). The columnar
/// replica does not implement it; its engine (src/exec/) reads
/// ColumnTable directly. All access costs (rows visited, seeks) are
/// accounted by the implementation so the latency model can charge them.
class StorageIface : public Catalog {
 public:
  using RowCallback = std::function<bool(const Row&)>;

  /// Full scan of visible rows.
  virtual Status ScanTable(int table_id, const RowCallback& cb) = 0;
  /// Primary-key range scan, [lo, hi] inclusive, prefixes allowed.
  virtual Status ScanPkRange(int table_id, const Row& lo, const Row& hi,
                             const RowCallback& cb) = 0;
  /// Secondary-index prefix lookup.
  virtual Status IndexLookup(int table_id, int index_id, const Row& key,
                             std::vector<Row>* out) = 0;
  /// Point read by full primary key.
  virtual StatusOr<std::optional<Row>> GetByPk(int table_id,
                                               const Row& pk) = 0;

  /// Acquires the row's write lock, then reads its CURRENT version (the
  /// freshest committed value, or this transaction's own write). UPDATE and
  /// DELETE re-evaluate against this row so read-committed read-modify-
  /// writes do not lose updates. Read-only snapshots reject it.
  virtual StatusOr<std::optional<Row>> LockAndGet(int table_id,
                                                  const Row& pk) = 0;

  /// Mutations (always transactional; rejected on read-only snapshots).
  virtual Status Insert(int table_id, Row row) = 0;
  virtual Status Update(int table_id, Row row) = 0;
  virtual Status Delete(int table_id, const Row& pk) = 0;

  /// DDL.
  virtual Status CreateTable(storage::TableSchema schema) = 0;
  virtual Status CreateIndex(std::string_view table_name,
                             storage::IndexDef def) = 0;
};

/// Result of executing one statement.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  int64_t affected_rows = 0;
  bool empty() const { return rows.empty(); }
};

}  // namespace olxp::sql

#endif  // OLXP_SQL_STORAGE_IFACE_H_
