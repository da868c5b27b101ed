#ifndef OLXP_STORAGE_ROW_STORE_H_
#define OLXP_STORAGE_ROW_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "storage/table.h"

namespace olxp::storage {

/// The transactional row store: owns all MvccTables and the name -> id map
/// (physical catalog). Table ids are dense and stable for the lifetime of
/// the store.
class RowStore {
 public:
  RowStore() = default;
  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  /// Creates a table; fails with AlreadyExists on duplicate name.
  StatusOr<int> CreateTable(TableSchema schema);

  /// Id by (case-insensitive) name, or NotFound.
  StatusOr<int> TableId(std::string_view name) const;

  /// Table by id; nullptr when out of range.
  MvccTable* table(int table_id);
  const MvccTable* table(int table_id) const;

  /// All table ids in creation order.
  std::vector<int> TableIds() const;

  int num_tables() const;

 private:
  mutable sync::SharedMutex mu_{sync::LockRank::kCatalog, "rowstore.catalog"};
  std::vector<std::unique_ptr<MvccTable>> tables_ GUARDED_BY(mu_);
  /// Lower-cased names.
  std::unordered_map<std::string, int> name_to_id_ GUARDED_BY(mu_);
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_ROW_STORE_H_
