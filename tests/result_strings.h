#ifndef OLXP_TESTS_RESULT_STRINGS_H_
#define OLXP_TESTS_RESULT_STRINGS_H_

#include <span>
#include <string>
#include <vector>

#include "engine/session.h"
#include "sql/storage_iface.h"

namespace olxp {

/// One comparable string per result row ("v1|v2|...|"), shared by the
/// exec/parallel parity suites and the SQL oracle so the comparison format
/// cannot drift between them.
inline std::vector<std::string> Stringify(const sql::ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const Row& r : rs.rows) {
    std::string s;
    for (const Value& v : r) {
      s += v.ToString();
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  return rows;
}

/// The reference answer of the parity suites and the SQL oracle: `sql` on
/// the row-store interpreter, inside an explicit read-only transaction
/// (statements in a transaction always run on the row store).
inline StatusOr<sql::ResultSet> RowStoreExecute(
    engine::Session& s, const std::string& sql,
    std::span<const Value> params = {}) {
  Status st = s.Begin();
  if (!st.ok()) return st;
  auto rs = s.Execute(sql, params);
  if (!rs.ok()) {
    (void)s.Rollback();  // a no-op when the failure already aborted it
    return rs;
  }
  st = s.Commit();
  if (!st.ok()) return st;
  return rs;
}

}  // namespace olxp

#endif  // OLXP_TESTS_RESULT_STRINGS_H_
