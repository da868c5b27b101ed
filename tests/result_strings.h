#ifndef OLXP_TESTS_RESULT_STRINGS_H_
#define OLXP_TESTS_RESULT_STRINGS_H_

#include <span>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "exec/vectorized.h"
#include "sql/parser.h"
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

/// The replica side of the parity suites and the SQL oracle: `sql`
/// compiled against `db` and run by the vectorized engine on the columnar
/// replica, with the database's worker pool, morsel size and exec counters
/// (exec.morsels_dispatched, exec.agg.partitioned) — the engine itself,
/// with no router in between to send the statement elsewhere. A shape the
/// engine refuses fails with kUnsupported. `stats`, when non-null, receives
/// the work the run reported; `estimate`, when non-null, what
/// exec::EstimateReplicaWork predicted for it under the same options.
inline StatusOr<sql::ResultSet> ReplicaExecute(
    engine::Database& db, const std::string& sql,
    std::span<const Value> params = {}, exec::VecExecStats* stats = nullptr,
    exec::VecExecStats* estimate = nullptr) {
  auto parsed = sql::Parse(sql);
  if (!parsed.ok()) return parsed.status();
  auto stmt = sql::Compile(*parsed, db);
  if (!stmt.ok()) return stmt.status();
  exec::VecExecOptions opts;
  opts.pool = db.exec_pool();
  opts.morsel_rows = db.profile().morsel_rows;
  opts.morsel_counter = db.metrics().GetCounter("exec.morsels_dispatched");
  opts.partitioned_counter = db.metrics().GetCounter("exec.agg.partitioned");
  if (estimate != nullptr) {
    *estimate = exec::EstimateReplicaWork(**stmt, params, db.column_store(),
                                          opts);
  }
  return exec::ExecuteVectorized(**stmt, params, db.column_store(), opts,
                                 stats);
}

}  // namespace olxp

#endif  // OLXP_TESTS_RESULT_STRINGS_H_
