#ifndef OLXP_OBS_QUERY_TRACE_H_
#define OLXP_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace olxp::obs {

/// One operator's row counts and wall time inside a traced statement.
/// Parallel vectorized operators report the per-morsel rollup: rows summed
/// over every lane, wall time summed over lane-local work (so wall_us can
/// exceed the statement's elapsed time — that is the point: it is the work
/// the lanes overlapped). The exception is "combine", the merge of the
/// lanes' work after a parallel scan: its wall time is elapsed time.
struct TraceOp {
  std::string op;  ///< subquery/scan/filter/join-build/probe/aggregate/...
  std::string detail;  ///< table name, join level, lane id, ...
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  int64_t wall_us = 0;
};

/// EXPLAIN ANALYZE capture for one statement: where it routed, which engine
/// served it, and the per-operator breakdown. The final "emit" op's
/// rows_out always equals the statement's result cardinality.
struct QueryTrace {
  std::string sql;
  std::string route;  ///< "row/interpreter", "column/vectorized", ...
  int level = 0;      ///< trace_level the capture ran at
  int lanes = 1;      ///< execution lanes engaged (vectorized path)
  int64_t morsels = 0;
  int64_t total_us = 0;  ///< statement wall clock
  std::vector<TraceOp> ops;

  void Clear() {
    sql.clear();
    route.clear();
    lanes = 1;
    morsels = 0;
    total_us = 0;
    ops.clear();
  }

  /// Appends the op of one uncorrelated subquery the executor materialized
  /// before its first scan: `rows` result rows in `wall_ns`.
  void AddSubquery(int sub_id, int64_t rows, int64_t wall_ns);

  /// Result rows of the final (emit) operator; 0 when never executed.
  int64_t emitted_rows() const {
    return ops.empty() ? 0 : ops.back().rows_out;
  }

  /// Multi-line EXPLAIN ANALYZE rendering.
  std::string ToString() const;
};

}  // namespace olxp::obs

#endif  // OLXP_OBS_QUERY_TRACE_H_
