#include "obs/query_trace.h"

#include "common/strings.h"

namespace olxp::obs {

void QueryTrace::AddSubquery(int sub_id, int64_t rows, int64_t wall_ns) {
  TraceOp op;
  op.op = "subquery";
  op.detail = "id=" + std::to_string(sub_id);
  op.rows_out = rows;
  op.wall_us = wall_ns / 1000;
  ops.push_back(std::move(op));
}

std::string QueryTrace::ToString() const {
  std::string out =
      StrFormat("EXPLAIN ANALYZE %s\nroute=%s lanes=%d morsels=%lld "
                "total=%.3fms\n",
                sql.c_str(), route.c_str(), lanes,
                static_cast<long long>(morsels), total_us / 1000.0);
  for (const TraceOp& op : ops) {
    out += StrFormat("  %-12s %-24s rows_in=%-10lld rows_out=%-10lld "
                     "wall=%.3fms\n",
                     op.op.c_str(), op.detail.c_str(),
                     static_cast<long long>(op.rows_in),
                     static_cast<long long>(op.rows_out), op.wall_us / 1000.0);
  }
  return out;
}

}  // namespace olxp::obs
