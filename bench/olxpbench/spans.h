#ifndef OLXP_BENCH_OLXPBENCH_SPANS_H_
#define OLXP_BENCH_OLXPBENCH_SPANS_H_

// In-memory span log for olxpbench's traced runs. Spans are recorded only
// from the benchmark's own code, around its calls into the engine's public
// API (one span per operation, child spans from Session::last_trace() for
// analytical statements, and spans around set-up, replica drain, vacuum and
// the freshness probe). Each thread owns one SpanBuffer; buffers are merged
// after the threads join and written once, at exit, as JSON lines that
// bench/olxpbench/layers.py rolls up into self time per layer.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace olxp::olxpbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  std::string name;
  /// Engine layer the span's self time is charged to (layers.py groups by
  /// this): body, session, exec, sql, probe_commit, probe_poll, replicator,
  /// vacuum, setup.
  std::string layer;
  int64_t start_us = 0;
  int64_t end_us = 0;
  std::string cls;      ///< op class (oltp/hybrid/olap), op spans only
  std::string profile;  ///< TxnProfile name, op spans only
};

inline Span MakeSpan(std::string name, std::string layer, int64_t start_us,
                     int64_t end_us) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.start_us = start_us;
  s.end_us = end_us;
  return s;
}

/// Single-owner span buffer. Ids are unique across buffers: the owner index
/// occupies the high bits.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint64_t owner) : next_id_((owner + 1) << 40) {}

  uint64_t Add(Span span) {
    span.id = ++next_id_;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  /// Child spans for one traced analytical statement: a "stmt" span
  /// covering the statement's wall clock (ending when the op ended) and one
  /// span per operator laid end to end inside it. Operator times of
  /// morsel-parallel plans are summed over lanes and can exceed the
  /// statement's wall clock; they are then scaled down to fit, which keeps
  /// each operator's share of the statement.
  void AddStatement(uint64_t op_id, int64_t op_start_us, int64_t op_end_us,
                    const obs::QueryTrace& trace) {
    if (trace.ops.empty()) return;
    Span stmt = MakeSpan("stmt:" + trace.route, "session",
                         std::max(op_start_us, op_end_us - trace.total_us),
                         op_end_us);
    stmt.parent = op_id;
    const uint64_t stmt_id = Add(stmt);
    const std::string layer =
        trace.route == "column/vectorized" ? "exec" : "sql";
    int64_t sum = 0;
    for (const obs::TraceOp& op : trace.ops) sum += op.wall_us;
    const int64_t room = stmt.end_us - stmt.start_us;
    const double scale =
        sum > room && sum > 0 ? static_cast<double>(room) / sum : 1.0;
    int64_t at = stmt.start_us;
    for (const obs::TraceOp& op : trace.ops) {
      const int64_t start = at;
      at += static_cast<int64_t>(static_cast<double>(op.wall_us) * scale);
      Span child = MakeSpan(op.op, layer, start, at);
      child.parent = stmt_id;
      Add(child);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Writes every span, then the registry totals the spans cannot split (lock
/// wait, WAL fsync, statement time), as JSON lines. Returns false on an I/O
/// error.
inline bool WriteSpans(const std::string& path, const std::string& workload,
                       const std::vector<const SpanBuffer*>& buffers,
                       const std::vector<std::pair<std::string, double>>&
                           counters) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string wl = obs::JsonEscape(workload);
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      std::fprintf(f,
                   "{\"kind\":\"span\",\"workload\":\"%s\",\"id\":%llu,"
                   "\"parent\":%llu,\"name\":\"%s\",\"layer\":\"%s\","
                   "\"start_us\":%lld,\"end_us\":%lld,\"class\":\"%s\","
                   "\"profile\":\"%s\"}\n",
                   wl.c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   obs::JsonEscape(s.name).c_str(),
                   obs::JsonEscape(s.layer).c_str(),
                   static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us),
                   obs::JsonEscape(s.cls).c_str(),
                   obs::JsonEscape(s.profile).c_str());
    }
  }
  for (const auto& [name, value] : counters) {
    std::fprintf(f,
                 "{\"kind\":\"counter\",\"workload\":\"%s\",\"name\":\"%s\","
                 "\"value\":%.17g}\n",
                 wl.c_str(), obs::JsonEscape(name).c_str(), value);
  }
  const bool ok = std::fflush(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace olxp::olxpbench

#endif  // OLXP_BENCH_OLXPBENCH_SPANS_H_
