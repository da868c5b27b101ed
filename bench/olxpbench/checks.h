#ifndef OLXP_BENCH_OLXPBENCH_CHECKS_H_
#define OLXP_BENCH_OLXPBENCH_CHECKS_H_

// Correctness checks olxpbench runs after every workload, on a quiesced
// database (all clients joined, replica drained). A run whose checks fail
// reports correct=false and the benchmark command exits non-zero.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "benchfw/workload.h"
#include "benchmarks/common.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/session.h"

namespace olxp::olxpbench {

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Runs `sql` inside an explicit read-only transaction, which pins it to the
/// row store.
inline StatusOr<sql::ResultSet> RowStoreQuery(engine::Session& s,
                                              const std::string& sql,
                                              std::span<const Value> params =
                                                  {}) {
  std::optional<sql::ResultSet> out;
  Status st = benchmarks::InTxn(s, [&]() -> Status {
    auto rs = s.Execute(sql, params);
    if (!rs.ok()) return rs.status();
    out = std::move(rs).value();
    return Status::OK();
  });
  if (!st.ok()) return st;
  return std::move(*out);
}

/// Every table's row-store COUNT(*) equals its replica's LiveRowCount().
inline CheckResult CheckReplicaRowCounts(engine::Database& db,
                                         engine::Session& s) {
  CheckResult r{"replica_row_counts", true, ""};
  const std::vector<int> ids = db.row_store().TableIds();
  for (int id : ids) {
    const std::string& name = db.GetSchema(id).name();
    auto cnt = RowStoreQuery(s, "SELECT COUNT(*) FROM " + name);
    const storage::ColumnTable* replica = db.column_store().table(id);
    if (!cnt.ok() || replica == nullptr) {
      r.ok = false;
      r.detail += name + ": " +
                  (cnt.ok() ? "no replica" : cnt.status().ToString()) + "; ";
      continue;
    }
    const int64_t rows = cnt->rows[0][0].AsInt();
    const auto live = static_cast<int64_t>(replica->LiveRowCount());
    if (rows != live) {
      r.ok = false;
      r.detail += name + ": row store " + std::to_string(rows) +
                  " vs replica " + std::to_string(live) + "; ";
    }
  }
  if (r.ok) r.detail = std::to_string(ids.size()) + " tables match";
  return r;
}

/// Bind values for suite queries that take parameters. Parity needs the
/// same values on both stores, so they are fixed here rather than drawn.
inline std::vector<Value> ParityParams(const std::string& suite,
                                       const std::string& query) {
  if (suite == "subenchmark" && query == "Q6") return {Value::Int(30)};
  if (suite == "fibenchmark" && query == "Q1") return {Value::Double(1000.0)};
  return {};
}

/// Sort key of a result row: its non-double values first (group keys), so
/// rounding in aggregate values cannot reorder rows between the stores.
inline std::string RowSortKey(const Row& row) {
  std::string key;
  std::string doubles;
  for (const Value& v : row) {
    if (v.type() == ValueType::kDouble) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g|", v.AsDouble());
      doubles += buf;
    } else {
      key += v.ToString() + "|";
    }
  }
  return key + "#" + doubles;
}

inline bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == ValueType::kDouble || b.type() == ValueType::kDouble) {
    if (!a.is_numeric() || !b.is_numeric()) return false;
    // The two engines sum in different orders.
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a.ToString() == b.ToString();
}

/// Compares two result sets as multisets of rows (row order is
/// engine-dependent), or by row count only when the statement has a LIMIT
/// (which rows survive a LIMIT without a total order is engine-dependent
/// too). Returns "" when they agree, else what differs.
inline std::string CompareResults(const sql::ResultSet& a,
                                  const sql::ResultSet& b, bool count_only) {
  if (a.rows.size() != b.rows.size()) {
    return "row counts " + std::to_string(a.rows.size()) + " vs " +
           std::to_string(b.rows.size());
  }
  if (count_only) return "";
  auto sorted = [](const sql::ResultSet& rs) {
    std::vector<std::pair<std::string, const Row*>> v;
    for (const Row& row : rs.rows) v.emplace_back(RowSortKey(row), &row);
    std::sort(v.begin(), v.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    return v;
  };
  const auto sa = sorted(a);
  const auto sb = sorted(b);
  for (size_t i = 0; i < sa.size(); ++i) {
    const Row& ra = *sa[i].second;
    const Row& rb = *sb[i].second;
    bool same = ra.size() == rb.size();
    for (size_t c = 0; same && c < ra.size(); ++c) {
      same = SameValue(ra[c], rb[c]);
    }
    if (!same) return "row " + sa[i].first + " vs " + sb[i].first;
  }
  return "";
}

/// Cross-store parity of every suite query: the replica's answer equals the
/// row store's answer inside a read-only transaction. The SQL is the text
/// the suite's own query body executes, captured through the session trace.
inline CheckResult CheckQueryParity(engine::Database& db,
                                    const benchfw::BenchmarkSuite& suite) {
  CheckResult r{"query_parity", true, ""};
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  Rng rng(1);
  for (const benchfw::TxnProfile& q : suite.queries) {
    s->set_trace_level(1);
    Status body = q.body(*s, rng);
    const std::string sql = s->last_trace().sql;
    s->set_trace_level(0);
    const std::vector<Value> params = ParityParams(suite.name, q.name);
    std::string why;
    if (!body.ok()) {
      why = body.ToString();
    } else if (static_cast<size_t>(std::count(sql.begin(), sql.end(), '?')) !=
               params.size()) {
      why = "no parity parameters for its placeholders";
    } else {
      auto col = s->Execute(sql, params);
      const bool on_replica =
          s->last_route() == engine::RoutedStore::kColumnStore;
      auto row = RowStoreQuery(*s, sql, params);
      if (!col.ok() || !row.ok()) {
        why = (col.ok() ? row.status() : col.status()).ToString();
      } else if (!on_replica) {
        why = "did not route to the replica";
      } else {
        why = CompareResults(*col, *row,
                             sql.find("LIMIT") != std::string::npos);
      }
    }
    if (!why.empty()) {
      r.ok = false;
      r.detail += q.name + ": " + why + "; ";
    }
  }
  if (r.ok) {
    r.detail = std::to_string(suite.queries.size()) + " queries agree";
  }
  return r;
}

/// TPC-C consistency conditions 1-3 plus order-line counts, as in
/// tests/invariants_test.cc, audited from one row-store snapshot.
inline CheckResult CheckSubenchConsistency(engine::Session& s) {
  CheckResult r{"subench_consistency", true, ""};
  auto fail = [&](const std::string& why) {
    r.ok = false;
    r.detail += why + "; ";
  };
  Status st = benchmarks::InTxn(s, [&]() -> Status {
    auto w = s.Execute("SELECT w_id, w_ytd FROM warehouse ORDER BY w_id");
    if (!w.ok()) return w.status();
    for (const Row& row : w->rows) {
      auto d = s.Execute("SELECT SUM(d_ytd) FROM district WHERE d_w_id = ?",
                         {row[0]});
      if (!d.ok()) return d.status();
      if (std::fabs(row[1].AsDouble() - d->rows[0][0].AsDouble()) > 0.01) {
        fail("w_ytd != sum(d_ytd) for warehouse " + row[0].ToString());
      }
    }
    auto districts =
        s.Execute("SELECT d_w_id, d_id, d_next_o_id FROM district");
    if (!districts.ok()) return districts.status();
    for (const Row& d : districts->rows) {
      auto mx = s.Execute(
          "SELECT MAX(o_id) FROM orders WHERE o_w_id = ? AND o_d_id = ?",
          {d[0], d[1]});
      if (!mx.ok()) return mx.status();
      if (mx->rows[0][0].is_null() ||
          mx->rows[0][0].AsInt() != d[2].AsInt() - 1) {
        fail("d_next_o_id - 1 != max(o_id) for district (" +
             d[0].ToString() + "," + d[1].ToString() + ")");
      }
    }
    auto orphan = s.Execute(
        "SELECT COUNT(*) FROM new_order no, orders o WHERE "
        "o.o_w_id = no.no_w_id AND o.o_d_id = no.no_d_id AND "
        "o.o_id = no.no_o_id AND o.o_carrier_id IS NOT NULL");
    if (!orphan.ok()) return orphan.status();
    if (orphan->rows[0][0].AsInt() != 0) {
      fail(orphan->rows[0][0].ToString() + " new orders already carried");
    }
    auto sample = s.Execute(
        "SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM orders "
        "ORDER BY o_entry_d DESC LIMIT 20");
    if (!sample.ok()) return sample.status();
    for (const Row& o : sample->rows) {
      auto cnt = s.Execute(
          "SELECT COUNT(*) FROM order_line WHERE ol_w_id = ? AND "
          "ol_d_id = ? AND ol_o_id = ?",
          {o[0], o[1], o[2]});
      if (!cnt.ok()) return cnt.status();
      if (cnt->rows[0][0].AsInt() != o[3].AsInt()) {
        fail("order " + o[2].ToString() + " has " +
             cnt->rows[0][0].ToString() + " lines, o_ol_cnt " +
             o[3].ToString());
      }
    }
    return Status::OK();
  });
  if (!st.ok()) fail(st.ToString());
  if (r.ok) r.detail = "conditions 1-3 and order-line counts hold";
  return r;
}

/// Banking invariants: every customer keeps one row per table, and no
/// savings balance is negative (every body that lowers one checks it
/// first; a lost update or a write skew would break this).
inline CheckResult CheckFibenchConsistency(engine::Session& s,
                                           int64_t customers) {
  CheckResult r{"fibench_consistency", true, ""};
  for (const char* table : {"account", "saving", "checking"}) {
    auto cnt = RowStoreQuery(s, std::string("SELECT COUNT(*) FROM ") + table);
    if (!cnt.ok() || cnt->rows[0][0].AsInt() != customers) {
      r.ok = false;
      r.detail += std::string(table) + " count " +
                  (cnt.ok() ? cnt->rows[0][0].ToString()
                            : cnt.status().ToString()) +
                  "; ";
    }
  }
  auto mn = RowStoreQuery(s, "SELECT MIN(bal) FROM saving");
  if (!mn.ok() || mn->rows[0][0].AsDouble() < 0) {
    r.ok = false;
    r.detail += "min savings " +
                (mn.ok() ? mn->rows[0][0].ToString() : mn.status().ToString());
  }
  if (r.ok) r.detail = "row counts and non-negative savings hold";
  return r;
}

}  // namespace olxp::olxpbench

#endif  // OLXP_BENCH_OLXPBENCH_CHECKS_H_
