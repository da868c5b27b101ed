// Reproduces Figure 5 (Test Case 2): analytical queries versus real-time
// queries on the TiDB-like engine. Baseline = subenchmark online
// transactions at a fixed rate; group 1 adds analytical queries at 1 qps;
// group 2 replaces the stream with hybrid transactions at the same rate.
// The paper reports ~3x latency from analytical pressure, >9x from
// real-time queries, with stddev exploding 2.21 -> 9.16 -> 38.91.
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "tests/result_strings.h"

namespace olxp::bench {
namespace {

/// Wall-clock of the fastest of `reps` executions (microseconds). With
/// `row_store`, each runs in a read-only transaction, which pins it to the
/// row store's interpreter.
int64_t TimeQuery(engine::Session& s, const std::string& sql, int reps,
                  bool row_store = false) {
  int64_t best = INT64_MAX;
  for (int r = 0; r < reps; ++r) {
    int64_t t0 = NowMicros();
    auto rs = row_store ? RowStoreExecute(s, sql) : s.Execute(sql);
    if (!rs.ok()) {
      std::fprintf(stderr, "query failed: %s\n", rs.status().ToString().c_str());
      return -1;
    }
    best = std::min(best, NowMicros() - t0);
  }
  return best;
}

/// Stringified result set for the serial-vs-parallel parity check (same
/// encoding as the test parity suites — tests/result_strings.h). An
/// execution failure clears *ok so it is reported as a failure, never as
/// an (empty) result that could fake a parity verdict either way.
std::vector<std::string> ResultRows(engine::Session& s, const std::string& sql,
                                    bool* ok) {
  auto rs = s.Execute(sql);
  if (!rs.ok()) {
    std::fprintf(stderr, "parity query failed: %s\n",
                 rs.status().ToString().c_str());
    *ok = false;
    return {};
  }
  return Stringify(*rs);
}

/// Row-store-vs-replica wall-clock comparison: the same scan-aggregate and
/// join-aggregate queries over the same caught-up data, served by the
/// row store's row-at-a-time interpreter (in a read-only transaction), the
/// serial vectorized replica engine, and the morsel-driven parallel
/// vectorized engine at 8 lanes (hash joins build from the smaller side's
/// raw column vectors; the interpreter joins row-at-a-time through pk
/// point lookups). Serial and parallel result sets are checked for exact
/// equality.
void VectorizedComparison(const BenchOptions& opts,
                          benchfw::BenchJsonReport* report) {
  std::printf("\n--- row-store interpreter vs vectorized replica ---\n");
  engine::EngineProfile p = engine::EngineProfile::TiDbLike();
  p.olap_row_fraction = 0.0;
  engine::Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);  // wall-clock, not the simulated model

  const int rows = opts.quick ? 20000 : 120000;
  const int products = opts.quick ? 4000 : 20000;
  if (!LoadSaleProductReplica(db, *s, rows, products, opts.seed)) return;
  db.replicator().Stop();  // quiesce: wall-clock comparison wants an idle box

  struct Query {
    const char* sql;
    bool join;
    /// Non-null: the query's serial and parallel times and parity are also
    /// reported as their own metrics under this prefix.
    const char* metric = nullptr;
  };
  const Query queries[] = {
      {"SELECT COUNT(*), SUM(amount), AVG(qty) FROM sale", false},
      {"SELECT SUM(amount) FROM sale WHERE qty > 5 AND region <> 3", false},
      {"SELECT region, COUNT(*), SUM(amount), MAX(amount) FROM sale "
       "GROUP BY region ORDER BY region",
       false},
      // High-cardinality GROUP BY with a top-K (the subench Q5 shape): one
      // group per product, so the parallel run takes the partitioned
      // combine.
      {"SELECT pid, SUM(amount) AS rev FROM sale GROUP BY pid "
       "ORDER BY rev DESC LIMIT 10",
       false, "topk_group"},
      {"SELECT COUNT(*), SUM(s.amount * p.cost) FROM sale s "
       "JOIN product p ON s.pid = p.pid",
       true},
      {"SELECT p.category, COUNT(*), SUM(s.amount) FROM sale s "
       "JOIN product p ON s.pid = p.pid WHERE s.qty > 3 "
       "GROUP BY p.category ORDER BY p.category",
       true},
  };
  const int reps = opts.quick ? 3 : 5;
  const int par_lanes = 8;
  std::printf("%d sale rows + %d products on the replica; "
              "best of %d runs per engine\n",
              rows, products, reps);
  double worst_scan = 1e9, worst_join = 1e9, worst_par = 1e9;
  bool parity_ok = true;
  int qn = 0;
  for (const Query& q : queries) {
    db.set_exec_threads(1);
    int64_t interp_us = TimeQuery(*s, q.sql, reps, /*row_store=*/true);
    int64_t vec_us = TimeQuery(*s, q.sql, reps);
    bool exec_ok = true;
    std::vector<std::string> serial_rows = ResultRows(*s, q.sql, &exec_ok);
    db.set_exec_threads(par_lanes);
    int64_t par_us = TimeQuery(*s, q.sql, reps);
    std::vector<std::string> par_rows = ResultRows(*s, q.sql, &exec_ok);
    db.set_exec_threads(1);
    if (interp_us < 0 || vec_us < 0 || par_us < 0) return;
    const bool same = exec_ok && par_rows == serial_rows;
    if (!exec_ok) {
      parity_ok = false;  // a failed execution is a failure, not "equal"
    } else if (!same) {
      parity_ok = false;
      std::fprintf(stderr, "PARITY MISMATCH on: %s\n", q.sql);
    }
    if (q.metric != nullptr) {
      const std::string m = q.metric;
      report->AddMetric("vectorized", m + "_serial_ms", vec_us / 1000.0);
      report->AddMetric("vectorized", m + "_parallel_ms", par_us / 1000.0);
      report->AddMetric("vectorized", m + "_parity_ok", same ? 1 : 0);
    }
    double speedup = vec_us > 0 ? static_cast<double>(interp_us) / vec_us : 0;
    double par_speedup =
        par_us > 0 ? static_cast<double>(vec_us) / par_us : 0;
    (q.join ? worst_join : worst_scan) =
        std::min(q.join ? worst_join : worst_scan, speedup);
    if (!q.join) worst_par = std::min(worst_par, par_speedup);
    std::printf("Q%d %s row_store=%8.2fms replica=%8.2fms "
                "speedup=%5.1fx | parallel(%d)=%8.2fms par_speedup=%4.1fx\n",
                ++qn, q.join ? "join" : "scan", interp_us / 1000.0,
                vec_us / 1000.0, speedup, par_lanes, par_us / 1000.0,
                par_speedup);
  }
  std::printf("parallel parity (serial == %d-lane results): %s\n", par_lanes,
              parity_ok ? "OK" : "MISMATCH");
  std::printf("%s\n", benchfw::FigureRow("fig5", 3, "replica_speedup",
                                         worst_scan).c_str());
  std::printf("%s\n", benchfw::FigureRow("fig5", 4, "replica_join_speedup",
                                         worst_join).c_str());
  std::printf("%s\n", benchfw::FigureRow("fig5", 5, "parallel_scan_speedup",
                                         worst_par).c_str());
  report->AddMetric("vectorized", "replica_speedup", worst_scan);
  report->AddMetric("vectorized", "replica_join_speedup", worst_join);
  report->AddMetric("vectorized", "parallel_scan_speedup", worst_par);
  report->AddMetric("vectorized", "parallel_parity_ok", parity_ok ? 1 : 0);
  // Full sweeps: the router's cost comparison must keep them all on the
  // replica, or the "replica" timings above measured the row store.
  report->AddMetric(
      "router", "cost_overrides_to_row",
      static_cast<double>(
          db.metrics().GetCounter("router.cost_overrides_to_row")->Value()));
}

int Main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  // Low-rate OLAP agents (~1 qps) need a long window to engage
  // statistically (the paper ran 240 s); --measure overrides.
  if (!opts.quick && opts.measure < 6.0) opts.measure = 6.0;
  PrintHeader(
      "Figure 5: analytical vs real-time queries (subenchmark, tidb-like)",
      "latency: baseline -> ~3x (+OLAP) -> >9x (hybrid); stddev explodes");

  benchfw::BenchJsonReport jreport("fig5");
  jreport.AddConfig("profile", "tidb-like");
  jreport.AddConfig("quick", opts.quick);
  jreport.AddConfig("measure_seconds", opts.measure);
  jreport.AddConfig("scale", static_cast<double>(opts.scale));
  jreport.AddConfig("items", static_cast<double>(opts.items));
  jreport.AddConfig("seed", static_cast<double>(opts.seed));

  benchfw::BenchmarkSuite suite = benchmarks::MakeSubenchmark(opts.Load());
  engine::Database db(engine::EngineProfile::TiDbLike());
  Status st = benchfw::SetUp(db, suite);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double rate = opts.quick ? 20 : 30;

  benchfw::AgentConfig oltp;
  oltp.kind = benchfw::AgentKind::kOltp;
  oltp.request_rate = rate;
  oltp.threads = 8;

  benchfw::AgentConfig olap;
  olap.kind = benchfw::AgentKind::kOlap;
  olap.request_rate = 1.0;
  olap.threads = 2;

  benchfw::AgentConfig hybrid;
  hybrid.kind = benchfw::AgentKind::kHybrid;
  hybrid.request_rate = rate;
  hybrid.threads = 8;

  auto baseline = Cell(db, suite, {oltp}, opts.Run());
  auto with_olap = Cell(db, suite, {oltp, olap}, opts.Run());
  auto hybrid_run = Cell(db, suite, {hybrid}, opts.Run());

  const auto& b = baseline.Of(benchfw::AgentKind::kOltp);
  const auto& a = with_olap.Of(benchfw::AgentKind::kOltp);
  const auto& h = hybrid_run.Of(benchfw::AgentKind::kHybrid);

  auto report = [&](const char* label, const benchfw::KindStats& k,
                    double secs) {
    std::printf("%-22s mean=%8.2fms sd=%8.2fms p95=%8.2fms tput=%7.1f/s\n",
                label, k.latency.Mean() / 1000.0, k.latency.StdDev() / 1000.0,
                k.latency.P95() / 1000.0, k.Throughput(secs));
  };
  report("baseline (OLTP only)", b, baseline.measure_seconds);
  report("+ analytical 1 qps", a, with_olap.measure_seconds);
  report("hybrid (real-time)", h, hybrid_run.measure_seconds);

  double f_olap = b.latency.Mean() > 0 ? a.latency.Mean() / b.latency.Mean()
                                       : 0;
  double f_hybrid = b.latency.Mean() > 0 ? h.latency.Mean() / b.latency.Mean()
                                         : 0;
  std::printf("\nanalytical interference factor: %.2fx (paper: ~3x)\n",
              f_olap);
  std::printf("real-time interference factor:  %.2fx (paper: >9x)\n",
              f_hybrid);
  std::printf("stddev progression: %.2f -> %.2f -> %.2f ms "
              "(paper: 2.21 -> 9.16 -> 38.91)\n",
              b.latency.StdDev() / 1000.0, a.latency.StdDev() / 1000.0,
              h.latency.StdDev() / 1000.0);
  std::printf("%s\n", benchfw::FigureRow("fig5", 1, "olap_factor",
                                         f_olap).c_str());
  std::printf("%s\n", benchfw::FigureRow("fig5", 2, "hybrid_factor",
                                         f_hybrid).c_str());
  jreport.AddCell("baseline_oltp_only", baseline);
  jreport.AddCell("plus_analytical_1qps", with_olap);
  jreport.AddCell("hybrid_realtime", hybrid_run);
  jreport.AddMetric("interference", "olap_factor", f_olap);
  jreport.AddMetric("interference", "hybrid_factor", f_hybrid);

  VectorizedComparison(opts, &jreport);
  jreport.Write();
  return 0;
}

}  // namespace
}  // namespace olxp::bench

int main(int argc, char** argv) { return olxp::bench::Main(argc, argv); }
