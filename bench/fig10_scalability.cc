// Reproduces Figure 10: OLTP / OLTP+OLAP / OLxP latency of subenchmark as
// the simulated cluster grows from 4 to 16 nodes. TiDB-like and
// OceanBase-like engines scale out (coordination costs grow with node
// count); MemSQL-like is measured at 4 nodes only (the paper's footnote 1:
// commercial licensing).
//
// Paper: OceanBase OLTP latency +20%/+24% (avg/p95) from 4 to 16 nodes;
// TiDB-like grows >1x; OLxP latency rises sharply for both; under OLAP
// pressure TiDB's decoupled stores degrade less (~6% vs ~18%).
#include <string>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/rng.h"

namespace olxp::bench {
namespace {

struct CellOut {
  double avg_ms = 0, p95_ms = 0;
};

/// Intra-query scaling ablation: where fig10 proper scales the CLUSTER and
/// watches coordination costs grow, this section scales the exec_threads
/// knob and watches one analytical statement's wall-clock shrink — the
/// morsel-driven parallel layer is the single-node analog of "throw more
/// hardware at OLAP". Reported per lane count for a scan-aggregate and a
/// join-aggregate over the fig5-sized replica (wall-clock, charging off).
void IntraQueryScaling(const BenchOptions& opts,
                       benchfw::BenchJsonReport* report) {
  std::printf("\n--- intra-query scaling: exec_threads ablation ---\n");
  engine::EngineProfile p = engine::EngineProfile::TiDbLike();
  p.olap_row_fraction = 0.0;
  engine::Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);

  const int rows = opts.quick ? 20000 : 120000;
  const int products = opts.quick ? 4000 : 20000;
  if (!LoadSaleProductReplica(db, *s, rows, products, opts.seed)) return;
  db.replicator().Stop();  // quiesce: wall-clock wants an idle box

  const char* kScanAgg =
      "SELECT region, COUNT(*), SUM(amount), MAX(amount) FROM sale "
      "WHERE qty > 3 GROUP BY region";
  const char* kJoinAgg =
      "SELECT p.category, COUNT(*), SUM(s.amount) FROM sale s "
      "JOIN product p ON s.pid = p.pid GROUP BY p.category";
  const int reps = opts.quick ? 3 : 5;
  auto best_us = [&](const char* sql) {
    int64_t best = INT64_MAX;
    for (int r = 0; r < reps; ++r) {
      int64_t t0 = NowMicros();
      auto rs = s->Execute(sql);
      if (!rs.ok()) return int64_t{-1};
      best = std::min(best, NowMicros() - t0);
    }
    return best;
  };

  std::printf("%d sale rows; best of %d runs; host cores matter here\n",
              rows, reps);
  std::printf("%8s | %14s %8s | %14s %8s\n", "threads", "scan_agg_ms",
              "speedup", "join_agg_ms", "speedup");
  double scan_serial = 0, join_serial = 0, scan_speedup_at8 = 1.0;
  for (int threads : {1, 2, 4, 8}) {
    db.set_exec_threads(threads);
    int64_t scan_us = best_us(kScanAgg);
    int64_t join_us = best_us(kJoinAgg);
    if (scan_us < 0 || join_us < 0) {
      std::fprintf(stderr, "ablation query failed\n");
      return;
    }
    if (threads == 1) {
      scan_serial = static_cast<double>(scan_us);
      join_serial = static_cast<double>(join_us);
    }
    double ss = scan_serial / static_cast<double>(scan_us);
    double js = join_serial / static_cast<double>(join_us);
    if (threads == 8) scan_speedup_at8 = ss;
    std::printf("%8d | %14.2f %7.1fx | %14.2f %7.1fx\n", threads,
                scan_us / 1000.0, ss, join_us / 1000.0, js);
    const std::string label = "intra_query/" + std::to_string(threads) + "t";
    report->AddMetric(label, "scan_agg_us", static_cast<double>(scan_us));
    report->AddMetric(label, "join_agg_us", static_cast<double>(join_us));
    report->AddMetric(label, "scan_speedup", ss);
    report->AddMetric(label, "join_speedup", js);
  }
  std::printf("%s\n",
              benchfw::FigureRow("fig10", 9, "intra_query_speedup_8t",
                                 scan_speedup_at8)
                  .c_str());
  report->AddMetric("intra_query", "speedup_8t", scan_speedup_at8);
  report->AddMetric(
      "router", "cost_overrides_to_row",
      static_cast<double>(
          db.metrics().GetCounter("router.cost_overrides_to_row")->Value()));
}

CellOut Measure(engine::Database& db, const benchfw::BenchmarkSuite& suite,
                const std::vector<benchfw::AgentConfig>& agents,
                benchfw::AgentKind kind, const benchfw::RunConfig& cfg) {
  auto r = Cell(db, suite, agents, cfg);
  const auto& k = r.Of(kind);
  return {k.latency.Mean() / 1000.0, k.latency.P95() / 1000.0};
}

int Main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  PrintHeader("Figure 10: scalability 4 -> 16 nodes (subenchmark)",
              "latency grows with cluster size; OLxP sharply; tidb-like "
              "isolates OLAP pressure better than oceanbase-like");

  benchfw::BenchJsonReport jreport("fig10");
  jreport.AddConfig("quick", opts.quick);
  jreport.AddConfig("measure_seconds", opts.measure);
  jreport.AddConfig("scale", static_cast<double>(opts.scale));
  jreport.AddConfig("seed", static_cast<double>(opts.seed));

  struct EngineCase {
    engine::EngineProfile profile;
    std::vector<int> node_counts;
  };
  std::vector<EngineCase> engines;
  engines.push_back({engine::EngineProfile::TiDbLike(), {4, 8, 16}});
  engines.push_back({engine::EngineProfile::OceanBaseLike(), {4, 8, 16}});
  engines.push_back({engine::EngineProfile::MemSqlLike(), {4}});

  const double oltp_rate = opts.quick ? 30 : 60;
  const double hybrid_rate = opts.quick ? 3 : 6;

  std::printf("%-16s %5s | %9s %9s | %9s %9s | %9s %9s\n", "engine", "nodes",
              "oltp_avg", "oltp_p95", "mix_avg", "mix_p95", "olxp_avg",
              "olxp_p95");
  for (EngineCase& ec : engines) {
    benchfw::BenchmarkSuite suite = benchmarks::MakeSubenchmark(opts.Load());
    engine::Database db(ec.profile);
    Status st = benchfw::SetUp(db, suite);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    for (int nodes : ec.node_counts) {
      // The paper scales data and target rates with the cluster; our
      // latency-model coordination factor is the per-request effect that
      // remains once per-node load is held constant.
      db.set_cluster_nodes(nodes);

      benchfw::AgentConfig oltp;
      oltp.kind = benchfw::AgentKind::kOltp;
      oltp.request_rate = oltp_rate;
      oltp.threads = 10;
      benchfw::AgentConfig olap;
      olap.kind = benchfw::AgentKind::kOlap;
      olap.request_rate = 1.0;
      olap.threads = 2;
      benchfw::AgentConfig hybrid;
      hybrid.kind = benchfw::AgentKind::kHybrid;
      hybrid.request_rate = hybrid_rate;
      hybrid.threads = 6;

      CellOut a = Measure(db, suite, {oltp}, benchfw::AgentKind::kOltp,
                          opts.Run());
      CellOut b = Measure(db, suite, {oltp, olap}, benchfw::AgentKind::kOltp,
                          opts.Run());
      CellOut c = Measure(db, suite, {hybrid}, benchfw::AgentKind::kHybrid,
                          opts.Run());
      std::printf("%-16s %5d | %9.2f %9.2f | %9.2f %9.2f | %9.2f %9.2f\n",
                  ec.profile.name.c_str(), nodes, a.avg_ms, a.p95_ms,
                  b.avg_ms, b.p95_ms, c.avg_ms, c.p95_ms);
      std::fflush(stdout);
      const std::string label =
          ec.profile.name + "/" + std::to_string(nodes) + "nodes";
      jreport.AddMetric(label, "oltp_avg_ms", a.avg_ms);
      jreport.AddMetric(label, "oltp_p95_ms", a.p95_ms);
      jreport.AddMetric(label, "mix_avg_ms", b.avg_ms);
      jreport.AddMetric(label, "mix_p95_ms", b.p95_ms);
      jreport.AddMetric(label, "olxp_avg_ms", c.avg_ms);
      jreport.AddMetric(label, "olxp_p95_ms", c.p95_ms);
    }
  }
  IntraQueryScaling(opts, &jreport);
  jreport.Write();
  return 0;
}

}  // namespace
}  // namespace olxp::bench

int main(int argc, char** argv) { return olxp::bench::Main(argc, argv); }
