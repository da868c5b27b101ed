// Reproduces Figure 1: the impact of a hybrid workload (a real-time
// min-price query in-between a NewOrder transaction) on a TiDB-like engine
// versus the plain NewOrder transaction. The paper reports the real-time
// query raising average latency by ~5.9x and cutting throughput by ~5.9x.
//
// Both cells run closed-loop with the same client population, so the
// latency inflation and the throughput collapse are two views of the same
// saturation effect, as in the paper's experiment.
#include "bench/bench_common.h"

namespace olxp::bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  if (opts.scale < 4) opts.scale = 4;  // enough warehouses to keep the
                                       // baseline off the contention knee
  PrintHeader("Figure 1: hybrid transaction impact (subenchmark, tidb-like)",
              "real-time query => ~5.9x latency, ~1/5.9x throughput");

  benchfw::BenchJsonReport jreport("fig1");
  jreport.AddConfig("profile", "tidb-like");
  jreport.AddConfig("quick", opts.quick);
  jreport.AddConfig("measure_seconds", opts.measure);
  jreport.AddConfig("scale", static_cast<double>(opts.scale));
  jreport.AddConfig("seed", static_cast<double>(opts.seed));

  benchfw::BenchmarkSuite suite = benchmarks::MakeSubenchmark(opts.Load());
  engine::Database db(engine::EngineProfile::TiDbLike());
  Status st = benchfw::SetUp(db, suite);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  benchfw::AgentConfig oltp;
  oltp.kind = benchfw::AgentKind::kOltp;
  oltp.request_rate = -1;  // closed loop
  oltp.threads = 8;
  oltp.weight_override = {1, 0, 0, 0, 0};  // NewOrder only

  benchfw::AgentConfig hybrid;
  hybrid.kind = benchfw::AgentKind::kHybrid;
  hybrid.request_rate = -1;
  hybrid.threads = 8;
  hybrid.weight_override = {1, 0, 0, 0, 0};  // X1 only

  auto baseline = Cell(db, suite, {oltp}, opts.Run());
  auto hybrid_run = Cell(db, suite, {hybrid}, opts.Run());

  const auto& b = baseline.Of(benchfw::AgentKind::kOltp);
  const auto& h = hybrid_run.Of(benchfw::AgentKind::kHybrid);
  std::printf("NewOrder (baseline): %s\n",
              benchfw::FormatKindStats(benchfw::AgentKind::kOltp, b,
                                       baseline.measure_seconds)
                  .c_str());
  std::printf("X1 (hybrid):         %s\n",
              benchfw::FormatKindStats(benchfw::AgentKind::kHybrid, h,
                                       hybrid_run.measure_seconds)
                  .c_str());

  double lat_ratio = b.latency.Mean() > 0
                         ? h.latency.Mean() / b.latency.Mean()
                         : 0;
  double tput_ratio =
      h.Throughput(hybrid_run.measure_seconds) > 0
          ? b.Throughput(baseline.measure_seconds) /
                h.Throughput(hybrid_run.measure_seconds)
          : 0;
  std::printf("\nlatency increase factor:    %.2fx (paper: 5.9x)\n",
              lat_ratio);
  std::printf("throughput reduction factor: %.2fx (paper: 5.9x)\n",
              tput_ratio);
  std::printf("%s\n",
              benchfw::FigureRow("fig1", 0, "latency_factor", lat_ratio)
                  .c_str());
  std::printf("%s\n",
              benchfw::FigureRow("fig1", 0, "tput_factor", tput_ratio)
                  .c_str());

  jreport.AddCell("baseline", baseline);
  jreport.AddCell("hybrid", hybrid_run);
  jreport.AddMetric("impact", "latency_factor", lat_ratio);
  jreport.AddMetric("impact", "tput_factor", tput_ratio);
  jreport.Write();
  return 0;
}

}  // namespace
}  // namespace olxp::bench

int main(int argc, char** argv) { return olxp::bench::Main(argc, argv); }
