// Compressed columnar blocks: memory footprint and zone-map scan benefit.
// Loads the fig5 sale/product star schema at 10x scale into the engine,
// whose sealed blocks are encoded (dictionary / RLE / bit-packing), and
// reports:
//
//   footprint_ratio   boxed bytes / encoded bytes for the sale replica, both
//                     published by the replica's storage gauges (bar: 2x)
//   scan wall-clock   a selective pk-range aggregate (zone maps skip most
//                     sealed blocks) vs. an exhaustive aggregate over the
//                     same rows
//   blocks_skipped    the selective scan must skip > 0 blocks, visible in
//                     BOTH the per-table gauges and EXPLAIN ANALYZE
//
// Exits non-zero if the footprint or skipping bar is missed, so CI treats
// a regression as a failure, not a number drift.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "common/clock.h"

namespace olxp::bench {
namespace {

/// Wall-clock of the fastest of `reps` executions (microseconds).
int64_t TimeQuery(engine::Session& s, const std::string& sql, int reps) {
  int64_t best = INT64_MAX;
  for (int r = 0; r < reps; ++r) {
    int64_t t0 = NowMicros();
    auto rs = s.Execute(sql);
    if (!rs.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   rs.status().ToString().c_str());
      return -1;
    }
    best = std::min(best, NowMicros() - t0);
  }
  return best;
}

/// Zone-skip count parsed out of an EXPLAIN ANALYZE rendering (the scan
/// operator prints "zskip=<n>"); -1 when absent or the statement fails.
int64_t ExplainZskip(engine::Session& s, const std::string& sql) {
  auto rs = s.Execute("EXPLAIN ANALYZE " + sql);
  if (!rs.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 rs.status().ToString().c_str());
    return -1;
  }
  for (const Row& r : rs->rows) {
    const std::string& line = r[0].AsString();
    const size_t pos = line.find("zskip=");
    if (pos != std::string::npos) {
      return std::atoll(line.c_str() + pos + 6);
    }
  }
  return -1;
}

int Main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  PrintHeader("Compression: encoded sealed blocks vs boxed raw storage",
              "footprint >= 2x smaller; selective scans skip whole blocks");

  const int rows = opts.quick ? 200000 : 1200000;     // 10x fig5 scale
  const int products = opts.quick ? 40000 : 200000;
  const int reps = opts.quick ? 3 : 5;
  const int64_t cutoff = rows / 20;  // 5% selectivity on the monotone pk
  const std::string selective =
      "SELECT COUNT(*), SUM(amount) FROM sale WHERE id < " +
      std::to_string(cutoff);
  const std::string exhaustive =
      "SELECT COUNT(*), SUM(amount) FROM sale WHERE qty >= 1";

  benchfw::BenchJsonReport jreport("compression");
  jreport.AddConfig("quick", opts.quick);
  jreport.AddConfig("rows", static_cast<double>(rows));
  jreport.AddConfig("products", static_cast<double>(products));
  jreport.AddConfig("selectivity", 0.05);
  jreport.AddConfig("seed", static_cast<double>(opts.seed));

  engine::EngineProfile p = engine::EngineProfile::TiDbLike();
  p.olap_row_fraction = 0.0;
  engine::Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  if (!LoadSaleProductReplica(db, *s, rows, products, opts.seed)) return 1;
  db.replicator().Stop();  // quiesce: wall-clock wants an idle box

  (void)db.StatsJson();  // publish storage gauges
  auto before = db.metrics().Snapshot();
  const int64_t bytes_encoded = before.gauges.at("column.sale.bytes_encoded");
  const int64_t bytes_boxed = before.gauges.at("column.sale.bytes_raw");
  const int64_t skipped0 = before.gauges.at("column.sale.blocks_skipped");

  const int64_t selective_us = TimeQuery(*s, selective, reps);
  const int64_t exhaustive_us = TimeQuery(*s, exhaustive, reps);
  if (selective_us < 0 || exhaustive_us < 0) return 1;

  (void)db.StatsJson();
  const int64_t blocks_skipped =
      db.metrics().Snapshot().gauges.at("column.sale.blocks_skipped") -
      skipped0;
  const int64_t explain_zskip = ExplainZskip(*s, selective);
  const int64_t cost_overrides =
      db.metrics().GetCounter("router.cost_overrides_to_row")->Value();

  std::printf("encoded %8.2f MB (boxed %8.2f MB) | selective %8.2f ms | "
              "exhaustive %8.2f ms | skipped %lld blocks (explain "
              "zskip=%lld) | cost overrides to row %lld\n",
              bytes_encoded / 1048576.0, bytes_boxed / 1048576.0,
              selective_us / 1000.0, exhaustive_us / 1000.0,
              static_cast<long long>(blocks_skipped),
              static_cast<long long>(explain_zskip),
              static_cast<long long>(cost_overrides));
  jreport.AddMetric("encoded", "bytes_stored",
                    static_cast<double>(bytes_encoded));
  jreport.AddMetric("encoded", "bytes_boxed", static_cast<double>(bytes_boxed));
  jreport.AddMetric("encoded", "selective_scan_us",
                    static_cast<double>(selective_us));
  jreport.AddMetric("encoded", "exhaustive_scan_us",
                    static_cast<double>(exhaustive_us));
  jreport.AddMetric("encoded", "blocks_skipped",
                    static_cast<double>(blocks_skipped));
  jreport.AddMetric("encoded", "explain_zskip",
                    static_cast<double>(explain_zskip));
  jreport.AddMetric("router", "cost_overrides_to_row",
                    static_cast<double>(cost_overrides));

  const double footprint_ratio =
      bytes_encoded > 0 ? static_cast<double>(bytes_boxed) / bytes_encoded
                        : 0;
  const double skip_speedup =
      selective_us > 0 ? static_cast<double>(exhaustive_us) / selective_us
                       : 0;
  std::printf("\nfootprint ratio (boxed/encoded):      %.2fx (bar: 2x)\n",
              footprint_ratio);
  std::printf("selective vs exhaustive:              %.2fx faster\n",
              skip_speedup);
  std::printf("%s\n",
              benchfw::FigureRow("compression", 0, "footprint_ratio",
                                 footprint_ratio)
                  .c_str());
  jreport.AddMetric("summary", "footprint_ratio", footprint_ratio);
  jreport.AddMetric("summary", "selective_speedup", skip_speedup);
  jreport.Write();

  bool ok = true;
  if (footprint_ratio < 2.0) {
    std::fprintf(stderr, "FAIL: footprint ratio %.2fx below the 2x bar\n",
                 footprint_ratio);
    ok = false;
  }
  // The skip must be visible through the gauges and through EXPLAIN
  // ANALYZE.
  if (blocks_skipped <= 0 || explain_zskip <= 0) {
    std::fprintf(stderr,
                 "FAIL: selective scan skipped no blocks (gauge %lld, "
                 "explain %lld)\n",
                 static_cast<long long>(blocks_skipped),
                 static_cast<long long>(explain_zskip));
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace olxp::bench

int main(int argc, char** argv) { return olxp::bench::Main(argc, argv); }
