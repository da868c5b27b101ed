// Durability figure: throughput of the four WAL modes (off / async /
// per-commit fsync / group commit) on subench write-heavy cells. The
// paper's SUTs all persist commits through a group-committed raft/redo log;
// this figure shows why — a naive fsync per commit caps throughput at
// 1/fsync_latency, while one fsync covering a batch restores most of the
// non-durable rate. Acceptance target: group >= 5x sync on the write-heavy
// cell.
//
// The engine profile zeroes the simulated latency model so the figure
// isolates REAL durability cost (write + fsync on this machine's disk)
// instead of burying it under simulated device charges.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>

#include "bench/bench_common.h"

namespace olxp::bench {
namespace {

namespace fs = std::filesystem;

engine::EngineProfile DurabilityProfile(storage::DurabilityMode mode,
                                        const std::string& wal_dir) {
  engine::EngineProfile p = engine::EngineProfile::MemSqlLike();
  // Zero the simulated device model: the figure measures the durability
  // axis alone, as hardware allows.
  p.latency = engine::LatencyModel{};
  p.latency.row_seek_ns = 0;
  p.latency.row_scan_row_ns = 0;
  p.latency.row_analytic_scan_row_ns = 0;
  p.latency.write_ns = 0;
  p.latency.commit_base_ns = 0;
  p.latency.statement_overhead_ns = 0;
  p.latency.scan_contention = 0;
  p.durability = mode;
  p.wal_dir = wal_dir;
  // Window 0 still batches: everything arriving while the previous fsync
  // runs shares the next one. On a small host the fsync itself is a long
  // enough window; a positive value only adds latency here.
  p.group_commit_window_us = 0;
  return p;
}

/// Single-statement auto-commit append to subench HISTORY (the Payment
/// sub-op): the leanest write the engine serves — short row, no prior
/// version to read, conflict-free keys — so durability cost dominates.
/// h_date comes from a shared counter: the composite PK stays unique
/// across all writer threads.
benchfw::TxnProfile HistoryInsertProfile(int warehouses) {
  benchfw::TxnProfile p;
  p.name = "HistoryInsert";
  p.weight = 1;
  p.read_only = false;
  auto date_seq = std::make_shared<std::atomic<int64_t>>(1800000000000000);
  p.body = [warehouses, date_seq](engine::Session& s, Rng& r) {
    const int64_t w = r.Uniform(int64_t{1}, int64_t{warehouses});
    auto rs = s.Execute(
        "INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        {Value::Int(r.Uniform(int64_t{1}, int64_t{30})),
         Value::Int(r.Uniform(int64_t{1}, int64_t{10})), Value::Int(w),
         Value::Int(r.Uniform(int64_t{1}, int64_t{10})), Value::Int(w),
         Value::Timestamp(date_seq->fetch_add(1)), Value::Double(3.14),
         Value::String("durability-cell")});
    return rs.ok() ? Status::OK() : rs.status();
  };
  return p;
}

struct ModeResult {
  double tput = 0;
  double mean_ms = 0;
  double p95_ms = 0;
  uint64_t fsyncs = 0;
  uint64_t wal_mb = 0;
};

}  // namespace
}  // namespace olxp::bench

int main(int argc, char** argv) {
  using namespace olxp;
  using namespace olxp::bench;

  // Local flag on top of the shared options: worker thread count. High by
  // default: group commit's batch size is bounded by the number of
  // concurrently committing clients.
  int threads = 96;
  int argc_out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else {
      argv[argc_out++] = argv[i];
    }
  }
  BenchOptions opts = BenchOptions::Parse(argc_out, argv);
  // Keep the write key space wide enough that row-lock collisions between
  // the many writer threads stay rare — the figure measures durability
  // cost, not lock contention.
  if (opts.items < 10000) opts.items = 10000;
  PrintHeader(
      "Durability: WAL mode sweep (subench write-heavy cells)",
      "group commit amortizes the redo-log fsync across concurrent commits "
      "(target: >= 5x per-commit fsync)");

  const storage::DurabilityMode kModes[] = {
      storage::DurabilityMode::kOff, storage::DurabilityMode::kAsync,
      storage::DurabilityMode::kSync, storage::DurabilityMode::kGroup};

  struct CellSpec {
    const char* label;
    bool lean_cell;  ///< lean auto-commit history append vs Payment-only mix
  };
  // The Payment row keeps the standard subench OLTP path in view; the
  // history-insert row is the lean cell the acceptance ratio is read from.
  const CellSpec kCells[] = {{"history-insert", true}, {"payment-only", false}};

  benchfw::BenchJsonReport report("durability");
  report.AddConfig("quick", opts.quick);
  report.AddConfig("measure_seconds", opts.measure);
  report.AddConfig("threads", static_cast<double>(threads));
  report.AddConfig("items", static_cast<double>(opts.items));
  report.AddConfig("seed", static_cast<double>(opts.seed));

  for (const CellSpec& cell : kCells) {
    std::printf("\n--- cell: %s (closed loop, %d threads) ---\n", cell.label,
                threads);
    std::printf("%-8s %12s %10s %10s %10s %8s\n", "mode", "tput(txn/s)",
                "mean_ms", "p95_ms", "fsync/s", "wal_MB");

    double sync_tput = 0, group_tput = 0;
    for (storage::DurabilityMode mode : kModes) {
      // Best of two independent reps per mode (fresh database + WAL dir
      // each): peak-throughput methodology, applied symmetrically, so one
      // cold ext4 journal or scheduler hiccup does not define a mode.
      const int kReps = 2;
      ModeResult best;
      LatencyHistogram best_hist;
      uint64_t best_committed = 0;
      double best_seconds = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "olxp_dur_XXXXXX")
                .string();
        std::vector<char> dirbuf(tmpl.begin(), tmpl.end());
        dirbuf.push_back('\0');
        if (mkdtemp(dirbuf.data()) == nullptr) {
          std::fprintf(stderr, "mkdtemp failed\n");
          return 1;
        }
        const std::string wal_dir = dirbuf.data();

        benchfw::BenchmarkSuite suite =
            benchmarks::MakeSubenchmark(opts.Load());
        const int warehouses = suite.load_params.scale;
        if (cell.lean_cell) {
          suite.transactions = {HistoryInsertProfile(warehouses)};
        }
        engine::Database db(DurabilityProfile(mode, wal_dir));
        if (!db.recovery_status().ok()) {
          std::fprintf(stderr, "wal open failed: %s\n",
                       db.recovery_status().ToString().c_str());
          return 1;
        }
        if (!benchfw::SetUp(db, suite).ok()) return 1;

        benchfw::AgentConfig oltp;
        oltp.kind = benchfw::AgentKind::kOltp;
        oltp.request_rate = -1;  // closed loop: saturation throughput
        oltp.threads = threads;
        if (!cell.lean_cell) {
          // Payment only, via the (validated) per-profile weight override.
          oltp.weight_override = {0, 1, 0, 0, 0};
        }

        benchfw::RunConfig cfg = opts.Run();
        const obs::Counter* fsyncs = db.metrics().GetCounter("wal.fsyncs");
        const obs::Counter* bytes =
            db.metrics().GetCounter("wal.bytes_written");
        const int64_t fsync0 = fsyncs->Value();
        const int64_t bytes0 = bytes->Value();
        auto r = Cell(db, suite, {oltp}, cfg);
        const auto& k = r.Of(benchfw::AgentKind::kOltp);

        ModeResult m;
        m.tput = k.Throughput(r.measure_seconds);
        m.mean_ms = k.latency.Mean() / 1000.0;
        m.p95_ms = k.latency.P95() / 1000.0;
        if (db.wal() != nullptr) {
          // Cell-wide counters (warmup included): rough rate, right shape.
          m.fsyncs = static_cast<uint64_t>(fsyncs->Value() - fsync0);
          m.wal_mb = static_cast<uint64_t>(bytes->Value() - bytes0) >> 20;
        }
        if (m.tput > best.tput) {
          best = m;
          best_hist = k.latency;
          best_committed = k.committed;
          best_seconds = r.measure_seconds;
        }

        std::error_code ec;
        std::filesystem::remove_all(wal_dir, ec);
      }

      std::printf("%-8s %12.1f %10.3f %10.3f %10.1f %8llu\n",
                  storage::DurabilityModeName(mode), best.tput, best.mean_ms,
                  best.p95_ms,
                  opts.measure > 0 ? best.fsyncs / opts.measure : 0,
                  static_cast<unsigned long long>(best.wal_mb));
      std::fflush(stdout);

      if (mode == storage::DurabilityMode::kSync) sync_tput = best.tput;
      if (mode == storage::DurabilityMode::kGroup) group_tput = best.tput;

      const std::string label =
          std::string(cell.label) + "/" + storage::DurabilityModeName(mode);
      report.AddLatencyCell(label, best_hist, best_committed, best_seconds);
      report.AddMetric(label, "fsyncs", static_cast<double>(best.fsyncs));
      report.AddMetric(label, "wal_mb", static_cast<double>(best.wal_mb));
    }

    if (sync_tput > 0) {
      std::printf("[%s] group/sync = %.2fx %s\n", cell.label,
                  group_tput / sync_tput,
                  cell.lean_cell ? "(acceptance target: >= 5x)" : "");
      report.AddMetric(cell.label, "group_over_sync",
                       sync_tput > 0 ? group_tput / sync_tput : 0);
    }
  }
  report.Write();
  return 0;
}
