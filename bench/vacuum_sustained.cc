// Sustained-run memory boundedness under the background MVCC vacuum: the
// acceptance scenario for the snapshot-watermark vacuum subsystem.
//
// Phase 1 runs back-to-back subenchmark cells (updates, inserts AND the
// new_order deletes) with NO between-cell pruning — only the background
// vacuum thread runs. Version-chain totals, secondary-index entries, and
// resident row counts must plateau instead of growing with every cell.
//
// Phase 2 pins an old snapshot (an open snapshot-isolation transaction)
// and keeps the load running: reclamation stalls at the pin (version
// totals grow again), then collapses back once the snapshot is released —
// the watermark rule made observable.
#include "bench/bench_common.h"

namespace olxp::bench {
namespace {

struct StorageFootprint {
  size_t versions = 0;
  size_t index_entries = 0;
  size_t rows = 0;
};

StorageFootprint Footprint(engine::Database& db) {
  StorageFootprint f;
  for (int id : db.row_store().TableIds()) {
    const storage::MvccTable* t = db.row_store().table(id);
    f.versions += t->TotalVersionCount();
    f.index_entries += t->IndexEntryCount();
    f.rows += t->ApproxRowCount();
  }
  return f;
}

int Main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  PrintHeader("Sustained-run MVCC vacuum (subenchmark, tidb-like)",
              "bounded version/index growth under continuous GC; a pinned "
              "snapshot blocks reclamation until released");

  benchfw::BenchmarkSuite suite = benchmarks::MakeSubenchmark(opts.Load());
  engine::Database db(engine::EngineProfile::TiDbLike());
  Status st = benchfw::SetUp(db, suite);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  benchfw::AgentConfig oltp;
  oltp.kind = benchfw::AgentKind::kOltp;
  oltp.request_rate = -1;  // closed loop, full default mix (incl. deletes)
  oltp.threads = 8;

  auto run_cell = [&]() {
    auto result = benchfw::RunCell(db, suite, {oltp}, opts.Run());
    if (!result.ok()) {
      std::fprintf(stderr, "cell failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return *std::move(result);
  };

  const StorageFootprint loaded = Footprint(db);
  std::printf("after load:   versions=%zu index_entries=%zu rows=%zu\n",
              loaded.versions, loaded.index_entries, loaded.rows);

  // ---- Phase 1: continuous load, background vacuum only -------------------
  const int cells = opts.quick ? 3 : 5;
  StorageFootprint prev = loaded;
  size_t peak_versions = loaded.versions;
  double last_growth = 0;
  for (int c = 0; c < cells; ++c) {
    run_cell();
    db.RunVacuum();  // drain the tail so samples compare settled states
    StorageFootprint f = Footprint(db);
    last_growth = prev.versions > 0
                      ? static_cast<double>(f.versions) /
                            static_cast<double>(prev.versions)
                      : 0;
    std::printf(
        "cell %d:       versions=%zu index_entries=%zu rows=%zu "
        "(x%.3f vs prev)\n",
        c, f.versions, f.index_entries, f.rows, last_growth);
    peak_versions = std::max(peak_versions, f.versions);
    prev = f;
  }
  obs::MetricsRegistry& metrics = db.metrics();
  std::printf(
      "vacuum: passes=%lld reclaimed versions=%lld chains=%lld "
      "index_entries=%lld\n",
      static_cast<long long>(metrics.GetCounter("vacuum.passes")->Value()),
      static_cast<long long>(
          metrics.GetCounter("vacuum.versions_reclaimed")->Value()),
      static_cast<long long>(
          metrics.GetCounter("vacuum.tombstones_reclaimed")->Value()),
      static_cast<long long>(
          metrics.GetCounter("vacuum.index_entries_reclaimed")->Value()));
  // Plateau: the last cell's settled footprint stays within a small factor
  // of the previous one (unbounded growth compounds per cell instead).
  const bool plateaued = last_growth > 0 && last_growth < 1.25;
  std::printf("%s\n",
              benchfw::FigureRow("vacuum", 0, "settled_growth_factor",
                                 last_growth)
                  .c_str());

  // ---- Phase 2: pinned snapshot blocks reclamation ------------------------
  auto pin = db.txn_manager().Begin(txn::IsolationLevel::kSnapshotIsolation);
  const StorageFootprint before_pin = prev;
  run_cell();
  db.RunVacuum();
  StorageFootprint pinned = Footprint(db);
  // Reclamation is stalled at the pin: history written after it survives.
  std::printf("pinned:       versions=%zu (was %zu) — reclamation blocked\n",
              pinned.versions, before_pin.versions);
  const bool pin_blocked = pinned.versions > before_pin.versions;
  (void)pin->Commit();  // release the snapshot; a read-only commit can't fail
  db.RunVacuum();
  StorageFootprint released = Footprint(db);
  std::printf("released:     versions=%zu — watermark advanced past pin\n",
              released.versions);
  const bool pin_released = released.versions < pinned.versions;

  std::printf("\nbounded under continuous vacuum: %s\n",
              plateaued ? "yes" : "NO");
  std::printf("pinned snapshot blocked reclamation: %s\n",
              pin_blocked ? "yes" : "NO");
  std::printf("release unblocked reclamation:       %s\n",
              pin_released ? "yes" : "NO");
  return plateaued && pin_blocked && pin_released ? 0 : 1;
}

}  // namespace
}  // namespace olxp::bench

int main(int argc, char** argv) { return olxp::bench::Main(argc, argv); }
