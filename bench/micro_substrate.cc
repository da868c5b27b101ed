// google-benchmark micro benchmarks for the substrates: MVCC table
// operations, lock manager, histogram, SQL parse/compile/execute. These are
// the ablation-style numbers backing the latency model calibration in
// DESIGN.md (what one storage operation costs before simulated charges).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "common/histogram.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/session.h"
#include "sql/parser.h"
#include "storage/lock_manager.h"
#include "storage/oracle.h"
#include "storage/table.h"

namespace olxp {
namespace {

storage::TableSchema KvSchema() {
  return storage::TableSchema(
      "kv",
      {{"k", ValueType::kInt, false}, {"v", ValueType::kString, true}},
      {0});
}

void BM_TableInstall(benchmark::State& state) {
  storage::MvccTable table(0, KvSchema());
  storage::TimestampOracle oracle;
  int64_t k = 0;
  for (auto _ : state) {
    // Fresh keys with a monotone oracle cannot fail the ascending-ts check.
    (void)table.InstallVersion({Value::Int(k)}, oracle.Advance(), false,
                               {Value::Int(k), Value::String("payload")});
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableInstall);

/// A kv table holding keys [0, n) and the snapshot that sees them all.
struct KvTable {
  storage::MvccTable table{0, KvSchema()};
  uint64_t ts = 0;
};

/// Builds the table of each size once per process, so every repetition of
/// a read benchmark walks the same node layout: rebuilding it per
/// repetition gave each one a different allocation pattern, and the
/// repetitions of BM_TableScan/100000 spread over a factor of two.
const KvTable& KvTableOfSize(int n) {
  static std::map<int, std::unique_ptr<KvTable>> built;
  std::unique_ptr<KvTable>& kv = built[n];
  if (kv == nullptr) {
    kv = std::make_unique<KvTable>();
    storage::TimestampOracle oracle;
    for (int i = 0; i < n; ++i) {
      // Fresh keys with a monotone oracle cannot fail the ascending-ts
      // check.
      (void)kv->table.InstallVersion({Value::Int(i)}, oracle.Advance(), false,
                                     {Value::Int(i), Value::String("payload")});
    }
    kv->ts = oracle.Current();
  }
  return *kv;
}

void BM_TableGet(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const KvTable& kv = KvTableOfSize(n);
  Rng rng(1);
  for (auto _ : state) {
    auto row = kv.table.Get(
        {Value::Int(rng.Uniform(int64_t{0}, int64_t{n - 1}))}, kv.ts);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableGet)->Arg(1000)->Arg(100000);

void BM_TableScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const KvTable& kv = KvTableOfSize(n);
  for (auto _ : state) {
    int64_t count = 0;
    kv.table.Scan(kv.ts, [&](const Row&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TableScan)->Arg(1000)->Arg(100000);

void BM_LockAcquireRelease(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  storage::LockManager locks(metrics);
  Row key = {Value::Int(7)};
  uint64_t txn = 1;
  for (auto _ : state) {
    Status st = locks.Acquire(txn, 0, key, 1000);
    benchmark::DoNotOptimize(st);
    locks.Release(txn, 0, key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(1);
  for (auto _ : state) {
    hist.Record(static_cast<int64_t>(rng.Uniform(int64_t{1}, int64_t{100000})));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_SqlParse(benchmark::State& state) {
  const char* sql =
      "SELECT c.c_credit, COUNT(*), AVG(o.o_ol_cnt) FROM orders o JOIN "
      "customer c ON c.c_w_id = o.o_w_id AND c.c_d_id = o.o_d_id AND "
      "c.c_id = o.o_c_id WHERE o.o_id > 10 GROUP BY c.c_credit "
      "ORDER BY 2 DESC LIMIT 5";
  for (auto _ : state) {
    auto stmt = sql::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlParse);

void BM_PointSelectEndToEnd(benchmark::State& state) {
  engine::Database db(engine::EngineProfile::MemSqlLike());
  auto session = db.CreateSession();
  session->set_charging_enabled(false);
  (void)session->Execute(
      "CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32))");
  for (int i = 0; i < 10000; ++i) {
    (void)session->Execute("INSERT INTO kv VALUES (?, ?)",
                           {Value::Int(i), Value::String("payload")});
  }
  Rng rng(1);
  for (auto _ : state) {
    auto rs = session->Execute(
        "SELECT v FROM kv WHERE k = ?",
        {Value::Int(rng.Uniform(int64_t{0}, int64_t{9999}))});
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointSelectEndToEnd);

void BM_AggregateQueryEndToEnd(benchmark::State& state) {
  engine::Database db(engine::EngineProfile::MemSqlLike());
  auto session = db.CreateSession();
  session->set_charging_enabled(false);
  (void)session->Execute(
      "CREATE TABLE t (k INT PRIMARY KEY, grp INT, x DOUBLE)");
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    (void)session->Execute(
        "INSERT INTO t VALUES (?, ?, ?)",
        {Value::Int(i), Value::Int(i % 16), Value::Double(rng.NextDouble())});
  }
  for (auto _ : state) {
    auto rs = session->Execute(
        "SELECT grp, COUNT(*), SUM(x), AVG(x) FROM t GROUP BY grp "
        "ORDER BY grp");
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_AggregateQueryEndToEnd);

}  // namespace
}  // namespace olxp

BENCHMARK_MAIN();
