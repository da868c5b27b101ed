// Morsel-driven parallel vectorized execution: worker-pool/dispatcher
// mechanics, partial-aggregate merge stress (skewed and high-cardinality
// group keys), the radix-partitioned GROUP BY combine (bit-exact with the
// serial run, top-K tie order, path choice), the parallel cost term in the
// router, teardown ordering of the pool against the background sweepers,
// and the OLXP_EXEC_THREADS environment override CI uses to force the pool
// onto every test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/session.h"
#include "exec/morsel.h"
#include "exec/vectorized.h"
#include "sql/parser.h"
#include "tests/result_strings.h"

namespace olxp {
namespace {

engine::EngineProfile ParallelProfile(int threads) {
  auto p = engine::EngineProfile::TiDbLike();
  p.olap_row_fraction = 0.0;
  p.cost_based_routing = false;
  p.replication_lag_micros = 0;
  p.exec_threads = threads;
  return p;
}

// ------------------------------ WorkerPool ---------------------------------

TEST(WorkerPool, RunsEveryLaneIncludingCaller) {
  exec::WorkerPool pool(4);
  EXPECT_EQ(pool.lanes(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h = 0;
  std::atomic<bool> lane0_on_caller{false};
  const auto caller = std::this_thread::get_id();
  pool.Run(4, [&](int lane) {
    hits[lane].fetch_add(1);
    if (lane == 0 && std::this_thread::get_id() == caller) {
      lane0_on_caller = true;
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(lane0_on_caller.load());
}

TEST(WorkerPool, ReusableAcrossRunsAndClampsLaneCount) {
  exec::WorkerPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    pool.Run(8, [&](int lane) {  // clamped to lanes()
      EXPECT_LT(lane, 3);
      ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), 3);
  }
}

TEST(WorkerPool, SingleLanePoolRunsInline) {
  exec::WorkerPool pool(1);
  int ran = 0;
  pool.Run(4, [&](int lane) {
    EXPECT_EQ(lane, 0);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(WorkerPool, ConcurrentRunsFromTwoThreadsComplete) {
  exec::WorkerPool pool(4);
  std::atomic<int> total{0};
  auto job = [&] {
    for (int i = 0; i < 25; ++i) {
      pool.Run(4, [&](int) { total.fetch_add(1); });
    }
  };
  std::thread a(job), b(job);
  a.join();
  b.join();
  // Each Run engages up to 4 lanes; at minimum lane 0 of all 50 Runs ran.
  EXPECT_GE(total.load(), 50);
}

TEST(WorkerPool, ShutdownIsIdempotentAndRunsDegradeToInline) {
  exec::WorkerPool pool(4);
  pool.Shutdown();
  pool.Shutdown();
  std::atomic<int> ran{0};
  pool.Run(4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);  // no workers left: inline lane 0 only
}

// ---------------------------- MorselDispatcher -----------------------------

TEST(MorselDispatcher, PartitionsExactlyAndOrdinalsAreDense) {
  exec::MorselDispatcher d(10000, 4096);
  EXPECT_EQ(d.morsel_count(), 3u);
  size_t claimed_rows = 0;
  std::vector<bool> seen(d.morsel_count(), false);
  exec::MorselDispatcher::Morsel m;
  while (d.Next(&m)) {
    EXPECT_EQ(m.base, m.ordinal * 4096);
    EXPECT_FALSE(seen[m.ordinal]);
    seen[m.ordinal] = true;
    claimed_rows += m.rows;
  }
  EXPECT_EQ(claimed_rows, 10000u);
  EXPECT_EQ(seen, std::vector<bool>(d.morsel_count(), true));
}

TEST(MorselDispatcher, EmptyTableYieldsNoMorsels) {
  exec::MorselDispatcher d(0, 4096);
  EXPECT_EQ(d.morsel_count(), 0u);
  exec::MorselDispatcher::Morsel m;
  EXPECT_FALSE(d.Next(&m));
}

TEST(MorselDispatcher, CancelStopsDistribution) {
  exec::MorselDispatcher d(100000, 1024);
  exec::MorselDispatcher::Morsel m;
  ASSERT_TRUE(d.Next(&m));
  d.Cancel();
  EXPECT_FALSE(d.Next(&m));
}

TEST(MorselDispatcher, ConcurrentClaimsNeverOverlap) {
  exec::MorselDispatcher d(1 << 20, 1024);
  std::vector<std::atomic<int>> claims(d.morsel_count());
  for (auto& c : claims) c = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      exec::MorselDispatcher::Morsel m;
      while (d.Next(&m)) claims[m.ordinal].fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  for (auto& c : claims) EXPECT_EQ(c.load(), 1);
}

// --------------------------- partial-agg merges ----------------------------

/// All 60k rows share one group key: every lane hammers partials of the
/// same group and the combine folds them all into one output row. The
/// integer aggregates must be exact; COUNT(*) via star_count merge too.
TEST(ParallelAgg, SkewedSingleGroupStress) {
  engine::Database db(ParallelProfile(8));
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(
      s->Execute("CREATE TABLE skew (k INT PRIMARY KEY, g INT, v INT, "
                 "w DOUBLE)")
          .ok());
  constexpr int kRows = 60000;
  Rng rng(3);
  int64_t expect_sum = 0;
  for (int k = 0; k < kRows; ++k) {
    int64_t v = rng.Uniform(int64_t{0}, int64_t{1000});
    expect_sum += v;
    ASSERT_TRUE(s->Execute("INSERT INTO skew VALUES (?, 7, ?, ?)",
                           {Value::Int(k), Value::Int(v),
                            Value::Double(rng.Uniform(0.0, 1.0))})
                    .ok());
  }
  db.WaitReplicaCaughtUp();
  db.replicator().Stop();

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    db.set_exec_threads(threads);
    auto rs = s->Execute(
        "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(w) FROM skew "
        "GROUP BY g");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
    ASSERT_EQ(rs->rows.size(), 1u);
    EXPECT_EQ(rs->rows[0][0].AsInt(), 7);
    EXPECT_EQ(rs->rows[0][1].AsInt(), kRows);
    EXPECT_EQ(rs->rows[0][2].AsInt(), expect_sum);
  }
}

/// High-cardinality keys: most groups exist in several morsels, so the
/// combine's find-or-merge path (not the fresh-group fast path) dominates.
/// Output order must still equal the serial run's creation order.
TEST(ParallelAgg, HighCardinalityGroupMergeMatchesSerial) {
  engine::Database db(ParallelProfile(8));
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(
      s->Execute("CREATE TABLE hc (k INT PRIMARY KEY, g INT, v INT)").ok());
  Rng rng(17);
  for (int k = 0; k < 30000; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO hc VALUES (?, ?, ?)",
                           {Value::Int(k),
                            Value::Int(rng.Uniform(int64_t{0}, int64_t{4999})),
                            Value::Int(k % 100)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();
  db.replicator().Stop();

  const std::string q =
      "SELECT g, COUNT(*), SUM(v), MIN(v) FROM hc GROUP BY g";
  db.set_exec_threads(1);
  auto serial = s->Execute(q);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
  for (int threads : {2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    db.set_exec_threads(threads);
    auto par = s->Execute(q);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
    // Row-for-row: group creation order reproduces the serial scan.
    EXPECT_EQ(Stringify(*par), Stringify(*serial));
  }
}

/// Composite (row-keyed) group keys exercise the non-int merge path, and a
/// grouped NULL key must land in the same output group at every lane count.
TEST(ParallelAgg, CompositeAndNullKeysMergeExactly) {
  engine::Database db(ParallelProfile(8));
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE ck (k INT PRIMARY KEY, a INT, "
                         "b VARCHAR, v INT)")
                  .ok());
  const char* tags[] = {"x", "y", "z"};
  for (int k = 0; k < 20000; ++k) {
    ASSERT_TRUE(
        s->Execute("INSERT INTO ck VALUES (?, ?, ?, ?)",
                   {Value::Int(k),
                    k % 11 == 0 ? Value::Null() : Value::Int(k % 6),
                    Value::String(tags[k % 3]), Value::Int(k % 13)})
            .ok());
  }
  db.WaitReplicaCaughtUp();
  db.replicator().Stop();

  for (const char* q :
       {"SELECT a, b, COUNT(*), SUM(v) FROM ck GROUP BY a, b",
        "SELECT a, COUNT(*) FROM ck GROUP BY a"}) {
    SCOPED_TRACE(q);
    db.set_exec_threads(1);
    auto serial = s->Execute(q);
    ASSERT_TRUE(serial.ok());
    db.set_exec_threads(8);
    auto par = s->Execute(q);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
    EXPECT_EQ(Stringify(*par), Stringify(*serial));
  }
}

// ------------------------ partitioned GROUP BY combine ---------------------

/// Exact equality: same types and payloads, doubles compared with ==, so a
/// last-bit difference in a floating-point sum fails (Stringify would
/// round it away).
void ExpectBitIdentical(const sql::ResultSet& got, const sql::ResultSet& want) {
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size()) << "row " << r;
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      const Value& g = got.rows[r][c];
      const Value& w = want.rows[r][c];
      ASSERT_EQ(g.type(), w.type()) << "row " << r << " col " << c;
      if (w.type() == ValueType::kDouble) {
        EXPECT_TRUE(g.AsDouble() == w.AsDouble())
            << "row " << r << " col " << c << ": " << g.AsDouble()
            << " != " << w.AsDouble();
      } else {
        EXPECT_EQ(g.ToString(), w.ToString()) << "row " << r << " col " << c;
      }
    }
  }
}

int64_t PartitionedCount(engine::Database& db) {
  return db.metrics().GetCounter("exec.agg.partitioned")->Value();
}

/// The subench Q5 shape (top revenue items over order lines): 50k rows,
/// 5000 integer keys, random double values. At every lane count and morsel
/// size the result equals the serial run bit for bit, for the top-K query
/// and for the full group list in creation order.
TEST(PartitionedAgg, HighCardinalityMatchesSerialBitForBit) {
  for (size_t morsel_rows : {size_t{1024}, size_t{4096}}) {
    SCOPED_TRACE("morsel_rows=" + std::to_string(morsel_rows));
    auto p = ParallelProfile(1);
    p.morsel_rows = morsel_rows;
    engine::Database db(p);
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    ASSERT_TRUE(s->Execute("CREATE TABLE ol (k INT PRIMARY KEY, item INT, "
                           "amount DOUBLE)")
                    .ok());
    Rng rng(5);
    for (int k = 0; k < 50000; ++k) {
      ASSERT_TRUE(
          s->Execute("INSERT INTO ol VALUES (?, ?, ?)",
                     {Value::Int(k),
                      Value::Int(rng.Uniform(int64_t{1}, int64_t{5000})),
                      Value::Double(rng.Uniform(0.01, 9999.99))})
              .ok());
    }
    db.WaitReplicaCaughtUp();
    db.replicator().Stop();

    for (const char* q :
         {"SELECT item, SUM(amount) AS rev FROM ol GROUP BY item "
          "ORDER BY rev DESC LIMIT 10",
          "SELECT item, COUNT(*), SUM(amount), MIN(amount), MAX(amount), "
          "AVG(amount) FROM ol GROUP BY item"}) {
      SCOPED_TRACE(q);
      db.set_exec_threads(1);
      auto serial = s->Execute(q);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ASSERT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
      for (int threads : {2, 4, 8}) {
        SCOPED_TRACE("exec_threads=" + std::to_string(threads));
        db.set_exec_threads(threads);
        const int64_t before = PartitionedCount(db);
        auto par = s->Execute(q);
        ASSERT_TRUE(par.ok()) << par.status().ToString();
        EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
        EXPECT_EQ(PartitionedCount(db), before + 1);
        ExpectBitIdentical(*par, *serial);
      }
    }
  }
}

/// Top-K over many tied aggregates: ORDER BY s DESC LIMIT k must keep the
/// tied groups created first, exactly as a stable sort would. Keys first
/// appear in a shuffled order, so creation order is not key order.
TEST(PartitionedAgg, TopKTiesKeepFirstCreatedGroups) {
  engine::Database db(ParallelProfile(1));
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(
      s->Execute("CREATE TABLE ties (k INT PRIMARY KEY, g INT, v INT)").ok());
  constexpr int kGroups = 6000;
  constexpr int kRowsPerGroup = 5;
  std::vector<int> perm(kGroups);
  for (int i = 0; i < kGroups; ++i) perm[i] = i;
  uint64_t lcg = 11;
  for (int i = kGroups - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(perm[i], perm[(lcg >> 33) % static_cast<uint64_t>(i + 1)]);
  }
  for (int k = 0; k < kGroups * kRowsPerGroup; ++k) {
    const int g = perm[k % kGroups];
    ASSERT_TRUE(s->Execute("INSERT INTO ties VALUES (?, ?, ?)",
                           {Value::Int(k), Value::Int(g), Value::Int(g % 3)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();
  db.replicator().Stop();

  // Every group with g % 3 == 2 ties at the top sum; the first 25 of them
  // in creation (first-row) order win.
  constexpr int kLimit = 25;
  std::vector<int64_t> want;
  for (int i = 0; i < kGroups && want.size() < kLimit; ++i) {
    if (perm[i] % 3 == 2) want.push_back(perm[i]);
  }
  const std::string q = "SELECT g, SUM(v) AS s FROM ties GROUP BY g "
                        "ORDER BY s DESC LIMIT " + std::to_string(kLimit);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    db.set_exec_threads(threads);
    auto rs = s->Execute(q);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
    ASSERT_EQ(rs->rows.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rs->rows[i][0].AsInt(), want[i]) << "rank " << i;
      EXPECT_EQ(rs->rows[i][1].AsInt(), 2 * kRowsPerGroup) << "rank " << i;
    }
  }
}

/// The combine is chosen from the first morsel: a GROUP BY on the primary
/// key (one group per row) takes the partitioned path, a 7-value key keeps
/// the per-morsel partials. Both still match the serial run.
TEST(PartitionedAgg, FirstMorselCardinalityPicksTheCombine) {
  engine::Database db(ParallelProfile(1));
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(
      s->Execute("CREATE TABLE pc (k INT PRIMARY KEY, e INT, v INT)").ok());
  for (int k = 0; k < 20000; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO pc VALUES (?, ?, ?)",
                           {Value::Int(k), Value::Int(k % 7),
                            Value::Int(k % 101)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();
  db.replicator().Stop();

  struct Case {
    const char* sql;
    bool partitioned;
  };
  for (const Case& c :
       {Case{"SELECT k, SUM(v) FROM pc GROUP BY k", true},
        Case{"SELECT e, COUNT(*), SUM(v) FROM pc GROUP BY e", false}}) {
    SCOPED_TRACE(c.sql);
    db.set_exec_threads(1);
    auto serial = s->Execute(c.sql);
    ASSERT_TRUE(serial.ok());
    const int64_t serial_count = PartitionedCount(db);
    db.set_exec_threads(4);
    auto par = s->Execute(c.sql);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
    EXPECT_EQ(PartitionedCount(db), serial_count + (c.partitioned ? 1 : 0));
    ExpectBitIdentical(*par, *serial);
  }
}

/// Plans whose serial path stops early at LIMIT stay serial (a parallel
/// sweep would waste the early exit) and still return the right prefix.
TEST(ParallelExec, EarlyStopLimitPlansStaySerialAndCorrect) {
  engine::Database db(ParallelProfile(8));
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE lim (k INT PRIMARY KEY, v INT)").ok());
  for (int k = 0; k < 20000; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO lim VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();
  auto rs = s->Execute("SELECT k FROM lim WHERE v >= 100 LIMIT 5");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
  ASSERT_EQ(rs->rows.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(rs->rows[i][0].AsInt(), 100 + i);
}

// ------------------------------- routing -----------------------------------

TEST(ParallelRouting, PointReadsStayOnRowStoreWithPool) {
  auto p = ParallelProfile(8);
  p.cost_based_routing = true;
  engine::Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE pr (k INT PRIMARY KEY, v INT)").ok());
  for (int k = 0; k < 5000; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO pr VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();

  // Point read: never a replica candidate, no matter how cheap parallel
  // vectorized sweeps become.
  ASSERT_TRUE(s->Execute("SELECT v FROM pr WHERE k = 123").ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);

  // Full-table aggregate: replica, vectorized, and the pool engages.
  ASSERT_TRUE(s->Execute("SELECT SUM(v) FROM pr").ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
}

TEST(ParallelRouting, ParallelCostTermPullsIndexedScansToReplica) {
  // The pk-range shape sits between a point read and a full sweep: with a
  // serial replica the row store's index path wins; a pool divides the
  // replica's cost below it and the router flips. Both executions are
  // correct — this pins the cost model's parallel term. 20k rows = ~5
  // morsels, so the lane clamp still leaves a real fan-out. Keys insert in
  // shuffled order so every sealed block's zone map spans the whole key
  // range: zone pruning estimates a full read and the parallel term is
  // pinned in isolation (zone-based routing has its own coverage in
  // obs_test / encoding_test).
  auto p = ParallelProfile(1);
  p.cost_based_routing = true;
  engine::Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE ix (k INT PRIMARY KEY, v INT)").ok());
  uint64_t lcg = 1;
  std::vector<int> keys(20000);
  for (int k = 0; k < 20000; ++k) keys[k] = k;
  for (int k = 19999; k > 0; --k) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(keys[k], keys[lcg % (k + 1)]);
  }
  for (int k : keys) {
    ASSERT_TRUE(s->Execute("INSERT INTO ix VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();

  const std::string q = "SELECT SUM(v) FROM ix WHERE k >= 10 AND k <= 20";
  db.set_exec_threads(1);
  ASSERT_TRUE(s->Execute(q).ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);

  db.set_exec_threads(8);
  ASSERT_TRUE(s->Execute(q).ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);

  // An early-stop LIMIT shape never fans out, so it must get no parallel
  // discount: the row store's index path keeps winning even at 8 lanes.
  ASSERT_TRUE(
      s->Execute("SELECT v FROM ix WHERE k >= 10 AND k <= 20 LIMIT 3").ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);

  // Below one morsel of rows there is nothing to fan out: the discount is
  // clamped away and the indexed shape stays on the row store.
  ASSERT_TRUE(s->Execute("CREATE TABLE tiny (k INT PRIMARY KEY, v INT)").ok());
  for (int k = 0; k < 500; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO tiny VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();
  ASSERT_TRUE(
      s->Execute("SELECT SUM(v) FROM tiny WHERE k >= 10 AND k <= 20").ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);
}

/// Inserts keys 0..rows-1 into `table (k, v)` in a fixed shuffled order, so
/// every sealed block's zone map spans the whole key range.
void InsertShuffled(engine::Session* s, const std::string& table, int rows) {
  uint64_t lcg = 1;
  std::vector<int> keys(rows);
  for (int k = 0; k < rows; ++k) keys[k] = k;
  for (int k = rows - 1; k > 0; --k) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(keys[k], keys[lcg % (k + 1)]);
  }
  for (int k : keys) {
    ASSERT_TRUE(s->Execute("INSERT INTO " + table + " VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k)})
                    .ok());
  }
}

/// The router prices its estimate with the function that bills execution,
/// so when the estimate counts exactly what execution does, the recorded
/// residual is 0: no statement overhead or scan pressure leaks into it.
/// The 1 ms statement overhead lifts that leak well above the histogram's
/// 1% resolution (TiDbLike's 35 us is under 1% of this replica sweep).
TEST(ParallelRouting, ExactEstimateRecordsZeroResidual) {
  auto p = ParallelProfile(8);
  p.cost_based_routing = true;
  p.latency.statement_overhead_ns = 1000000;
  engine::Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE ix (k INT PRIMARY KEY, v INT)").ok());
  InsertShuffled(s.get(), "ix", 20000);
  db.WaitReplicaCaughtUp();

  ASSERT_TRUE(s->Execute("SELECT SUM(v) FROM ix WHERE k >= 10 AND k <= 20")
                  .ok());
  ASSERT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
  const LatencyHistogram residual =
      db.metrics().GetHistogram("router.cost_residual_pct")->Snapshot();
  EXPECT_EQ(residual.count(), 1);
  EXPECT_EQ(residual.max(), 0);
}

/// exec::EstimateReplicaWork counts what execution then reports, because
/// both go through the same stream choice, lane clamp and skip mask. The
/// join without parity (LIMIT, no ORDER BY) keeps its smaller driver as
/// the stream side; its LIMIT exceeds the join's rows, so the serial scan
/// runs to the end, the full sweep the estimate assumes.
TEST(ParallelRouting, ReplicaEstimateMatchesExecution) {
  engine::Database db(ParallelProfile(1));
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(
      s->Execute("CREATE TABLE big (k INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(
      s->Execute("CREATE TABLE small (k INT PRIMARY KEY, r INT)").ok());
  for (int k = 0; k < 20000; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO big VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k % 97)})
                    .ok());
  }
  for (int k = 0; k < 3000; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO small VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k * 7 % 20000)})
                    .ok());
  }
  // Dead slots in sealed blocks: the counts are of live rows.
  ASSERT_TRUE(
      s->Execute("DELETE FROM big WHERE k >= 6000 AND k < 6500").ok());
  db.WaitReplicaCaughtUp();

  const char* shapes[] = {
      // Single-table indexed range: zone maps skip most blocks.
      "SELECT SUM(v) FROM big WHERE k >= 5000 AND k < 9000",
      // Join that keeps parity: streams the bigger table.
      "SELECT COUNT(*), SUM(big.v) FROM small, big WHERE big.k = small.r",
      // Join without parity: streams its smaller driver, serially.
      "SELECT small.k, big.v FROM small, big WHERE big.k = small.r "
      "LIMIT 100000",
  };
  for (int threads : {1, 8}) {
    db.set_exec_threads(threads);
    exec::VecExecOptions opts;
    opts.pool = db.exec_pool();
    opts.morsel_rows = db.profile().morsel_rows;
    for (const char* sql : shapes) {
      SCOPED_TRACE(std::string(sql) + " @" + std::to_string(threads));
      auto parsed = sql::Parse(sql);
      ASSERT_TRUE(parsed.ok());
      auto stmt = sql::Compile(*parsed, db);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
      const exec::VecExecStats est =
          exec::EstimateReplicaWork(**stmt, {}, db.column_store(), opts);
      exec::VecExecStats run;
      ASSERT_TRUE(
          exec::ExecuteVectorized(**stmt, {}, db.column_store(), opts, &run)
              .ok());
      EXPECT_EQ(est.rows_scanned, run.rows_scanned);
      EXPECT_EQ(est.rows_scanned_driver, run.rows_scanned_driver);
      EXPECT_EQ(est.rows_built, run.rows_built);
      EXPECT_EQ(est.lanes_used, run.lanes_used);
    }
  }
}

// ------------------------------- teardown ----------------------------------

/// ~Database must drain the exec pool before stopping the vacuum thread and
/// replicator: destroy instances while replication is still applying and
/// right after parallel queries ran. TSan (CI runs this suite under it)
/// would flag any morsel outliving the stores.
TEST(ParallelShutdown, DestructorStressPoolStopsBeforeSweepers) {
  for (int round = 0; round < 12; ++round) {
    auto p = ParallelProfile(4);
    p.vacuum_interval_us = 100;  // keep the vacuum thread busy
    engine::Database db(p);
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    ASSERT_TRUE(
        s->Execute("CREATE TABLE t (k INT PRIMARY KEY, g INT, v INT)").ok());
    for (int k = 0; k < 4000; ++k) {
      ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?, ?)",
                             {Value::Int(k), Value::Int(k % 5),
                              Value::Int(k)})
                      .ok());
    }
    if (round % 2 == 0) db.WaitReplicaCaughtUp();
    // Fire parallel work from two session threads, then destroy the
    // Database immediately — possibly with the replicator mid-apply.
    std::thread t1([&] {
      auto s2 = db.CreateSession();
      s2->set_charging_enabled(false);
      (void)s2->Execute("SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g");
    });
    std::thread t2([&] {
      auto s3 = db.CreateSession();
      s3->set_charging_enabled(false);
      (void)s3->Execute("SELECT SUM(v) FROM t WHERE v % 3 = 0");
    });
    t1.join();
    t2.join();
  }
}

// ------------------------------ environment --------------------------------

TEST(ParallelEnv, ExecThreadsEnvOverridesProfile) {
  const char* orig = std::getenv("OLXP_EXEC_THREADS");
  const std::string saved = orig != nullptr ? orig : "";
  ASSERT_EQ(setenv("OLXP_EXEC_THREADS", "3", /*overwrite=*/1), 0);
  {
    engine::Database db(ParallelProfile(1));
    EXPECT_EQ(db.profile().exec_threads, 3);
    ASSERT_NE(db.exec_pool(), nullptr);
    EXPECT_EQ(db.exec_pool()->lanes(), 3);
  }
  ASSERT_EQ(unsetenv("OLXP_EXEC_THREADS"), 0);
  {
    engine::Database db(ParallelProfile(1));
    EXPECT_EQ(db.exec_pool(), nullptr);
  }
  // Put the CI-provided value back for the rest of this binary.
  if (orig != nullptr) {
    ASSERT_EQ(setenv("OLXP_EXEC_THREADS", saved.c_str(), 1), 0);
  }
}

}  // namespace
}  // namespace olxp
