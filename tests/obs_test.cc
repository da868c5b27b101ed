// Observability tests: metrics registry primitives (including their
// concurrency contracts, exercised under TSan in CI), the slow-query ring,
// per-query tracing (EXPLAIN ANALYZE), and the engine-level wiring —
// Database::StatsJson() must surface telemetry from every subsystem after
// a mixed workload, and tracing must never change statement results.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/slow_query_log.h"
#include "tests/result_strings.h"

namespace olxp {
namespace {

namespace fs = std::filesystem;

// ------------------------------- primitives -------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kPerThread);
}

TEST(ObsCounter, SnapshotRacesWithWriters) {
  // Reads while writers are mid-increment: each observed value must be
  // monotone non-decreasing and never above the final total. Run under
  // TSan in CI, this also proves the relaxed-atomics scheme is race-free.
  obs::Counter c;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&c] {
      for (int i = 0; i < kPerWriter; ++i) c.Add(1);
    });
  }
  std::thread reader([&] {
    int64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      int64_t v = c.Value();
      EXPECT_GE(v, last);
      EXPECT_LE(v, int64_t{kWriters} * kPerWriter);
      last = v;
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(c.Value(), int64_t{kWriters} * kPerWriter);
}

TEST(ObsRegistry, HandlesAreStableAndSharedByName) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("x.count");
  obs::Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Add(3);
  reg.GetGauge("x.gauge")->Set(-7);
  reg.GetHistogram("x.lat_us")->Record(150);
  auto snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("x.count"), 3);
  EXPECT_EQ(snap.gauges.at("x.gauge"), -7);
  EXPECT_EQ(snap.histograms.at("x.lat_us").count, 1);
}

TEST(ObsRegistry, ConcurrentLookupAndRecordUnderSnapshot) {
  // Registration, recording and snapshotting race from many threads (the
  // session-open vs dashboard-poll pattern); TSan checks the locking.
  obs::MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, t] {
      obs::Counter* c = reg.GetCounter("shared.count");
      obs::Histogram* h =
          reg.GetHistogram("h" + std::to_string(t) + ".lat_us");
      for (int i = 0; i < 2000; ++i) {
        c->Add(1);
        h->Record(i);
        if (i % 500 == 0) reg.Snapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.Snapshot().counters.at("shared.count"), 8000);
}

TEST(ObsRegistry, JsonAndPrometheusRendering) {
  obs::MetricsRegistry reg;
  reg.GetCounter("wal.appends")->Add(2);
  reg.GetGauge("repl.pending_records")->Set(5);
  reg.GetHistogram("session.statement_us")->Record(1000);
  auto snap = reg.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"wal.appends\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"repl.pending_records\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"session.statement_us\""), std::string::npos);
  const std::string prom = snap.ToPrometheusText();
  EXPECT_NE(prom.find("wal_appends 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("session_statement_us_count 1"), std::string::npos);
}

TEST(ObsSlowQueryLog, RingEvictsOldestAndKeepsMonotoneSeq) {
  obs::SlowQueryLog log(2);
  for (int i = 1; i <= 3; ++i) {
    obs::SlowQueryEntry e;
    e.sql = "q" + std::to_string(i);
    e.wall_us = i * 10;
    log.Add(std::move(e));
  }
  EXPECT_EQ(log.total_recorded(), 3u);
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].sql, "q2");
  EXPECT_EQ(entries[0].seq, 2u);
  EXPECT_EQ(entries[1].sql, "q3");
  EXPECT_EQ(entries[1].seq, 3u);
}

TEST(ObsSlowQueryLog, ZeroCapacityIsUnbounded) {
  obs::SlowQueryLog log(0);
  for (int i = 0; i < 100; ++i) log.Add({});
  EXPECT_EQ(log.Entries().size(), 100u);
}

// ----------------------------- engine wiring ------------------------------

/// Deterministic separated-architecture profile with durability on (a
/// scratch WAL dir) and a small morsel size so the worker pool engages on
/// test-sized tables: every subsystem has a reason to report.
class ObsEngineTest : public ::testing::Test {
 protected:
  ~ObsEngineTest() override {
    for (const std::string& d : dirs_) {
      std::error_code ec;
      fs::remove_all(d, ec);
    }
  }

  std::string MakeWalDir() {
    std::string tmpl = (fs::temp_directory_path() / "olxp_obs_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* got = mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    dirs_.emplace_back(got);
    return dirs_.back();
  }

  engine::EngineProfile Profile() {
    auto p = engine::EngineProfile::TiDbLike();
    p.olap_row_fraction = 0.0;
    p.replication_lag_micros = 0;
    p.durability = storage::DurabilityMode::kGroup;
    p.wal_dir = MakeWalDir();
    p.exec_threads = 2;
    p.morsel_rows = 1024;
    p.vacuum_interval_us = 0;  // passes run synchronously via RunVacuum()
    return p;
  }

  /// CREATE + 3000 inserts + updates + an analytical sweep + a vacuum pass:
  /// touches the WAL, locks, replication, the worker pool and the router.
  void RunMixedWorkload(engine::Database& db, engine::Session& s) {
    ASSERT_TRUE(
        s.Execute("CREATE TABLE m (k INT PRIMARY KEY, v INT, w DOUBLE)").ok());
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE(s.Execute("INSERT INTO m VALUES (?, ?, ?)",
                            {Value::Int(i), Value::Int(i % 50),
                             Value::Double(i * 0.5)})
                      .ok());
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(s.Execute("UPDATE m SET v = ? WHERE k = ?",
                            {Value::Int(-i), Value::Int(i)})
                      .ok());
    }
    db.WaitReplicaCaughtUp();
    auto rs = s.Execute("SELECT COUNT(*), SUM(v) FROM m");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(s.last_route(), engine::RoutedStore::kColumnStore);
    db.RunVacuum();
  }

  std::vector<std::string> dirs_;
};

TEST_F(ObsEngineTest, StatsJsonCoversEverySubsystem) {
  engine::Database db(Profile());
  ASSERT_TRUE(db.recovery_status().ok());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);

  auto snap = db.metrics().Snapshot();
  // One load-bearing counter per subsystem must have moved.
  EXPECT_GT(snap.counters.at("wal.appends"), 0);            // WAL
  EXPECT_GT(snap.counters.at("vacuum.passes"), 0);          // vacuum
  EXPECT_GT(snap.counters.at("repl.records_applied"), 0);   // replicator
  EXPECT_GT(snap.counters.at("lock.acquires"), 0);          // lock manager
  EXPECT_GT(snap.counters.at("exec.pool.runs"), 0);         // worker pool
  EXPECT_GT(snap.counters.at("router.route.column_vectorized"), 0);  // router
  EXPECT_GT(snap.counters.at("exec.morsels_dispatched"), 0);
  EXPECT_GT(snap.counters.at("session.statements"), 0);
  EXPECT_GT(snap.histograms.at("session.statement_us").count, 0);
  EXPECT_GT(snap.histograms.at("wal.fsync_us").count, 0);
  EXPECT_GT(snap.histograms.at("vacuum.pass_us").count, 0);

  // And the JSON document surfaces all of it.
  const std::string json = db.StatsJson();
  for (const char* name :
       {"wal.appends", "vacuum.passes", "repl.records_applied",
        "lock.acquires", "exec.pool.runs", "router.route.column_vectorized",
        "slow_queries", "slow_query_total"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name << "\n" << json;
  }
  EXPECT_FALSE(db.MetricsText().empty());

  // Every name olxpbench reads exists with the kind it reads it as (after
  // the refresh StatsJson does, as olxpbench takes it): a rename or a kind
  // change would otherwise flatten its per-layer metrics to 0 silently.
  const obs::MetricsSnapshot refreshed = db.metrics().Snapshot();
  for (const char* name :
       {"lock.waits", "lock.wait_ns", "lock.timeouts", "wal.appends",
        "wal.fsyncs", "wal.bytes_written", "repl.records_applied",
        "repl.apply_batches", "vacuum.versions_reclaimed",
        "exec.morsels_dispatched", "exec.pool.lane0.busy_ns",
        "exec.pool.lane1.busy_ns", "router.cost_overrides_to_row"}) {
    EXPECT_EQ(refreshed.counters.count(name), 1u) << "counter " << name;
  }
  for (const char* name :
       {"repl.apply_lag_us", "column.m.bytes_encoded", "column.m.bytes_raw",
        "column.m.blocks_scanned", "column.m.blocks_skipped"}) {
    EXPECT_EQ(refreshed.gauges.count(name), 1u) << "gauge " << name;
  }
  for (const char* name : {"wal.fsync_us", "session.statement_us"}) {
    EXPECT_EQ(refreshed.histograms.count(name), 1u) << "histogram " << name;
  }
}

TEST_F(ObsEngineTest, TracingChangesNoResults) {
  engine::Database db(Profile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);

  const char* queries[] = {
      "SELECT COUNT(*), SUM(v), AVG(w) FROM m",
      "SELECT v, COUNT(*), MAX(w) FROM m GROUP BY v ORDER BY v",
      "SELECT k, v FROM m WHERE v > 25 AND w < 900.0",
      "SELECT k FROM m ORDER BY w DESC LIMIT 7",
      "SELECT COUNT(*) FROM m WHERE k = 17",
      // Zone-refutable range: most sealed blocks are skipped outright;
      // tracing (and the skip accounting it surfaces) must not perturb the
      // result.
      "SELECT COUNT(*), SUM(v) FROM m WHERE w < 50",
      // One group per row: the radix-partitioned combine.
      "SELECT k, SUM(w) AS s FROM m GROUP BY k ORDER BY s DESC LIMIT 9",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    s->set_trace_level(0);
    auto plain = s->Execute(sql);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    s->set_trace_level(1);
    auto traced = s->Execute(sql);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    EXPECT_EQ(Stringify(*traced), Stringify(*plain));
    // The trace itself must be coherent: ops captured, and the final
    // emit op reporting exactly the statement's result cardinality.
    const obs::QueryTrace& t = s->last_trace();
    EXPECT_FALSE(t.ops.empty());
    EXPECT_EQ(t.emitted_rows(), static_cast<int64_t>(traced->rows.size()));
    EXPECT_FALSE(t.route.empty());
    s->set_trace_level(0);
  }
}

/// The parallel combine is an operator of its own: a high-cardinality
/// GROUP BY reports the partitioned mode with its partition and group
/// counts, bumps exec.agg.partitioned, and returns exactly the untraced
/// result; a low-cardinality one reports the per-morsel merge.
TEST_F(ObsEngineTest, CombineIsTracedAndPartitionedPathCounted) {
  engine::Database db(Profile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);

  auto combine_of = [&]() -> const obs::TraceOp* {
    for (const obs::TraceOp& op : s->last_trace().ops) {
      if (op.op == "combine") return &op;
    }
    return nullptr;
  };
  const std::string high = "SELECT k, SUM(w), MIN(v) FROM m GROUP BY k";
  obs::Counter* partitioned = db.metrics().GetCounter("exec.agg.partitioned");
  const int64_t before = partitioned->Value();
  auto plain = s->Execute(high);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  s->set_trace_level(1);
  auto traced = s->Execute(high);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(partitioned->Value(), before + 2);
  ASSERT_EQ(traced->rows.size(), plain->rows.size());
  for (size_t r = 0; r < plain->rows.size(); ++r) {
    EXPECT_EQ(traced->rows[r][0].AsInt(), plain->rows[r][0].AsInt());
    EXPECT_TRUE(traced->rows[r][1].AsDouble() == plain->rows[r][1].AsDouble())
        << "row " << r;
    EXPECT_EQ(traced->rows[r][2].AsInt(), plain->rows[r][2].AsInt());
  }
  const obs::TraceOp* comb = combine_of();
  ASSERT_NE(comb, nullptr) << s->last_trace().ToString();
  EXPECT_EQ(comb->detail, "partitioned parts=16 groups=3000");
  EXPECT_EQ(comb->rows_out, 3000);

  ASSERT_TRUE(s->Execute("SELECT v, COUNT(*) FROM m GROUP BY v").ok());
  comb = combine_of();
  ASSERT_NE(comb, nullptr) << s->last_trace().ToString();
  EXPECT_EQ(comb->detail.rfind("per-morsel parts=3 ", 0), 0u) << comb->detail;
  EXPECT_EQ(partitioned->Value(), before + 2);
  s->set_trace_level(0);
  EXPECT_NE(db.StatsJson().find("exec.agg.partitioned"), std::string::npos);
}

TEST_F(ObsEngineTest, ExplainAnalyzeReturnsTraceAndExecutesInner) {
  engine::Database db(Profile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);

  auto normal = s->Execute("SELECT v, COUNT(*) FROM m GROUP BY v ORDER BY v");
  ASSERT_TRUE(normal.ok());
  const auto cardinality = static_cast<int64_t>(normal->rows.size());

  auto explained = s->Execute(
      "explain analyze SELECT v, COUNT(*) FROM m GROUP BY v ORDER BY v");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  ASSERT_FALSE(explained->rows.empty());
  EXPECT_EQ(explained->column_names,
            std::vector<std::string>{"EXPLAIN ANALYZE"});
  EXPECT_EQ(s->last_trace().emitted_rows(), cardinality);
  EXPECT_EQ(s->last_trace().route, "column/vectorized");
  // The rendering mentions the final emit operator.
  std::string all;
  for (const Row& r : explained->rows) all += r[0].AsString() + "\n";
  EXPECT_NE(all.find("emit"), std::string::npos) << all;

  // EXPLAIN ANALYZE on DML executes the write (trace side effects are the
  // inner statement's side effects).
  auto dml = s->Execute(
      "EXPLAIN ANALYZE INSERT INTO m VALUES (100000, 1, 2.5)");
  ASSERT_TRUE(dml.ok()) << dml.status().ToString();
  auto check = s->Execute("SELECT COUNT(*) FROM m WHERE k = 100000");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].AsInt(), 1);

  // Plain EXPLAIN (no ANALYZE) is not claimed by the prefix parser.
  EXPECT_FALSE(s->Execute("EXPLAIN SELECT COUNT(*) FROM m").ok());
}

TEST_F(ObsEngineTest, ColumnStorageGaugesAndZoneSkipTelemetry) {
  engine::Database db(Profile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);  // 3000 sequential keys: 2 sealed blocks + tail

  // A range predicate on the unindexed, insert-ordered w whose bound
  // refutes the second sealed block's zone map: the scan must read fewer
  // blocks than exist and say so. (A pk range would be priced against the
  // row store's index and could route there.)
  auto rs = s->Execute("SELECT COUNT(*) FROM m WHERE w < 50");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 100);

  // StatsJson() refreshes the per-table storage gauges into the registry.
  const std::string json = db.StatsJson();
  for (const char* name :
       {"column.m.blocks_scanned", "column.m.blocks_skipped",
        "column.m.bytes_encoded", "column.m.bytes_raw"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name << "\n" << json;
  }
  auto snap = db.metrics().Snapshot();
  EXPECT_GT(snap.gauges.at("column.m.blocks_scanned"), 0);
  EXPECT_GT(snap.gauges.at("column.m.blocks_skipped"), 0);
  EXPECT_GT(snap.gauges.at("column.m.bytes_encoded"), 0);
  // Sealed blocks compress below their boxed footprint.
  EXPECT_LT(snap.gauges.at("column.m.bytes_encoded"),
            snap.gauges.at("column.m.bytes_raw"));
  // The Prometheus endpoint exposes the same gauges (dots to underscores).
  const std::string prom = db.MetricsText();
  EXPECT_NE(prom.find("column_m_blocks_skipped"), std::string::npos) << prom;

  // EXPLAIN ANALYZE surfaces the skip count on the scan operator.
  auto explained =
      s->Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM m WHERE w < 50");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  std::string all;
  for (const Row& r : explained->rows) all += r[0].AsString() + "\n";
  EXPECT_NE(all.find("zskip="), std::string::npos) << all;
  EXPECT_EQ(all.find("zskip=0"), std::string::npos) << all;

  // An exhaustive predicate skips nothing and the trace reports that too.
  auto full = s->Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM m WHERE "
                         "v <> 123456");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  all.clear();
  for (const Row& r : full->rows) all += r[0].AsString() + "\n";
  EXPECT_NE(all.find("zskip=0"), std::string::npos) << all;
}

TEST_F(ObsEngineTest, SlowQueryLogAdmitsByThresholdIntoBoundedRing) {
  auto p = Profile();
  p.slow_query_threshold_us = 1;  // test-sized scans exceed 1us reliably
  p.slow_query_log_capacity = 2;
  engine::Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);

  const uint64_t before = db.slow_query_log().total_recorded();
  EXPECT_GT(before, 0u);  // the load itself crossed the 1us threshold
  ASSERT_TRUE(s->Execute("SELECT COUNT(*) FROM m WHERE v <> 1").ok());
  ASSERT_TRUE(s->Execute("SELECT SUM(w) FROM m WHERE v > 2").ok());
  EXPECT_GE(db.slow_query_log().total_recorded(), before + 2);

  auto entries = db.slow_query_log().Entries();
  ASSERT_EQ(entries.size(), 2u);  // ring bounded at the profile capacity
  EXPECT_EQ(entries.back().sql, "SELECT SUM(w) FROM m WHERE v > 2");
  EXPECT_FALSE(entries.back().route.empty());
  EXPECT_GE(entries.back().wall_us, 1);
  EXPECT_GT(entries.back().seq, entries.front().seq);

  const std::string json = db.StatsJson();
  EXPECT_NE(json.find("SELECT SUM(w) FROM m WHERE v > 2"), std::string::npos)
      << json;
}

TEST_F(ObsEngineTest, SlowQueryLogOffByDefault) {
  engine::Database db(Profile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);
  EXPECT_EQ(db.slow_query_log().total_recorded(), 0u);
}

TEST_F(ObsEngineTest, InterpreterFallbackTraceIsCleanAndEmitMatches) {
  engine::Database db(Profile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);
  s->set_trace_level(1);

  // The replica runs the subquery and builds the join, then refuses the
  // mixed-type CASE (INT v vs DOUBLE w) at run time; the statement re-runs
  // on the row store. The trace must describe only that execution.
  auto rs = s->Execute(
      "SELECT a.k, CASE WHEN a.v > 3 THEN a.v ELSE b.w END FROM m a "
      "JOIN m b ON a.k = b.k WHERE a.v > (SELECT MIN(v) FROM m)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);
  const obs::QueryTrace& t = s->last_trace();
  EXPECT_EQ(t.route, "row/interpreter");
  EXPECT_EQ(t.emitted_rows(), static_cast<int64_t>(rs->rows.size()));
  int subqueries = 0;
  for (const obs::TraceOp& op : t.ops) {
    EXPECT_NE(op.op, "join-build");  // no leftovers from the aborted attempt
    subqueries += op.op == "subquery" ? 1 : 0;
  }
  EXPECT_EQ(subqueries, 1);  // the row store's own run of the subquery
  EXPECT_EQ(db.metrics().Snapshot().counters.at(
                "router.replica_unsupported_to_row"),
            1);
}

TEST_F(ObsEngineTest, SubqueriesAreTracedBeforeTheScan) {
  engine::Database db(Profile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  RunMixedWorkload(db, *s);
  auto members = s->Execute("SELECT COUNT(*) FROM m WHERE v = 3");
  ASSERT_TRUE(members.ok());

  // Each uncorrelated subquery runs before the statement pins a table and
  // appears as its own "subquery" op with its result rows and wall time.
  const std::string q =
      "SELECT COUNT(*) FROM m WHERE v > (SELECT AVG(v) FROM m) "
      "AND k IN (SELECT k FROM m WHERE v = 3)";
  auto explained = s->Execute("EXPLAIN ANALYZE " + q);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
  const obs::QueryTrace& t = s->last_trace();
  EXPECT_EQ(t.route, "column/vectorized");
  ASSERT_GE(t.ops.size(), 3u);
  EXPECT_EQ(t.ops[0].op, "subquery");
  EXPECT_EQ(t.ops[0].rows_out, 1);
  EXPECT_GE(t.ops[0].wall_us, 0);
  EXPECT_EQ(t.ops[1].op, "subquery");
  EXPECT_EQ(t.ops[1].rows_out, members->rows[0][0].AsInt());
  EXPECT_GE(t.ops[1].wall_us, 0);
  EXPECT_EQ(t.ops[2].op, "scan");
  std::string all;
  for (const Row& r : explained->rows) all += r[0].AsString() + "\n";
  EXPECT_NE(all.find("subquery"), std::string::npos) << all;

  // Tracing changes no result.
  s->set_trace_level(0);
  auto plain = s->Execute(q);
  ASSERT_TRUE(plain.ok());
  s->set_trace_level(1);
  auto traced = s->Execute(q);
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(Stringify(*traced), Stringify(*plain));
}

}  // namespace
}  // namespace olxp
