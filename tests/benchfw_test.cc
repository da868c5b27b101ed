#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "benchfw/driver.h"

#include "common/clock.h"
#include "benchfw/report.h"
#include "benchmarks/fibench/fibench.h"

namespace olxp::benchfw {
namespace {

TEST(Workload, PickWeightedDistribution) {
  std::vector<TxnProfile> profiles;
  profiles.push_back({"a", 80, false, nullptr});
  profiles.push_back({"b", 15, false, nullptr});
  profiles.push_back({"c", 5, false, nullptr});
  Rng rng(1);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) counts[PickWeighted(profiles, rng)]++;
  EXPECT_NEAR(counts[0] / 20000.0, 0.80, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.15, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.05, 0.02);
}

TEST(Workload, ReadOnlyShare) {
  BenchmarkSuite suite;
  suite.transactions = {{"w", 85, false, nullptr}, {"r", 15, true, nullptr}};
  EXPECT_NEAR(suite.ReadOnlyShare(AgentKind::kOltp), 0.15, 1e-9);
  EXPECT_EQ(suite.ReadOnlyShare(AgentKind::kOlap), 0.0);  // empty class
}

/// Minimal synthetic suite: bodies count invocations and sleep briefly.
BenchmarkSuite CountingSuite(std::atomic<int64_t>* oltp_count,
                             std::atomic<int64_t>* olap_count) {
  BenchmarkSuite suite;
  suite.name = "counting";
  suite.create_schema = [](engine::Session&) { return Status::OK(); };
  suite.load = [](engine::Database&, const LoadParams&) {
    return Status::OK();
  };
  suite.transactions.push_back(
      {"tick", 1, false, [oltp_count](engine::Session&, Rng&) {
         oltp_count->fetch_add(1);
         SleepMicros(200);
         return Status::OK();
       }});
  suite.queries.push_back(
      {"query", 1, true, [olap_count](engine::Session&, Rng&) {
         olap_count->fetch_add(1);
         SleepMicros(500);
         return Status::OK();
       }});
  return suite;
}

TEST(Driver, OpenLoopHitsRequestedRate) {
  std::atomic<int64_t> oltp{0}, olap{0};
  BenchmarkSuite suite = CountingSuite(&oltp, &olap);
  engine::Database db(engine::EngineProfile::MemSqlLike());

  AgentConfig agent;
  agent.kind = AgentKind::kOltp;
  agent.request_rate = 200;
  agent.threads = 4;
  RunConfig cfg;
  cfg.warmup_seconds = 0.1;
  cfg.measure_seconds = 1.0;
  RunResult result = *RunCell(db, suite, {agent}, cfg);

  const KindStats& k = result.Of(AgentKind::kOltp);
  EXPECT_NEAR(k.Throughput(result.measure_seconds), 200, 30);
  EXPECT_EQ(k.errors, 0u);
  EXPECT_GT(k.latency.Mean(), 0);
}

TEST(Driver, ClosedLoopSaturates) {
  std::atomic<int64_t> oltp{0}, olap{0};
  BenchmarkSuite suite = CountingSuite(&oltp, &olap);
  engine::Database db(engine::EngineProfile::MemSqlLike());

  AgentConfig agent;
  agent.kind = AgentKind::kOltp;
  agent.request_rate = -1;  // closed loop
  agent.threads = 4;
  RunConfig cfg;
  cfg.warmup_seconds = 0.05;
  cfg.measure_seconds = 0.5;
  RunResult result = *RunCell(db, suite, {agent}, cfg);
  // 4 threads x ~200us per op => ~20k/s; allow a broad band.
  EXPECT_GT(result.Of(AgentKind::kOltp).Throughput(result.measure_seconds),
            4000);
}

TEST(Driver, MixedAgentClassesReportSeparately) {
  std::atomic<int64_t> oltp{0}, olap{0};
  BenchmarkSuite suite = CountingSuite(&oltp, &olap);
  engine::Database db(engine::EngineProfile::MemSqlLike());

  AgentConfig a1;
  a1.kind = AgentKind::kOltp;
  a1.request_rate = 100;
  a1.threads = 2;
  AgentConfig a2;
  a2.kind = AgentKind::kOlap;
  a2.request_rate = 20;
  a2.threads = 2;
  RunConfig cfg;
  cfg.warmup_seconds = 0.05;
  cfg.measure_seconds = 0.6;
  RunResult result = *RunCell(db, suite, {a1, a2}, cfg);
  EXPECT_NEAR(result.Of(AgentKind::kOltp).Throughput(result.measure_seconds),
              100, 25);
  EXPECT_NEAR(result.Of(AgentKind::kOlap).Throughput(result.measure_seconds),
              20, 8);
}

TEST(Driver, RetryableFailuresAreRetried) {
  BenchmarkSuite suite;
  suite.create_schema = [](engine::Session&) { return Status::OK(); };
  suite.load = [](engine::Database&, const LoadParams&) {
    return Status::OK();
  };
  std::atomic<int> attempts{0};
  suite.transactions.push_back(
      {"flaky", 1, false, [&attempts](engine::Session&, Rng&) {
         // Fail the first attempt of every request, succeed on retry.
         return attempts.fetch_add(1) % 2 == 0
                    ? Status::Conflict("induced")
                    : Status::OK();
       }});
  engine::Database db(engine::EngineProfile::MemSqlLike());
  AgentConfig agent;
  agent.kind = AgentKind::kOltp;
  agent.request_rate = 100;
  agent.threads = 2;
  RunConfig cfg;
  cfg.warmup_seconds = 0.05;
  cfg.measure_seconds = 0.5;
  RunResult result = *RunCell(db, suite, {agent}, cfg);
  const KindStats& k = result.Of(AgentKind::kOltp);
  EXPECT_GT(k.retries, 0u);
  EXPECT_EQ(k.errors, 0u);
  EXPECT_GT(k.committed, 0u);
}

TEST(Driver, NonRetryableFailuresCountAsErrors) {
  BenchmarkSuite suite;
  suite.create_schema = [](engine::Session&) { return Status::OK(); };
  suite.load = [](engine::Database&, const LoadParams&) {
    return Status::OK();
  };
  suite.transactions.push_back({"failing", 1, false,
                                [](engine::Session&, Rng&) {
                                  return Status::Aborted("app abort");
                                }});
  engine::Database db(engine::EngineProfile::MemSqlLike());
  AgentConfig agent;
  agent.kind = AgentKind::kOltp;
  agent.request_rate = 50;
  agent.threads = 1;
  RunConfig cfg;
  cfg.warmup_seconds = 0.05;
  cfg.measure_seconds = 0.4;
  RunResult result = *RunCell(db, suite, {agent}, cfg);
  const KindStats& k = result.Of(AgentKind::kOltp);
  EXPECT_GT(k.errors, 0u);
  EXPECT_EQ(k.committed, 0u);
  EXPECT_EQ(k.retries, 0u);
}

TEST(Driver, LockWaitEndingAfterTheWindowIsNotCounted) {
  // busy_nanos is clipped at the window's end, so the lock counters must be
  // read there too: a wait that ends after end_us (here a body still
  // running past the window) lands outside the Fig. 4 numerator.
  engine::EngineProfile profile = engine::EngineProfile::MemSqlLike();
  profile.lock_timeout_micros = 1000000;
  engine::Database db(profile);
  auto setup = db.CreateSession();
  setup->set_charging_enabled(false);
  ASSERT_TRUE(
      setup->Execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(setup->Execute("INSERT INTO kv VALUES (1, 0)").ok());

  auto holder = db.CreateSession();
  holder->set_charging_enabled(false);
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE kv SET v = 1 WHERE k = 1").ok());
  std::atomic<int64_t> body_start_us{0};
  std::thread releaser([&] {
    while (body_start_us.load() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    SleepMicros(body_start_us.load() + 170000 - NowMicros());
    EXPECT_TRUE(holder->Commit().ok());
  });

  BenchmarkSuite suite;
  suite.create_schema = [](engine::Session&) { return Status::OK(); };
  suite.load = [](engine::Database&, const LoadParams&) {
    return Status::OK();
  };
  suite.transactions.push_back(
      {"late_update", 1, false,
       [&body_start_us](engine::Session& s, Rng&) -> Status {
         s.set_charging_enabled(false);
         body_start_us = NowMicros();
         SleepMicros(150000);
         return s.Execute("UPDATE kv SET v = 2 WHERE k = 1").status();
       }});
  AgentConfig agent;
  agent.kind = AgentKind::kOltp;
  agent.request_rate = -1;  // closed loop: one body spans the window
  agent.threads = 1;
  RunConfig cfg;
  cfg.warmup_seconds = 0;
  cfg.measure_seconds = 0.1;
  RunResult result = *RunCell(db, suite, {agent}, cfg);
  releaser.join();

  // The body did wait ~20 ms for the lock, but only after the window.
  EXPECT_GT(db.metrics().GetCounter("lock.wait_ns")->Value(), 10000000);
  EXPECT_EQ(result.lock_wait_nanos, 0u);
  EXPECT_EQ(result.lock_acquisitions, 0u);
}

TEST(Driver, WeightOverrideRestrictsMix) {
  std::atomic<int64_t> first{0}, second{0};
  BenchmarkSuite suite;
  suite.create_schema = [](engine::Session&) { return Status::OK(); };
  suite.load = [](engine::Database&, const LoadParams&) {
    return Status::OK();
  };
  suite.transactions.push_back({"first", 1, false,
                                [&first](engine::Session&, Rng&) {
                                  first.fetch_add(1);
                                  return Status::OK();
                                }});
  suite.transactions.push_back({"second", 1, false,
                                [&second](engine::Session&, Rng&) {
                                  second.fetch_add(1);
                                  return Status::OK();
                                }});
  engine::Database db(engine::EngineProfile::MemSqlLike());
  AgentConfig agent;
  agent.kind = AgentKind::kOltp;
  agent.request_rate = 200;
  agent.threads = 2;
  agent.weight_override = {1, 0};  // only the first profile may fire
  RunConfig cfg;
  cfg.warmup_seconds = 0.05;
  cfg.measure_seconds = 0.4;
  RunResult result = *RunCell(db, suite, {agent}, cfg);
  EXPECT_GT(first.load(), 0);
  EXPECT_EQ(second.load(), 0);
  EXPECT_GT(result.Of(AgentKind::kOltp).committed, 0u);
}

/// Two-profile suite whose bodies must never run (validation-rejection
/// cells). The counters prove no thread was spawned before the error.
BenchmarkSuite TwoProfileSuite(std::atomic<int64_t>* calls) {
  BenchmarkSuite suite;
  suite.create_schema = [](engine::Session&) { return Status::OK(); };
  suite.load = [](engine::Database&, const LoadParams&) {
    return Status::OK();
  };
  for (const char* name : {"p0", "p1"}) {
    suite.transactions.push_back({name, 1, false,
                                  [calls](engine::Session&, Rng&) {
                                    calls->fetch_add(1);
                                    return Status::OK();
                                  }});
  }
  return suite;
}

TEST(Driver, WeightOverrideLengthMismatchRejected) {
  std::atomic<int64_t> calls{0};
  BenchmarkSuite suite = TwoProfileSuite(&calls);
  engine::Database db(engine::EngineProfile::MemSqlLike());
  AgentConfig agent;
  agent.kind = AgentKind::kOltp;
  agent.request_rate = -1;
  agent.threads = 2;
  RunConfig cfg;
  cfg.warmup_seconds = 0.01;
  cfg.measure_seconds = 0.05;

  agent.weight_override = {1.0};  // short: pick() would mis-sample
  auto short_result = RunCell(db, suite, {agent}, cfg);
  ASSERT_FALSE(short_result.ok());
  EXPECT_EQ(short_result.status().code(), StatusCode::kInvalidArgument);

  agent.weight_override = {1.0, 1.0, 1.0};  // long: reads out of bounds
  auto long_result = RunCell(db, suite, {agent}, cfg);
  ASSERT_FALSE(long_result.ok());
  EXPECT_EQ(long_result.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(calls.load(), 0);  // rejected before any worker spawned
}

TEST(Driver, WeightOverrideNonPositiveTotalRejected) {
  std::atomic<int64_t> calls{0};
  BenchmarkSuite suite = TwoProfileSuite(&calls);
  engine::Database db(engine::EngineProfile::MemSqlLike());
  AgentConfig agent;
  agent.kind = AgentKind::kOltp;
  agent.request_rate = -1;
  agent.threads = 1;
  RunConfig cfg;
  cfg.warmup_seconds = 0.01;
  cfg.measure_seconds = 0.05;

  agent.weight_override = {0.0, 0.0};
  auto zero_result = RunCell(db, suite, {agent}, cfg);
  ASSERT_FALSE(zero_result.ok());
  EXPECT_EQ(zero_result.status().code(), StatusCode::kInvalidArgument);

  agent.weight_override = {1.0, -1.0};
  auto negative_result = RunCell(db, suite, {agent}, cfg);
  ASSERT_FALSE(negative_result.ok());
  EXPECT_EQ(negative_result.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(calls.load(), 0);
}

TEST(Report, FormattingSmoke) {
  KindStats k;
  k.latency.Record(1500);
  k.committed = 10;
  std::string line = FormatKindStats(AgentKind::kOltp, k, 1.0);
  EXPECT_NE(line.find("OLTP"), std::string::npos);
  EXPECT_NE(line.find("tput"), std::string::npos);
  EXPECT_EQ(FigureRow("fig1", 2, "m", 3.5), "fig1,x=2.000,m=3.5000");
}

TEST(Driver, SetUpLoadsSuite) {
  using benchfw::SetUp;  // disambiguate from gtest SetUp
  benchfw::LoadParams p;
  p.scale = 1;
  BenchmarkSuite suite = benchmarks::MakeFibenchmark(p);
  engine::Database db(engine::EngineProfile::MemSqlLike());
  ASSERT_TRUE(benchfw::SetUp(db, suite).ok());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  auto rs = s->Execute("SELECT COUNT(*) FROM account");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1000);
}

}  // namespace
}  // namespace olxp::benchfw
