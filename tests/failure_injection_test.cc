#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/clock.h"
#include "engine/database.h"
#include "engine/session.h"
#include "storage/replicator.h"

namespace olxp {
namespace {

storage::TableSchema KvSchema() {
  return storage::TableSchema(
      "kv", {{"k", ValueType::kInt, false}, {"v", ValueType::kInt, true}},
      {0});
}

storage::CommitRecord MakeCommit(uint64_t ts, int64_t k, int64_t v) {
  storage::CommitRecord rec;
  rec.commit_ts = ts;
  rec.commit_wall_us = NowMicros();
  storage::LogOp op;
  op.kind = storage::LogOp::Kind::kUpsert;
  op.table_id = 0;
  op.pk = {Value::Int(k)};
  op.data = {Value::Int(k), Value::Int(v)};
  rec.ops.push_back(op);
  return rec;
}

/// Stopping the replicator mid-stream and restarting it must resume from
/// the trimmed position without losing or re-applying records.
TEST(FailureInjection, ReplicatorStopResumeLosesNothing) {
  storage::ColumnStore cols;
  storage::CommitLog log;
  cols.AddTable(0, KvSchema());
  obs::MetricsRegistry metrics;
  storage::Replicator rep(&log, &cols, metrics,
                          /*lag_micros=*/0, /*poll_micros=*/100);
  rep.Start();

  for (uint64_t ts = 1; ts <= 50; ++ts) {
    log.Append(MakeCommit(ts, static_cast<int64_t>(ts), 1));
  }
  rep.CatchUp();
  EXPECT_EQ(cols.replicated_ts(), 50u);
  rep.Stop();  // crash the shipping pipeline

  // More commits land while shipping is down.
  for (uint64_t ts = 51; ts <= 80; ++ts) {
    log.Append(MakeCommit(ts, static_cast<int64_t>(ts), 1));
  }
  EXPECT_EQ(cols.replicated_ts(), 50u);

  rep.Start();  // recovery
  rep.CatchUp();
  EXPECT_EQ(cols.replicated_ts(), 80u);
  EXPECT_EQ(cols.table(0)->LiveRowCount(), 80u);
  rep.Stop();
}

/// Concurrent producers appending to the log while the replicator ships:
/// the replica converges to exactly one live row per key with the newest
/// value per key (commit order preserved).
TEST(FailureInjection, ConcurrentAppendAndShipConverges) {
  storage::ColumnStore cols;
  storage::CommitLog log;
  cols.AddTable(0, KvSchema());
  obs::MetricsRegistry metrics;
  storage::Replicator rep(&log, &cols, metrics,
                          /*lag_micros=*/0, /*poll_micros=*/50);
  rep.Start();

  std::atomic<uint64_t> next_ts{0};
  std::mutex order_mu;  // commit order must match ts order in the log
  std::vector<std::thread> producers;
  constexpr int kKeys = 32;
  constexpr int kWritesPerThread = 400;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        std::lock_guard<std::mutex> lk(order_mu);
        uint64_t ts = ++next_ts;
        log.Append(MakeCommit(ts, (t * kWritesPerThread + i) % kKeys,
                              static_cast<int64_t>(ts)));
      }
    });
  }
  for (auto& p : producers) p.join();
  rep.CatchUp();
  EXPECT_EQ(cols.replicated_ts(), next_ts.load());
  EXPECT_EQ(cols.table(0)->LiveRowCount(), static_cast<size_t>(kKeys));
  rep.Stop();
}

/// A session whose statement fails mid-transaction leaves the engine in a
/// reusable state: the next transaction on the same session succeeds and
/// all row locks are free for other sessions.
TEST(FailureInjection, SessionRecoversAfterMidTxnFailure) {
  engine::Database db(engine::EngineProfile::TiDbLike());
  auto s1 = db.CreateSession();
  auto s2 = db.CreateSession();
  s1->set_charging_enabled(false);
  s2->set_charging_enabled(false);
  ASSERT_TRUE(s1->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(s1->Execute("INSERT INTO t VALUES (1, 10)").ok());

  ASSERT_TRUE(s1->Begin().ok());
  ASSERT_TRUE(s1->Execute("UPDATE t SET b = 11 WHERE a = 1").ok());
  EXPECT_FALSE(s1->Execute("INSERT INTO t VALUES (1, 0)").ok());  // dup
  EXPECT_FALSE(s1->InTransaction());

  // s2 can lock the row immediately (s1's failed txn released it).
  ASSERT_TRUE(s2->Begin().ok());
  EXPECT_TRUE(s2->Execute("UPDATE t SET b = 12 WHERE a = 1").ok());
  ASSERT_TRUE(s2->Commit().ok());

  // s1 continues normally.
  auto rs = s1->Execute("SELECT b FROM t WHERE a = 1");
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(s1->Begin().ok());
  auto fresh = s1->Execute("SELECT b FROM t WHERE a = 1");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows[0][0].AsInt(), 12);
  ASSERT_TRUE(s1->Commit().ok());
}

/// Lock-timeout storms (many writers on one row with a tiny deadline) must
/// degrade into retryable errors, never corrupt state or deadlock the
/// process.
TEST(FailureInjection, LockTimeoutStormStaysConsistent) {
  engine::EngineProfile p = engine::EngineProfile::TiDbLike();
  p.lock_timeout_micros = 500;  // aggressive deadline
  engine::Database db(p);
  {
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    ASSERT_TRUE(s->Execute("CREATE TABLE c (a INT PRIMARY KEY, n INT)").ok());
    ASSERT_TRUE(s->Execute("INSERT INTO c VALUES (1, 0)").ok());
  }
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto s = db.CreateSession();
      s->set_charging_enabled(false);
      for (int i = 0; i < 50; ++i) {
        while (true) {
          auto rs = s->Execute("UPDATE c SET n = n + 1 WHERE a = 1");
          if (rs.ok()) {
            committed.fetch_add(1);
            break;
          }
          if (!rs.status().IsRetryable()) {
            ADD_FAILURE() << rs.status().ToString();
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Begin().ok());
  auto n = s->Execute("SELECT n FROM c WHERE a = 1");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows[0][0].AsInt(), committed.load());
  EXPECT_EQ(committed.load(), 400);
  ASSERT_TRUE(s->Commit().ok());
}

}  // namespace
}  // namespace olxp
