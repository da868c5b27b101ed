#include <gtest/gtest.h>

#include <string>

#include "engine/database.h"
#include "engine/session.h"

namespace olxp::engine {
namespace {

EngineProfile NoRowOlap(EngineProfile p) {
  p.olap_row_fraction = 0.0;  // deterministic routing in tests
  return p;
}

TEST(Profile, PresetsAndLookup) {
  EXPECT_EQ(EngineProfile::MemSqlLike().architecture,
            StoreArchitecture::kUnified);
  EXPECT_EQ(EngineProfile::TiDbLike().architecture,
            StoreArchitecture::kSeparated);
  EXPECT_EQ(EngineProfile::TiDbLike().isolation,
            txn::IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(EngineProfile::MemSqlLike().isolation,
            txn::IsolationLevel::kReadCommitted);
  EXPECT_FALSE(EngineProfile::MemSqlLike().enforce_foreign_keys);
  ASSERT_TRUE(EngineProfile::ByName("tidb").ok());
  ASSERT_TRUE(EngineProfile::ByName("MEMSQL-LIKE").ok());
  ASSERT_TRUE(EngineProfile::ByName("oceanbase").ok());
  EXPECT_FALSE(EngineProfile::ByName("oracle").ok());
}

TEST(ClusterModel, ScalingFactors) {
  ClusterModel m;
  m.commit_scale_per_doubling = 0.5;
  m.read_scale_per_doubling = 0.25;
  m.num_nodes = 4;
  EXPECT_DOUBLE_EQ(m.CommitFactor(), 1.0);
  m.num_nodes = 8;
  EXPECT_DOUBLE_EQ(m.CommitFactor(), 1.5);
  EXPECT_DOUBLE_EQ(m.ReadFactor(), 1.25);
  m.num_nodes = 16;
  EXPECT_DOUBLE_EQ(m.CommitFactor(), 2.0);
}

TEST(Session, RoutingRules) {
  Database db(NoRowOlap(EngineProfile::TiDbLike()));
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1, 2), (3, 4)").ok());
  db.WaitReplicaCaughtUp();

  // Point read stays on the row store even standalone.
  ASSERT_TRUE(s->Execute("SELECT b FROM t WHERE a = 1").ok());
  EXPECT_EQ(s->last_route(), RoutedStore::kRowStore);
  // Analytical standalone SELECT routes to the replica.
  ASSERT_TRUE(s->Execute("SELECT SUM(b) FROM t").ok());
  EXPECT_EQ(s->last_route(), RoutedStore::kColumnStore);
  // Inside a transaction everything pins to the row store.
  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Execute("SELECT SUM(b) FROM t").ok());
  EXPECT_EQ(s->last_route(), RoutedStore::kRowStore);
  ASSERT_TRUE(s->Commit().ok());
  // Writes always row store.
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (5, 6)").ok());
  EXPECT_EQ(s->last_route(), RoutedStore::kRowStore);
}

TEST(Session, StochasticRoutingRepeatsAcrossDatabases) {
  // The olap_row_fraction draw is seeded by the session's ordinal within
  // its Database, not by its address: two live Databases and sessions (so
  // every object sits at a different address) given the same statement
  // stream route it the same way, statement for statement.
  EngineProfile p = EngineProfile::TiDbLike();  // olap_row_fraction 0.65
  p.replication_lag_micros = 0;
  Database db1(p);
  Database db2(p);
  auto s1 = db1.CreateSession();
  auto s2 = db2.CreateSession();
  auto routes = [](Database& db, Session* s) {
    s->set_charging_enabled(false);
    EXPECT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
    EXPECT_TRUE(s->Execute("INSERT INTO t VALUES (1, 2), (3, 4)").ok());
    db.WaitReplicaCaughtUp();
    std::string seq;
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE(s->Execute("SELECT SUM(b) FROM t").ok());
      seq += s->last_route() == RoutedStore::kColumnStore ? 'c' : 'r';
    }
    return seq;
  };
  const std::string first = routes(db1, s1.get());
  EXPECT_EQ(routes(db2, s2.get()), first);
  // Both stores serve some of the stream: the draw is really in play.
  EXPECT_NE(first.find('c'), std::string::npos) << first;
  EXPECT_NE(first.find('r'), std::string::npos) << first;
}

TEST(Session, PreparedCacheEvictsLeastRecentlyUsed) {
  EngineProfile p = EngineProfile::MemSqlLike();
  p.prepared_statement_cache_capacity = 8;
  Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1, 2)").ok());

  // Ad-hoc SQL with inlined literals: without the LRU bound the cache
  // grows by one entry per distinct text for the session's lifetime.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        s->Execute("SELECT b FROM t WHERE a = " + std::to_string(i)).ok());
  }
  EXPECT_LE(s->prepared_cache_size(), 8u);

  // A hot statement re-executed between fillers stays cached (MRU) and the
  // cache stays bounded.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(s->Execute("SELECT COUNT(*) FROM t").ok());
    ASSERT_TRUE(
        s->Execute("SELECT b FROM t WHERE a = " + std::to_string(1000 + i))
            .ok());
  }
  EXPECT_LE(s->prepared_cache_size(), 8u);
  auto rs = s->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
}

TEST(Session, PreparedCacheUnboundedWhenCapacityZero) {
  EngineProfile p = EngineProfile::MemSqlLike();
  p.prepared_statement_cache_capacity = 0;
  Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        s->Execute("SELECT a FROM t WHERE a = " + std::to_string(i)).ok());
  }
  EXPECT_GE(s->prepared_cache_size(), 40u);
}

TEST(Session, PreparedStatementsRebindAfterDdl) {
  // Regression: a plan prepared before CREATE INDEX stayed cached with its
  // stale PlanShape, so the router kept costing the statement as a full
  // scan (and the executor kept the full-scan access path) forever. The
  // schema-version stamp must force a recompile on the next cache hit.
  EngineProfile p = NoRowOlap(EngineProfile::TiDbLike());
  p.cost_based_routing = true;
  Database db(p);
  db.set_exec_threads(1);  // serial cost crossover, deterministic routing
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(
      s->Execute("CREATE TABLE d (k INT PRIMARY KEY, tag INT, v INT)").ok());
  for (int k = 0; k < 2000; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO d VALUES (?, ?, ?)",
                           {Value::Int(k), Value::Int(k % 100),
                            Value::Int(k)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();

  // Warm the cache: without an index this selective filter is a full scan,
  // so the router sends it to the replica.
  const std::string q = "SELECT SUM(v) FROM d WHERE tag = 42";
  ASSERT_TRUE(s->Execute(q).ok());
  EXPECT_EQ(s->last_route(), RoutedStore::kColumnStore);
  const size_t cached = s->prepared_cache_size();

  ASSERT_TRUE(s->Execute("CREATE INDEX d_tag ON d (tag)").ok());

  // Same SQL text: the cache hit must notice the schema-version bump,
  // recompile against the index, and route the now-indexed shape to the
  // row store (stale shape would have kept it on the replica).
  auto rs = s->Execute(q);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(s->last_route(), RoutedStore::kRowStore);
  int64_t expect = 0;
  for (int k = 42; k < 2000; k += 100) expect += k;
  EXPECT_EQ(rs->rows[0][0].AsInt(), expect);
  // Re-prepared in place, not duplicated.
  EXPECT_EQ(s->prepared_cache_size(), cached + 1);  // + the CREATE INDEX
}

TEST(Session, UnifiedArchitectureNeverRoutesToReplica) {
  Database db(EngineProfile::MemSqlLike());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1, 2)").ok());
  ASSERT_TRUE(s->Execute("SELECT SUM(b) FROM t").ok());
  EXPECT_EQ(s->last_route(), RoutedStore::kRowStore);
}

TEST(Session, ReplicaFreshnessLagIsObservable) {
  EngineProfile p = NoRowOlap(EngineProfile::TiDbLike());
  p.replication_lag_micros = 300000;  // 300 ms
  Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1, 10)").ok());
  db.WaitReplicaCaughtUp();
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (2, 20)").ok());

  // Replica still serves the pre-insert snapshot.
  auto stale = s->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(s->last_route(), RoutedStore::kColumnStore);
  EXPECT_EQ(stale->rows[0][0].AsInt(), 1);
  // The row store (inside a txn) sees fresh data.
  ASSERT_TRUE(s->Begin().ok());
  auto fresh = s->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows[0][0].AsInt(), 2);
  ASSERT_TRUE(s->Commit().ok());
  // After catch-up the replica converges.
  db.WaitReplicaCaughtUp();
  auto conv = s->Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(conv->rows[0][0].AsInt(), 2);
}

TEST(Session, ForeignKeyEnforcementPerProfile) {
  const char* ddl_parent = "CREATE TABLE p (id INT PRIMARY KEY)";
  const char* ddl_child =
      "CREATE TABLE c (id INT PRIMARY KEY, pid INT, "
      "FOREIGN KEY (pid) REFERENCES p (id))";
  {
    Database db(EngineProfile::TiDbLike());  // enforces FKs
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    ASSERT_TRUE(s->Execute(ddl_parent).ok());
    ASSERT_TRUE(s->Execute(ddl_child).ok());
    ASSERT_TRUE(s->Execute("INSERT INTO p VALUES (1)").ok());
    EXPECT_TRUE(s->Execute("INSERT INTO c VALUES (10, 1)").ok());
    auto bad = s->Execute("INSERT INTO c VALUES (11, 99)");
    EXPECT_FALSE(bad.ok());
    // NULL FK passes.
    EXPECT_TRUE(s->Execute("INSERT INTO c VALUES (12, NULL)").ok());
  }
  {
    Database db(EngineProfile::MemSqlLike());  // FKs are metadata only
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    ASSERT_TRUE(s->Execute(ddl_parent).ok());
    ASSERT_TRUE(s->Execute(ddl_child).ok());
    EXPECT_TRUE(s->Execute("INSERT INTO c VALUES (11, 99)").ok());
  }
}

TEST(Session, FailedStatementAbortsTransaction) {
  Database db(EngineProfile::MemSqlLike());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  ASSERT_TRUE(s->Begin().ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(s->Execute("INSERT INTO t VALUES (1)").ok());  // duplicate
  EXPECT_FALSE(s->InTransaction());  // auto-aborted
  EXPECT_TRUE(s->Rollback().ok());   // idempotent no-op
  auto rs = s->Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs->rows[0][0].AsInt(), 0);  // nothing survived
}

TEST(Session, TransactionControlErrors) {
  Database db(EngineProfile::MemSqlLike());
  auto s = db.CreateSession();
  EXPECT_FALSE(s->Commit().ok());  // no open txn
  ASSERT_TRUE(s->Begin().ok());
  EXPECT_FALSE(s->Begin().ok());  // nested
  EXPECT_TRUE(s->Rollback().ok());
}

TEST(Session, ChargingAccumulatesAndScalesWithCluster) {
  EngineProfile p = EngineProfile::TiDbLike();
  p.olap_row_fraction = 0.0;
  Database db(p);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);  // account but do not sleep
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                           {Value::Int(i), Value::Int(i)})
                    .ok());
  }
  int64_t c4 = s->charged_micros();
  EXPECT_GT(c4, 0);

  db.set_cluster_nodes(16);
  auto s2 = db.CreateSession();
  s2->set_charging_enabled(false);
  for (int i = 100; i < 150; ++i) {
    ASSERT_TRUE(s2->Execute("INSERT INTO t VALUES (?, ?)",
                            {Value::Int(i), Value::Int(i)})
                    .ok());
  }
  // Same work on a 16-node cluster must charge measurably more.
  EXPECT_GT(s2->charged_micros(), c4);
}

TEST(Session, PreparedStatementCacheReuse) {
  Database db(EngineProfile::MemSqlLike());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  // Same text many times with different params exercises the cache.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                           {Value::Int(i), Value::Int(i * 2)})
                    .ok());
  }
  auto rs = s->Execute("SELECT SUM(b) FROM t");
  EXPECT_EQ(rs->rows[0][0].AsInt(), 9900);
}

}  // namespace
}  // namespace olxp::engine
