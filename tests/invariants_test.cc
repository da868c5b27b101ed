#include <gtest/gtest.h>

#include "benchfw/driver.h"
#include "benchmarks/fibench/fibench.h"
#include "benchmarks/subench/subench.h"
#include "benchmarks/tabench/tabench.h"

namespace olxp {
namespace {

using benchfw::AgentConfig;
using benchfw::AgentKind;
using benchfw::BenchmarkSuite;
using benchfw::LoadParams;
using benchfw::RunConfig;

LoadParams SmallParams() {
  LoadParams p;
  p.scale = 1;
  p.items = 300;
  p.load_threads = 4;
  return p;
}

RunConfig ShortRun() {
  RunConfig cfg;
  cfg.warmup_seconds = 0.05;
  cfg.measure_seconds = 0.8;
  return cfg;
}

/// Runs a concurrent mixed load (OLTP + OLAP + hybrid agents) against a
/// suite and returns a fresh session for invariant auditing.
std::unique_ptr<engine::Session> RunMixedLoad(engine::Database& db,
                                              const BenchmarkSuite& suite) {
  AgentConfig oltp;
  oltp.kind = AgentKind::kOltp;
  oltp.request_rate = -1;  // closed loop: maximum churn
  oltp.threads = 6;
  AgentConfig hybrid;
  hybrid.kind = AgentKind::kHybrid;
  hybrid.request_rate = -1;
  hybrid.threads = 3;
  AgentConfig olap;
  olap.kind = AgentKind::kOlap;
  olap.request_rate = 4;
  olap.threads = 2;
  EXPECT_TRUE(benchfw::RunCell(db, suite, {oltp, hybrid, olap}, ShortRun())
                  .ok());
  db.WaitReplicaCaughtUp();
  auto session = db.CreateSession();
  session->set_charging_enabled(false);
  return session;
}

class SubenchInvariants
    : public ::testing::TestWithParam<const char*> {};

/// TPC-C consistency conditions survive a concurrent mixed HTAP load on
/// every engine profile. These are the spec's conditions 1-3 adapted to
/// the subenchmark schema.
TEST_P(SubenchInvariants, TpccConsistencyAfterMixedLoad) {
  auto profile = engine::EngineProfile::ByName(GetParam());
  ASSERT_TRUE(profile.ok());
  BenchmarkSuite suite = benchmarks::MakeSubenchmark(SmallParams());
  engine::Database db(*profile);
  ASSERT_TRUE(benchfw::SetUp(db, suite).ok());
  auto s = RunMixedLoad(db, suite);
  ASSERT_TRUE(s->Begin().ok());  // row-store snapshot for the audit

  // Condition 1: W_YTD == SUM(D_YTD) per warehouse. Payment updates both
  // sides; a torn commit or lost update breaks the equality.
  auto w = s->Execute("SELECT w_id, w_ytd FROM warehouse ORDER BY w_id");
  ASSERT_TRUE(w.ok());
  ASSERT_FALSE(w->rows.empty());
  for (const Row& row : w->rows) {
    auto d = s->Execute("SELECT SUM(d_ytd) FROM district WHERE d_w_id = ?",
                        {row[0]});
    ASSERT_TRUE(d.ok());
    EXPECT_NEAR(row[1].AsDouble(), d->rows[0][0].AsDouble(), 0.01)
        << "warehouse " << row[0].ToString();
  }

  // Condition 2: per district, d_next_o_id - 1 == MAX(o_id) == MAX(no_o_id
  // upper bound). NewOrder increments the counter and inserts the order in
  // one transaction.
  auto districts = s->Execute(
      "SELECT d_w_id, d_id, d_next_o_id FROM district");
  ASSERT_TRUE(districts.ok());
  for (const Row& d : districts->rows) {
    auto mx = s->Execute(
        "SELECT MAX(o_id) FROM orders WHERE o_w_id = ? AND o_d_id = ?",
        {d[0], d[1]});
    ASSERT_TRUE(mx.ok());
    ASSERT_FALSE(mx->rows[0][0].is_null());
    EXPECT_EQ(d[2].AsInt() - 1, mx->rows[0][0].AsInt())
        << "district (" << d[0].ToString() << "," << d[1].ToString() << ")";
  }

  // Condition 3: every undelivered order (NEW_ORDER row) has a matching
  // ORDERS row with NULL carrier.
  auto orphan = s->Execute(
      "SELECT COUNT(*) FROM new_order no, orders o WHERE "
      "o.o_w_id = no.no_w_id AND o.o_d_id = no.no_d_id AND "
      "o.o_id = no.no_o_id AND o.o_carrier_id IS NOT NULL");
  ASSERT_TRUE(orphan.ok());
  EXPECT_EQ(orphan->rows[0][0].AsInt(), 0);

  // Order lines match o_ol_cnt for a sample of orders.
  auto sample = s->Execute(
      "SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM orders "
      "ORDER BY o_entry_d DESC LIMIT 20");
  ASSERT_TRUE(sample.ok());
  for (const Row& o : sample->rows) {
    auto cnt = s->Execute(
        "SELECT COUNT(*) FROM order_line WHERE ol_w_id = ? AND "
        "ol_d_id = ? AND ol_o_id = ?",
        {o[0], o[1], o[2]});
    ASSERT_TRUE(cnt.ok());
    EXPECT_EQ(cnt->rows[0][0].AsInt(), o[3].AsInt());
  }
  ASSERT_TRUE(s->Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(Profiles, SubenchInvariants,
                         ::testing::Values("memsql-like", "tidb-like",
                                           "oceanbase-like"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

/// Banking conservation: fibench's OLTP+hybrid mix moves money between
/// accounts but never creates or destroys it (aside from DepositChecking,
/// WriteCheck, TransactSavings and the hybrids' explicit injections —
/// so we restrict the mix to the pure-transfer transactions).
TEST(FibenchInvariants, TransfersConserveTotalUnderConcurrency) {
  BenchmarkSuite suite = benchmarks::MakeFibenchmark(SmallParams());
  engine::Database db(engine::EngineProfile::TiDbLike());
  ASSERT_TRUE(benchfw::SetUp(db, suite).ok());

  AgentConfig oltp;
  oltp.kind = AgentKind::kOltp;
  oltp.request_rate = -1;
  oltp.threads = 8;
  // Amalgamate + Balance + SendPayment only (pure moves/reads).
  oltp.weight_override = {1, 1, 0, 1, 0, 0};
  ASSERT_TRUE(benchfw::RunCell(db, suite, {oltp}, ShortRun()).ok());

  db.WaitReplicaCaughtUp();
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  auto total = s->Execute(
      "SELECT SUM(sv.bal) + SUM(ck.bal) FROM saving sv JOIN checking ck "
      "ON ck.custid = sv.custid");
  ASSERT_TRUE(total.ok());
  EXPECT_NEAR(total->rows[0][0].AsDouble(), 1000 * 2000.0, 0.5);
}

/// Replica convergence: after any mixed load, draining replication makes
/// the columnar replica agree with the row store on every table count.
TEST(ReplicaInvariants, ConvergesToRowStoreAfterMixedLoad) {
  BenchmarkSuite suite = benchmarks::MakeTabenchmark(SmallParams());
  engine::Database db(engine::EngineProfile::TiDbLike());
  ASSERT_TRUE(benchfw::SetUp(db, suite).ok());
  auto s = RunMixedLoad(db, suite);

  for (const char* table :
       {"subscriber", "access_info", "special_facility", "call_forwarding"}) {
    // Row-store truth (inside a transaction pins to the row store).
    ASSERT_TRUE(s->Begin().ok());
    auto row_cnt =
        s->Execute("SELECT COUNT(*) FROM " + std::string(table));
    ASSERT_TRUE(row_cnt.ok());
    ASSERT_TRUE(s->Commit().ok());
    // Replica count via the column store directly.
    auto tid = db.TableId(table);
    ASSERT_TRUE(tid.ok());
    const storage::ColumnTable* replica = db.column_store().table(*tid);
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(static_cast<int64_t>(replica->LiveRowCount()),
              row_cnt->rows[0][0].AsInt())
        << table;
  }
}

/// A vacuum pass between cells never changes query results.
TEST(PruneInvariants, PruningPreservesLatestState) {
  BenchmarkSuite suite = benchmarks::MakeFibenchmark(SmallParams());
  engine::Database db(engine::EngineProfile::MemSqlLike());
  ASSERT_TRUE(benchfw::SetUp(db, suite).ok());
  auto s = RunMixedLoad(db, suite);

  auto before = s->Execute("SELECT SUM(bal), COUNT(*) FROM checking");
  ASSERT_TRUE(before.ok());
  db.RunVacuum();
  auto after = s->Execute("SELECT SUM(bal), COUNT(*) FROM checking");
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(before->rows[0][0].AsDouble(),
                   after->rows[0][0].AsDouble());
  EXPECT_EQ(before->rows[0][1].AsInt(), after->rows[0][1].AsInt());
}

}  // namespace
}  // namespace olxp
