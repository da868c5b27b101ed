#include <gtest/gtest.h>

#include "benchfw/driver.h"
#include "benchmarks/chbench/chbench.h"
#include "benchmarks/fibench/fibench.h"
#include "benchmarks/subench/subench.h"
#include "benchmarks/tabench/tabench.h"

namespace olxp {
namespace {

using benchfw::BenchmarkSuite;
using benchfw::LoadParams;

LoadParams TinyParams() {
  LoadParams p;
  p.scale = 1;
  p.items = 200;
  p.load_threads = 4;
  return p;
}

struct SuiteCase {
  std::string label;
  std::function<BenchmarkSuite()> make;
  std::function<engine::EngineProfile()> profile;
};

class SuiteSmokeTest : public ::testing::TestWithParam<SuiteCase> {};

/// Every workload unit of every suite must run cleanly on a tiny load.
TEST_P(SuiteSmokeTest, AllWorkloadBodiesExecute) {
  const SuiteCase& tc = GetParam();
  BenchmarkSuite suite = tc.make();
  engine::Database db(tc.profile());
  ASSERT_TRUE(benchfw::SetUp(db, suite).ok());

  auto session = db.CreateSession();
  session->set_charging_enabled(false);
  Rng rng(7);
  for (auto kind : {benchfw::AgentKind::kOltp, benchfw::AgentKind::kOlap,
                    benchfw::AgentKind::kHybrid}) {
    for (const auto& profile : suite.ProfilesFor(kind)) {
      for (int rep = 0; rep < 5; ++rep) {
        Status st = profile.body(*session, rng);
        // Application-level aborts (forced rollback, insufficient funds,
        // duplicate insert) are expected in benchmark semantics; engine
        // errors are not.
        if (!st.ok()) {
          EXPECT_TRUE(st.code() == StatusCode::kAborted ||
                      st.IsRetryable())
              << suite.name << "/" << profile.name << ": " << st.ToString();
        }
        ASSERT_FALSE(session->InTransaction())
            << suite.name << "/" << profile.name
            << " left a transaction open";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, SuiteSmokeTest,
    ::testing::Values(
        SuiteCase{"subench_memsql",
                  [] { return benchmarks::MakeSubenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::MemSqlLike(); }},
        SuiteCase{"subench_tidb",
                  [] { return benchmarks::MakeSubenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::TiDbLike(); }},
        SuiteCase{"fibench_memsql",
                  [] { return benchmarks::MakeFibenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::MemSqlLike(); }},
        SuiteCase{"fibench_tidb",
                  [] { return benchmarks::MakeFibenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::TiDbLike(); }},
        SuiteCase{"tabench_memsql",
                  [] { return benchmarks::MakeTabenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::MemSqlLike(); }},
        SuiteCase{"tabench_tidb",
                  [] { return benchmarks::MakeTabenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::TiDbLike(); }},
        SuiteCase{"chbench_memsql",
                  [] { return benchmarks::MakeChBenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::MemSqlLike(); }},
        SuiteCase{"chbench_tidb",
                  [] { return benchmarks::MakeChBenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::TiDbLike(); }},
        SuiteCase{"subench_oceanbase",
                  [] { return benchmarks::MakeSubenchmark(TinyParams()); },
                  [] { return engine::EngineProfile::OceanBaseLike(); }}),
    [](const ::testing::TestParamInfo<SuiteCase>& info) {
      return info.param.label;
    });

/// Table II invariants: table/column/index counts and read-only shares.
TEST(TableTwo, WorkloadFeatureCounts) {
  struct Expect {
    std::function<BenchmarkSuite()> make;
    int tables, columns, indexes, txns, queries, hybrids;
    double ro_oltp, ro_hybrid;
  };
  const Expect cases[] = {
      {[] { return benchmarks::MakeSubenchmark(TinyParams()); }, 9, 92, 3, 5,
       9, 5, 0.08, 0.60},
      {[] { return benchmarks::MakeFibenchmark(TinyParams()); }, 3, 6, 4, 6,
       4, 6, 0.15, 0.20},
      {[] { return benchmarks::MakeTabenchmark(TinyParams()); }, 4, 51, 5, 7,
       5, 6, 0.80, 0.40},
  };
  for (const Expect& e : cases) {
    BenchmarkSuite suite = e.make();
    engine::Database db(engine::EngineProfile::MemSqlLike());
    auto session = db.CreateSession();
    session->set_charging_enabled(false);
    ASSERT_TRUE(suite.create_schema(*session).ok());
    int tables = db.row_store().num_tables();
    int columns = 0, indexes = 0;
    for (int id : db.row_store().TableIds()) {
      columns += db.GetSchema(id).num_columns();
      indexes += static_cast<int>(db.GetSchema(id).indexes().size());
    }
    EXPECT_EQ(tables, e.tables) << suite.name;
    EXPECT_EQ(columns, e.columns) << suite.name;
    EXPECT_EQ(indexes, e.indexes) << suite.name;
    EXPECT_EQ(static_cast<int>(suite.transactions.size()), e.txns);
    EXPECT_EQ(static_cast<int>(suite.queries.size()), e.queries);
    EXPECT_EQ(static_cast<int>(suite.hybrids.size()), e.hybrids);
    EXPECT_NEAR(suite.ReadOnlyShare(benchfw::AgentKind::kOltp), e.ro_oltp,
                1e-9)
        << suite.name;
    EXPECT_NEAR(suite.ReadOnlyShare(benchfw::AgentKind::kHybrid), e.ro_hybrid,
                1e-9)
        << suite.name;
  }
}

/// The replica has one executor: every analytical query of every suite
/// (subqueries included) routes to the vectorized engine, and the router
/// never hands a replica candidate back to the row store.
TEST(SuiteRouting, EverySuiteQueryRunsVectorizedOnTheReplica) {
  const std::function<BenchmarkSuite()> suites[] = {
      [] { return benchmarks::MakeSubenchmark(TinyParams()); },
      [] { return benchmarks::MakeFibenchmark(TinyParams()); },
      [] { return benchmarks::MakeTabenchmark(TinyParams()); },
      [] { return benchmarks::MakeChBenchmark(TinyParams()); },
  };
  size_t queries = 0;
  for (const auto& make : suites) {
    BenchmarkSuite suite = make();
    auto profile = engine::EngineProfile::TiDbLike();
    profile.olap_row_fraction = 0.0;
    engine::Database db(profile);
    ASSERT_TRUE(benchfw::SetUp(db, suite).ok());
    db.WaitReplicaCaughtUp();
    auto session = db.CreateSession();
    session->set_charging_enabled(false);
    session->set_trace_level(1);
    Rng rng(7);
    for (const auto& q : suite.queries) {
      SCOPED_TRACE(suite.name + "/" + q.name);
      Status st = q.body(*session, rng);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(session->last_trace().route, "column/vectorized")
          << session->last_trace().sql;
      ++queries;
    }
    EXPECT_EQ(
        db.metrics().GetCounter("router.replica_unsupported_to_row")->Value(),
        0)
        << suite.name;
  }
  EXPECT_EQ(queries, 40u);  // 9 + 4 + 5 + 22
}

/// CH-benCHmark access-mix invariant (10/9/3 of 22 queries touch
/// SUPPLIER/NATION/REGION) is asserted on the SQL text.
TEST(ChBench, StitchedAccessMix) {
  BenchmarkSuite suite = benchmarks::MakeChBenchmark(TinyParams());
  ASSERT_EQ(suite.queries.size(), 22u);
  EXPECT_FALSE(suite.has_hybrid_txn);
  EXPECT_TRUE(suite.hybrids.empty());
}

}  // namespace
}  // namespace olxp
