#include "common/lockorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "engine/database.h"
#include "engine/profile.h"

namespace olxp {
namespace {

using sync::LockRank;

// The hierarchy's public surface is always compiled, witness or not.
TEST(LockRankNames, EveryRankHasAName) {
  for (LockRank r : {LockRank::kCheckpoint, LockRank::kVacuumPass,
                     LockRank::kReplicatorApply, LockRank::kLockManagerShard,
                     LockRank::kOracleCommit, LockRank::kSnapshotRegistry,
                     LockRank::kCatalog, LockRank::kTableGate,
                     LockRank::kTableLatch,
                     LockRank::kVacuumState, LockRank::kWalIo,
                     LockRank::kWalPending, LockRank::kCommitLog,
                     LockRank::kObs, LockRank::kWorkerPool,
                     LockRank::kClient}) {
    EXPECT_STRNE(sync::LockRankName(r), "?");
  }
}

TEST(LockOrderWitness, ReleaseBuildHooksAreNoOps) {
  // Compiles and runs in BOTH configurations; in Release (kEnabled=false)
  // this pins that the no-op inlines exist and cost nothing observable.
  sync::Mutex mu{LockRank::kClient, "test.noop"};
  mu.Lock();
  mu.Unlock();
  if (!sync::lockorder::kEnabled) {
    EXPECT_EQ(sync::lockorder::EdgesObserved(), 0);
    EXPECT_EQ(sync::lockorder::HeldCount(), 0u);
    EXPECT_EQ(sync::lockorder::SetViolationHandler(nullptr), nullptr);
  }
}

// StatsJson surfaces hierarchy coverage whether or not the witness is
// compiled in (the gauge just stays 0 in Release).
TEST(LockOrderWitness, StatsJsonExportsEdgeCoverageGauge) {
  engine::Database db(engine::EngineProfile::TiDbLike());
  const std::string stats = db.StatsJson();
  EXPECT_NE(stats.find("lockorder.edges_observed"), std::string::npos);
  if (sync::lockorder::kEnabled) {
    // Constructing the substrate already nests locks (vacuum, replicator,
    // registry), so coverage cannot be zero in a witness build.
    EXPECT_GT(sync::lockorder::EdgesObserved(), 0);
  }
}

#if defined(OLXP_LOCK_ORDER)

// Captures violations instead of aborting, restoring the previous handler
// (and a clean held stack) on scope exit.
std::vector<sync::lockorder::Violation>* g_violations = nullptr;

void CapturingHandler(const sync::lockorder::Violation& v) {
  if (g_violations != nullptr) g_violations->push_back(v);
}

class HandlerGuard {
 public:
  explicit HandlerGuard(std::vector<sync::lockorder::Violation>* sink) {
    g_violations = sink;
    prev_ = sync::lockorder::SetViolationHandler(&CapturingHandler);
  }
  ~HandlerGuard() {
    sync::lockorder::SetViolationHandler(prev_);
    g_violations = nullptr;
  }

 private:
  sync::lockorder::Handler prev_;
};

TEST(LockOrderWitness, RankInversionProducesWitness) {
  std::vector<sync::lockorder::Violation> violations;
  HandlerGuard guard(&violations);

  sync::Mutex high{LockRank::kWalPending, "test.high"};
  sync::Mutex low{LockRank::kTableLatch, "test.low"};
  {
    sync::MutexLock hold_high(high);
    sync::MutexLock hold_low(low);  // wrong order: 800 under 1000
  }
  ASSERT_EQ(violations.size(), 1u);
  const sync::lockorder::Violation& v = violations[0];
  EXPECT_STREQ(v.kind, "rank-inversion");
  EXPECT_STREQ(v.holding_name, "test.high");
  EXPECT_EQ(v.holding_rank, LockRank::kWalPending);
  EXPECT_STREQ(v.acquiring_name, "test.low");
  EXPECT_EQ(v.acquiring_rank, LockRank::kTableLatch);
  // The report names both locks, both ranks, and the held stack.
  const std::string report = v.Report();
  EXPECT_NE(report.find("test.high"), std::string::npos);
  EXPECT_NE(report.find("test.low"), std::string::npos);
  EXPECT_NE(report.find("WalPending"), std::string::npos);
  EXPECT_NE(report.find("TableLatch"), std::string::npos);
  EXPECT_NE(report.find("test.high(WalPending)"), std::string::npos);
}

TEST(LockOrderWitness, CorrectOrderProducesNoWitness) {
  std::vector<sync::lockorder::Violation> violations;
  HandlerGuard guard(&violations);

  sync::Mutex outer{LockRank::kOracleCommit, "test.outer"};
  sync::Mutex inner{LockRank::kWalPending, "test.inner"};
  for (int i = 0; i < 3; ++i) {
    sync::MutexLock a(outer);
    sync::MutexLock b(inner);
  }
  EXPECT_TRUE(violations.empty());
}

TEST(LockOrderWitness, AcquiredAfterCycleDetectedAcrossThreads) {
  std::vector<sync::lockorder::Violation> violations;
  HandlerGuard guard(&violations);

  // Three same-rank siblings. A second thread establishes a -> b -> c;
  // this thread then closes the cycle by taking a under c.
  sync::SharedMutex a{LockRank::kTableLatch, "test.table_a"};
  sync::SharedMutex b{LockRank::kTableLatch, "test.table_b"};
  sync::SharedMutex c{LockRank::kTableLatch, "test.table_c"};

  std::thread establisher([&] {
    {
      sync::ReaderLock la(a);
      sync::ReaderLock lb(b);
    }
    {
      sync::ReaderLock lb(b);
      sync::ReaderLock lc(c);
    }
  });
  establisher.join();
  EXPECT_TRUE(violations.empty());  // consistent order so far

  {
    sync::ReaderLock lc(c);
    sync::ReaderLock la(a);  // c -> a closes a -> b -> c -> a
  }
  ASSERT_EQ(violations.size(), 1u);
  const sync::lockorder::Violation& v = violations[0];
  EXPECT_STREQ(v.kind, "cycle");
  EXPECT_STREQ(v.holding_name, "test.table_c");
  EXPECT_STREQ(v.acquiring_name, "test.table_a");
  EXPECT_EQ(v.holding_rank, LockRank::kTableLatch);
  EXPECT_EQ(v.acquiring_rank, LockRank::kTableLatch);
  // Both acquisition orders appear in the report: this thread's stack and
  // the recorded conflicting prior order.
  EXPECT_NE(v.held_stack.find("test.table_c"), std::string::npos);
  EXPECT_FALSE(v.prior_stack.empty());
  const std::string report = v.Report();
  EXPECT_NE(report.find("conflicting prior order"), std::string::npos);

  // The offending edge was reported but NOT recorded: repeating the bad
  // order trips the same deterministic witness again.
  violations.clear();
  {
    sync::ReaderLock lc(c);
    sync::ReaderLock la(a);
  }
  EXPECT_EQ(violations.size(), 1u);
}

TEST(LockOrderWitness, SameRankSiblingsInConsistentOrderAllowed) {
  std::vector<sync::lockorder::Violation> violations;
  HandlerGuard guard(&violations);

  sync::Mutex s0{LockRank::kLockManagerShard, "test.shard0"};
  sync::Mutex s1{LockRank::kLockManagerShard, "test.shard1"};
  for (int i = 0; i < 3; ++i) {
    sync::MutexLock a(s0);
    sync::MutexLock b(s1);  // always the same direction: no cycle
  }
  EXPECT_TRUE(violations.empty());
  EXPECT_GE(sync::lockorder::EdgesObserved(), 1);
}

TEST(LockOrderWitness, CondVarWaitKeepsHeldStackIntact) {
  std::vector<sync::lockorder::Violation> violations;
  HandlerGuard guard(&violations);

  sync::Mutex mu{LockRank::kVacuumState, "test.cv_mu"};
  sync::CondVar cv;
  {
    sync::MutexLock lk(mu);
    EXPECT_EQ(sync::lockorder::HeldCount(), 1u);
    // The wait borrows the underlying std::mutex (adopt/release), so the
    // witness keeps treating the lock as held across the sleep — the
    // correct function-boundary semantics.
    bool r = cv.WaitFor(lk, std::chrono::milliseconds(5), [] {
      return false;
    });
    EXPECT_FALSE(r);
    EXPECT_EQ(sync::lockorder::HeldCount(), 1u);
    // Nesting a higher rank after the wait is still clean.
    sync::Mutex inner{LockRank::kObs, "test.cv_inner"};
    sync::MutexLock lk2(inner);
    EXPECT_EQ(sync::lockorder::HeldCount(), 2u);
  }
  EXPECT_EQ(sync::lockorder::HeldCount(), 0u);
  EXPECT_TRUE(violations.empty());
}

TEST(LockOrderWitness, ReleaseOutOfOrderTolerated) {
  std::vector<sync::lockorder::Violation> violations;
  HandlerGuard guard(&violations);

  sync::Mutex a{LockRank::kCatalog, "test.ooo_a"};
  sync::Mutex b{LockRank::kTableLatch, "test.ooo_b"};
  a.Lock();
  b.Lock();
  EXPECT_EQ(sync::lockorder::HeldCount(), 2u);
  a.Unlock();  // not LIFO: a released while b is still held
  EXPECT_EQ(sync::lockorder::HeldCount(), 1u);
  b.Unlock();
  EXPECT_EQ(sync::lockorder::HeldCount(), 0u);
  EXPECT_TRUE(violations.empty());
}

TEST(LockOrderWitness, EdgeCoverageGrowsWithNewNesting) {
  std::vector<sync::lockorder::Violation> violations;
  HandlerGuard guard(&violations);

  const int64_t before = sync::lockorder::EdgesObserved();
  sync::Mutex outer{LockRank::kVacuumPass, "test.cov_outer"};
  sync::Mutex inner{LockRank::kVacuumState, "test.cov_inner"};
  for (int i = 0; i < 5; ++i) {
    sync::MutexLock a(outer);
    sync::MutexLock b(inner);
  }
  // A brand-new pair counts exactly once no matter how often it repeats.
  EXPECT_EQ(sync::lockorder::EdgesObserved(), before + 1);
  EXPECT_TRUE(violations.empty());
}

#endif  // OLXP_LOCK_ORDER

}  // namespace
}  // namespace olxp
