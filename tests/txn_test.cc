#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "storage/row_store.h"
#include "txn/transaction.h"

namespace olxp::txn {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : mgr_(&store_, &locks_, &oracle_, &log_, 50000) {
    storage::TableSchema schema(
        "acct",
        {{"id", ValueType::kInt, false}, {"bal", ValueType::kInt, true}},
        {0});
    table_id_ = *store_.CreateTable(schema);
  }

  Row Acct(int64_t id, int64_t bal) { return {Value::Int(id),
                                              Value::Int(bal)}; }

  Status Seed(int64_t id, int64_t bal) {
    auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
    OLXP_RETURN_NOT_OK(t->Insert(table_id_, Acct(id, bal)));
    return t->Commit();
  }

  storage::RowStore store_;
  obs::MetricsRegistry metrics_;
  storage::LockManager locks_{metrics_};
  storage::TimestampOracle oracle_;
  storage::CommitLog log_;
  TransactionManager mgr_;
  int table_id_ = 0;
};

TEST_F(TxnTest, ReadOwnWrites) {
  auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(t->Insert(table_id_, Acct(1, 100)).ok());
  auto r = t->Get(table_id_, {Value::Int(1)});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ((**r)[1].AsInt(), 100);
  ASSERT_TRUE(t->Update(table_id_, Acct(1, 50)).ok());
  EXPECT_EQ((*t->Get(table_id_, {Value::Int(1)}))->at(1).AsInt(), 50);
  ASSERT_TRUE(t->Delete(table_id_, {Value::Int(1)}).ok());
  EXPECT_FALSE(t->Get(table_id_, {Value::Int(1)})->has_value());
  ASSERT_TRUE(t->Commit().ok());
}

TEST_F(TxnTest, UncommittedInvisibleToOthers) {
  auto t1 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(t1->Insert(table_id_, Acct(1, 100)).ok());
  auto t2 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  EXPECT_FALSE(t2->Get(table_id_, {Value::Int(1)})->has_value());
  ASSERT_TRUE(t1->Commit().ok());
  // t2's snapshot predates the commit: still invisible under SI.
  EXPECT_FALSE(t2->Get(table_id_, {Value::Int(1)})->has_value());
  // A read-committed transaction started earlier sees it per statement.
  auto t3 = mgr_.Begin(IsolationLevel::kReadCommitted);
  EXPECT_TRUE(t3->Get(table_id_, {Value::Int(1)})->has_value());
}

TEST_F(TxnTest, SnapshotIsolationRepeatableRead) {
  ASSERT_TRUE(Seed(1, 100).ok());
  auto reader = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ((*reader->Get(table_id_, {Value::Int(1)}))->at(1).AsInt(), 100);

  auto writer = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(writer->Update(table_id_, Acct(1, 999)).ok());
  ASSERT_TRUE(writer->Commit().ok());

  // Repeatable: same value within the transaction.
  EXPECT_EQ((*reader->Get(table_id_, {Value::Int(1)}))->at(1).AsInt(), 100);

  // Read-committed sees the newest committed value immediately.
  auto rc = mgr_.Begin(IsolationLevel::kReadCommitted);
  EXPECT_EQ((*rc->Get(table_id_, {Value::Int(1)}))->at(1).AsInt(), 999);
}

TEST_F(TxnTest, FirstCommitterWinsConflict) {
  ASSERT_TRUE(Seed(1, 100).ok());
  auto t1 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  auto t2 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(t1->Update(table_id_, Acct(1, 101)).ok());
  ASSERT_TRUE(t1->Commit().ok());
  // t2's snapshot predates t1's commit: write must conflict.
  Status st = t2->Update(table_id_, Acct(1, 102));
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  EXPECT_TRUE(st.IsRetryable());
  ASSERT_TRUE(t2->Abort().ok());
}

TEST_F(TxnTest, ReadCommittedAllowsLostUpdateSemantics) {
  // RC has no first-committer-wins: the second write succeeds (this is the
  // weaker isolation MemSQL-like profiles run with).
  ASSERT_TRUE(Seed(1, 100).ok());
  auto t1 = mgr_.Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(t1->Update(table_id_, Acct(1, 101)).ok());
  ASSERT_TRUE(t1->Commit().ok());
  auto t2 = mgr_.Begin(IsolationLevel::kReadCommitted);
  EXPECT_TRUE(t2->Update(table_id_, Acct(1, 102)).ok());
  EXPECT_TRUE(t2->Commit().ok());
}

TEST_F(TxnTest, WriteLockBlocksConcurrentWriter) {
  ASSERT_TRUE(Seed(1, 100).ok());
  auto t1 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(t1->Update(table_id_, Acct(1, 1)).ok());
  auto t2 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  Status st = t2->Update(table_id_, Acct(1, 2));  // waits, then times out
  EXPECT_EQ(st.code(), StatusCode::kLockTimeout);
  ASSERT_TRUE(t1->Commit().ok());
}

TEST_F(TxnTest, AbortDiscardsEverythingAndReleasesLocks) {
  ASSERT_TRUE(Seed(1, 100).ok());
  auto t1 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(t1->Update(table_id_, Acct(1, 1)).ok());
  ASSERT_TRUE(t1->Insert(table_id_, Acct(2, 2)).ok());
  EXPECT_EQ(t1->WriteSetSize(), 2u);
  ASSERT_TRUE(t1->Abort().ok());

  auto t2 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ((*t2->Get(table_id_, {Value::Int(1)}))->at(1).AsInt(), 100);
  EXPECT_FALSE(t2->Get(table_id_, {Value::Int(2)})->has_value());
  // Lock must be free again.
  EXPECT_TRUE(t2->Update(table_id_, Acct(1, 5)).ok());
  ASSERT_TRUE(t2->Commit().ok());
}

TEST_F(TxnTest, DestructorAbortsActiveTxn) {
  ASSERT_TRUE(Seed(1, 100).ok());
  {
    auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
    ASSERT_TRUE(t->Update(table_id_, Acct(1, 5)).ok());
    // dropped without commit
  }
  auto t2 = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ((*t2->Get(table_id_, {Value::Int(1)}))->at(1).AsInt(), 100);
  EXPECT_TRUE(t2->Update(table_id_, Acct(1, 7)).ok());  // lock released
}

TEST_F(TxnTest, InsertDuplicateAndDeleteAbsent) {
  ASSERT_TRUE(Seed(1, 100).ok());
  auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(t->Insert(table_id_, Acct(1, 5)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t->Delete(table_id_, {Value::Int(42)}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(t->Update(table_id_, Acct(42, 5)).code(), StatusCode::kNotFound);
  // Delete-then-reinsert within one transaction.
  EXPECT_TRUE(t->Delete(table_id_, {Value::Int(1)}).ok());
  EXPECT_TRUE(t->Insert(table_id_, Acct(1, 200)).ok());
  ASSERT_TRUE(t->Commit().ok());
  auto check = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ((*check->Get(table_id_, {Value::Int(1)}))->at(1).AsInt(), 200);
}

TEST_F(TxnTest, ScanMergesWriteSet) {
  ASSERT_TRUE(Seed(1, 10).ok());
  ASSERT_TRUE(Seed(2, 20).ok());
  ASSERT_TRUE(Seed(3, 30).ok());
  auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(t->Update(table_id_, Acct(2, 999)).ok());
  ASSERT_TRUE(t->Delete(table_id_, {Value::Int(3)}).ok());
  ASSERT_TRUE(t->Insert(table_id_, Acct(4, 40)).ok());

  int64_t sum = 0;
  int count = 0;
  ASSERT_TRUE(t->Scan(table_id_,
                      [&](const Row& r) {
                        sum += r[1].AsInt();
                        ++count;
                        return true;
                      })
                  .ok());
  EXPECT_EQ(count, 3);          // 1, 2(modified), 4; 3 deleted
  EXPECT_EQ(sum, 10 + 999 + 40);
  ASSERT_TRUE(t->Abort().ok());
}

TEST_F(TxnTest, ScanSeesOwnWritesInPkOrder) {
  // Regression: buffered inserts used to be appended AFTER the storage
  // scan, so a scan inside the inserting transaction returned rows out of
  // primary-key order. The write set must merge at its key position.
  ASSERT_TRUE(Seed(2, 20).ok());
  ASSERT_TRUE(Seed(4, 40).ok());
  ASSERT_TRUE(Seed(6, 60).ok());
  auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(t->Insert(table_id_, Acct(1, 11)).ok());
  ASSERT_TRUE(t->Insert(table_id_, Acct(3, 33)).ok());
  ASSERT_TRUE(t->Insert(table_id_, Acct(5, 55)).ok());
  ASSERT_TRUE(t->Insert(table_id_, Acct(7, 77)).ok());
  ASSERT_TRUE(t->Update(table_id_, Acct(4, 444)).ok());

  std::vector<int64_t> full_ids;
  ASSERT_TRUE(t->Scan(table_id_,
                      [&](const Row& r) {
                        full_ids.push_back(r[0].AsInt());
                        return true;
                      })
                  .ok());
  EXPECT_EQ(full_ids, (std::vector<int64_t>{1, 2, 3, 4, 5, 6, 7}));

  std::vector<int64_t> range_ids;
  std::vector<int64_t> range_bals;
  ASSERT_TRUE(t->ScanPkRange(table_id_, {Value::Int(2)}, {Value::Int(6)},
                             [&](const Row& r) {
                               range_ids.push_back(r[0].AsInt());
                               range_bals.push_back(r[1].AsInt());
                               return true;
                             })
                  .ok());
  EXPECT_EQ(range_ids, (std::vector<int64_t>{2, 3, 4, 5, 6}));
  // The updated image (not the stored one) appears at its key slot.
  EXPECT_EQ(range_bals, (std::vector<int64_t>{20, 33, 444, 55, 60}));

  // Early termination mid-merge stays consistent.
  std::vector<int64_t> first_three;
  ASSERT_TRUE(t->Scan(table_id_,
                      [&](const Row& r) {
                        first_three.push_back(r[0].AsInt());
                        return first_three.size() < 3;
                      })
                  .ok());
  EXPECT_EQ(first_three, (std::vector<int64_t>{1, 2, 3}));
  ASSERT_TRUE(t->Abort().ok());
}

TEST_F(TxnTest, EmptyCommitIsCheap) {
  auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  uint64_t before = log_.size();
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(log_.size(), before);  // no redo record for read-only txns
}

TEST_F(TxnTest, OperationsAfterCommitFail) {
  auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_FALSE(t->Insert(table_id_, Acct(9, 9)).ok());
  EXPECT_FALSE(t->Get(table_id_, {Value::Int(9)}).ok());
  EXPECT_FALSE(t->Commit().ok());
}

/// Property: concurrent transfers preserve the total balance under SI with
/// retries — the core serializability-adjacent invariant the benchmark's
/// banking domain relies on.
TEST_F(TxnTest, ConcurrentTransfersConserveTotal) {
  constexpr int kAccounts = 16;
  constexpr int kThreads = 8;
  constexpr int kTransfersPerThread = 150;
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_TRUE(Seed(i, 1000).ok());
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        while (true) {
          auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
          int64_t a = rng.Uniform(int64_t{0}, int64_t{kAccounts - 1});
          int64_t b = rng.Uniform(int64_t{0}, int64_t{kAccounts - 1});
          if (a == b) b = (b + 1) % kAccounts;
          int64_t amt = rng.Uniform(int64_t{1}, int64_t{50});
          auto ra = t->Get(table_id_, {Value::Int(a)});
          auto rb = t->Get(table_id_, {Value::Int(b)});
          if (!ra.ok() || !rb.ok()) continue;
          Status s1 = t->Update(table_id_,
                                Acct(a, (**ra)[1].AsInt() - amt));
          if (!s1.ok()) {
            (void)t->Abort();  // retry; the update failure is expected churn
            continue;
          }
          Status s2 = t->Update(table_id_,
                                Acct(b, (**rb)[1].AsInt() + amt));
          if (!s2.ok()) {
            (void)t->Abort();  // retry; the update failure is expected churn
            continue;
          }
          if (t->Commit().ok()) break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  auto t = mgr_.Begin(IsolationLevel::kSnapshotIsolation);
  int64_t total = 0;
  ASSERT_TRUE(t->Scan(table_id_,
                      [&](const Row& r) {
                        total += r[1].AsInt();
                        return true;
                      })
                  .ok());
  EXPECT_EQ(total, int64_t{kAccounts} * 1000);
}

}  // namespace
}  // namespace olxp::txn
