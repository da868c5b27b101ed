#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "storage/column_store.h"
#include "storage/lock_manager.h"
#include "storage/oracle.h"
#include "storage/replicator.h"
#include "storage/row_store.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace olxp::storage {
namespace {

TableSchema KvSchema() {
  return TableSchema("kv",
                     {{"k", ValueType::kInt, false},
                      {"v", ValueType::kString, true},
                      {"n", ValueType::kInt, true}},
                     {0});
}

TableSchema CompositeSchema() {
  return TableSchema("comp",
                     {{"a", ValueType::kInt, false},
                      {"b", ValueType::kString, false},
                      {"x", ValueType::kDouble, true}},
                     {0, 1});
}

Row KvRow(int64_t k, const std::string& v, int64_t n) {
  return {Value::Int(k), Value::String(v), Value::Int(n)};
}

// --------------------------------- schema ---------------------------------

TEST(Schema, ColumnIndexCaseInsensitive) {
  TableSchema s = KvSchema();
  EXPECT_EQ(s.ColumnIndex("K"), 0);
  EXPECT_EQ(s.ColumnIndex("v"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
}

TEST(Schema, NormalizeRowCoercesAndChecksNulls) {
  TableSchema s = KvSchema();
  auto ok = s.NormalizeRow({Value::String("5"), Value::Null(), Value::Double(
                                                                   2.9)});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0].AsInt(), 5);
  EXPECT_EQ((*ok)[2].AsInt(), 3);  // 2.9 -> INT rounds
  EXPECT_FALSE(s.NormalizeRow({Value::Null(), Value::Null(), Value::Null()})
                   .ok());  // pk NOT NULL
  EXPECT_FALSE(s.NormalizeRow({Value::Int(1)}).ok());  // arity
}

TEST(Schema, KeyExtractionAndIndexes) {
  TableSchema s = CompositeSchema();
  Row row = {Value::Int(1), Value::String("x"), Value::Double(5)};
  Row pk = s.ExtractPrimaryKey(row);
  ASSERT_EQ(pk.size(), 2u);
  EXPECT_EQ(pk[1].AsString(), "x");
  ASSERT_TRUE(s.AddIndex({"by_x", {2}, false}).ok());
  EXPECT_FALSE(s.AddIndex({"by_x", {2}, false}).ok());  // duplicate
  EXPECT_FALSE(s.AddIndex({"bad", {9}, false}).ok());   // out of range
}

TEST(Schema, KeyLessPrefixSemantics) {
  KeyLess less;
  Row ab = {Value::Int(1), Value::Int(2)};
  Row a = {Value::Int(1)};
  EXPECT_TRUE(less(a, ab));   // prefix sorts before extension
  EXPECT_FALSE(less(ab, a));
}

// -------------------------------- MvccTable --------------------------------

TEST(MvccTable, VisibilityByTimestamp) {
  MvccTable t(0, KvSchema());
  EXPECT_TRUE(t.InstallVersion({Value::Int(1)}, 10, false, KvRow(1, "v10", 0)).ok());
  EXPECT_TRUE(t.InstallVersion({Value::Int(1)}, 20, false, KvRow(1, "v20", 0)).ok());

  EXPECT_FALSE(t.Get({Value::Int(1)}, 9).has_value());
  EXPECT_EQ(t.Get({Value::Int(1)}, 10)->at(1).AsString(), "v10");
  EXPECT_EQ(t.Get({Value::Int(1)}, 15)->at(1).AsString(), "v10");
  EXPECT_EQ(t.Get({Value::Int(1)}, 20)->at(1).AsString(), "v20");
  EXPECT_EQ(t.Get({Value::Int(1)}, 999)->at(1).AsString(), "v20");
  EXPECT_EQ(t.LatestCommitTs({Value::Int(1)}), 20u);
  EXPECT_EQ(t.LatestCommitTs({Value::Int(2)}), 0u);
}

TEST(MvccTable, TombstoneHidesRow) {
  MvccTable t(0, KvSchema());
  EXPECT_TRUE(t.InstallVersion({Value::Int(1)}, 10, false, KvRow(1, "a", 0)).ok());
  EXPECT_TRUE(t.InstallVersion({Value::Int(1)}, 20, true, {}).ok());
  EXPECT_TRUE(t.Get({Value::Int(1)}, 15).has_value());
  EXPECT_FALSE(t.Get({Value::Int(1)}, 25).has_value());
  // Resurrection.
  EXPECT_TRUE(t.InstallVersion({Value::Int(1)}, 30, false, KvRow(1, "b", 0)).ok());
  EXPECT_EQ(t.Get({Value::Int(1)}, 35)->at(1).AsString(), "b");
}

TEST(MvccTable, ScanSnapshotAndOrder) {
  MvccTable t(0, KvSchema());
  for (int i = 5; i >= 1; --i) {
    EXPECT_TRUE(t.InstallVersion({Value::Int(i)}, 10 + i, false, KvRow(i, "v", i)).ok());
  }
  std::vector<int64_t> keys;
  t.Scan(13, [&](const Row& r) {
    keys.push_back(r[0].AsInt());
    return true;
  });
  // Snapshot 13 sees commits at ts 11..13 => keys 1..3 in pk order.
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], 1);
  EXPECT_EQ(keys[2], 3);
}

TEST(MvccTable, ScanEarlyStop) {
  MvccTable t(0, KvSchema());
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(t.InstallVersion({Value::Int(i)}, i, false, KvRow(i, "v", i)).ok());
  }
  int count = 0;
  t.Scan(100, [&](const Row&) { return ++count < 4; });
  EXPECT_EQ(count, 4);
}

TEST(MvccTable, PkRangeWithCompositePrefix) {
  MvccTable t(0, CompositeSchema());
  uint64_t ts = 0;
  for (int a = 1; a <= 3; ++a) {
    for (char b = 'a'; b <= 'c'; ++b) {
      EXPECT_TRUE(t.InstallVersion({Value::Int(a), Value::String(std::string(1, b))},
                       ++ts, false,
                       {Value::Int(a), Value::String(std::string(1, b)),
                        Value::Double(a)}).ok());
    }
  }
  // Prefix range [a=2, a=2] should return all three b's of a=2.
  std::vector<std::string> bs;
  t.ScanPkRange({Value::Int(2)}, {Value::Int(2)}, 100, [&](const Row& r) {
    bs.push_back(r[1].AsString());
    return true;
  });
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_EQ(bs[0], "a");
  EXPECT_EQ(bs[2], "c");
  // Full-key range.
  int n = 0;
  t.ScanPkRange({Value::Int(1), Value::String("b")},
                {Value::Int(2), Value::String("a")}, 100, [&](const Row&) {
                  ++n;
                  return true;
                });
  EXPECT_EQ(n, 3);  // (1,b), (1,c), (2,a)
}

TEST(MvccTable, SecondaryIndexLookupAndStaleEntries) {
  TableSchema schema = KvSchema();
  ASSERT_TRUE(schema.AddIndex({"by_n", {2}, false}).ok());
  MvccTable t(0, schema);
  EXPECT_TRUE(t.InstallVersion({Value::Int(1)}, 1, false, KvRow(1, "x", 7)).ok());
  EXPECT_TRUE(t.InstallVersion({Value::Int(2)}, 2, false, KvRow(2, "y", 7)).ok());
  EXPECT_TRUE(t.InstallVersion({Value::Int(3)}, 3, false, KvRow(3, "z", 8)).ok());

  std::vector<Row> out;
  t.IndexLookup(0, {Value::Int(7)}, 100, &out);
  EXPECT_EQ(out.size(), 2u);

  // Update row 1's n to 9: the old (7 -> 1) index entry is stale and must
  // be filtered by verification.
  EXPECT_TRUE(t.InstallVersion({Value::Int(1)}, 4, false, KvRow(1, "x", 9)).ok());
  out.clear();
  t.IndexLookup(0, {Value::Int(7)}, 100, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].AsInt(), 2);
  out.clear();
  t.IndexLookup(0, {Value::Int(9)}, 100, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].AsInt(), 1);
  // Old snapshot still sees the old value through the index.
  out.clear();
  t.IndexLookup(0, {Value::Int(7)}, 3, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(MvccTable, AddIndexBackfills) {
  MvccTable t(0, KvSchema());
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(t.InstallVersion({Value::Int(i)}, i, false, KvRow(i, "v", i % 2)).ok());
  }
  EXPECT_TRUE(t.InstallVersion({Value::Int(5)}, 6, true, {}).ok());  // deleted: no entry
  ASSERT_TRUE(t.AddIndex({"by_n", {2}, false}).ok());
  std::vector<Row> out;
  t.IndexLookup(0, {Value::Int(1)}, 100, &out);
  EXPECT_EQ(out.size(), 2u);  // keys 1, 3 (5 deleted)
}

TEST(MvccTable, InstallVersionRejectsNonMonotoneCommitTs) {
  MvccTable t(0, KvSchema());
  Row pk = {Value::Int(1)};
  ASSERT_TRUE(t.InstallVersion(pk, 5, false, KvRow(1, "v5", 0)).ok());
  // Installing below the chain head must be refused (a release-build
  // Status, not a compiled-out assert): VisibleVersion depends on the
  // ascending order and would serve wrong versions afterwards.
  Status bad = t.InstallVersion(pk, 3, false, KvRow(1, "v3", 0));
  EXPECT_EQ(bad.code(), StatusCode::kInternal);
  EXPECT_EQ(t.TotalVersionCount(), 1u);
  EXPECT_EQ(t.Get(pk, 10)->at(1).AsString(), "v5");
  // Equal timestamps remain allowed (recovery replays at original ts).
  EXPECT_TRUE(t.InstallVersion(pk, 5, false, KvRow(1, "v5b", 0)).ok());
}

TEST(MvccTable, VacuumBelowTruncatesErasesAndPurges) {
  TableSchema schema = KvSchema();
  MvccTable t(0, schema);
  ASSERT_TRUE(t.AddIndex({"by_n", {2}, false}).ok());
  Row pk1 = {Value::Int(1)};
  Row pk2 = {Value::Int(2)};
  // pk1: five updates moving the indexed column each time.
  for (uint64_t ts = 1; ts <= 5; ++ts) {
    ASSERT_TRUE(
        t.InstallVersion(pk1, ts, false, KvRow(1, "v", 100 + ts)).ok());
  }
  // pk2: insert then tombstone.
  ASSERT_TRUE(t.InstallVersion(pk2, 6, false, KvRow(2, "w", 7)).ok());
  ASSERT_TRUE(t.InstallVersion(pk2, 7, true, {}).ok());
  EXPECT_EQ(t.IndexEntryCount(), 6u);  // 5 stale-ish for pk1 + 1 for pk2

  // Watermark 4: pk1 keeps ts=4 (visible at 4) and ts=5; pk2's tombstone
  // at 7 is above the watermark, so the chain survives.
  VacuumStats s1 = t.VacuumBelow(4, 1);  // batch_rows=1: many latch drops
  EXPECT_EQ(s1.versions_removed, 3u);
  EXPECT_EQ(s1.chains_removed, 0u);
  EXPECT_EQ(s1.index_entries_removed, 3u);
  EXPECT_TRUE(t.Get(pk1, 4).has_value());
  EXPECT_EQ(t.Get(pk1, 4)->at(2).AsInt(), 104);
  EXPECT_FALSE(t.Get(pk1, 3).has_value());  // reclaimed history

  // Watermark 10: pk1 truncates to ts=5 only; pk2 is a dead tombstone and
  // disappears entirely, index entry included.
  VacuumStats s2 = t.VacuumBelow(10, 64);
  EXPECT_EQ(s2.chains_removed, 1u);
  EXPECT_EQ(t.ApproxRowCount(), 1u);
  EXPECT_EQ(t.TotalVersionCount(), 1u);
  EXPECT_EQ(t.IndexEntryCount(), 1u);
  std::vector<Row> out;
  t.IndexLookup(0, {Value::Int(105)}, 100, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].AsInt(), 1);
}

TEST(MvccTable, ChunkedScanStaysConsistentAcrossLatchDrops) {
  MvccTable t(0, KvSchema());
  // 13 scan chunks: every scan drops the table latch 12 times.
  constexpr int kRows = static_cast<int>(12 * kScanChunkRows) + 100;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t.InstallVersion({Value::Int(i)}, 10, false,
                                 KvRow(i, "v", i))
                    .ok());
  }
  // Concurrent installer bumping versions at newer timestamps while a
  // snapshot scan at ts=10 walks the table in chunks.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t ts = 11;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kRows && !stop.load(std::memory_order_relaxed);
           ++i) {
        ASSERT_TRUE(t.InstallVersion({Value::Int(i)}, ts, false,
                                     KvRow(i, "new", kRows + i))
                        .ok());
      }
      ++ts;
    }
  });
  for (int round = 0; round < 50; ++round) {
    int n = 0;
    bool all_snapshot = true;
    t.Scan(10, [&](const Row& row) {
      ++n;
      if (row[2].AsInt() >= kRows) all_snapshot = false;
      return true;
    });
    EXPECT_EQ(n, kRows);
    EXPECT_TRUE(all_snapshot);  // never sees post-snapshot installs
  }
  stop.store(true);
  writer.join();
}

// Sweep fixture: entry i of a composite-key table has pk (i / 8, "1N"),
// so a pk prefix {a} covers entries [8a, 8a + 7]. Visibility at ts 15 varies
// by i: some rows are committed after the snapshot, some deleted before it,
// some updated across it. Invisible entries are still walked.
constexpr int kSweepPerA = 8;
constexpr uint64_t kSweepSnap = 15;

Row SweepPk(int i) {
  return {Value::Int(i / kSweepPerA),
          Value::String(std::to_string(10 + i % kSweepPerA))};
}

struct SweepVersion {
  uint64_t commit_ts;
  double x;
};

// The version of entry i visible at kSweepSnap, or nullopt.
std::optional<SweepVersion> SweepVisible(int i) {
  if (i % 11 == 5) return std::nullopt;                     // ts 20 only
  if (i % 7 == 3) return std::nullopt;                      // deleted at 10
  if (i % 5 == 1) return SweepVersion{12, i + 0.5};         // updated at 12
  return SweepVersion{10, static_cast<double>(i)};
}

void InstallSweepRows(MvccTable* t, int n) {
  auto row = [](int i, double x) {
    Row r = SweepPk(i);
    r.push_back(Value::Double(x));
    return r;
  };
  for (int i = 0; i < n; ++i) {
    if (i % 11 == 5) {
      ASSERT_TRUE(t->InstallVersion(SweepPk(i), 20, false, row(i, -1)).ok());
    } else if (i % 7 == 3) {
      ASSERT_TRUE(t->InstallVersion(SweepPk(i), 5, false, row(i, i)).ok());
      ASSERT_TRUE(t->InstallVersion(SweepPk(i), 10, true, Row{}).ok());
    } else if (i % 5 == 1) {
      ASSERT_TRUE(t->InstallVersion(SweepPk(i), 5, false, row(i, -1)).ok());
      ASSERT_TRUE(
          t->InstallVersion(SweepPk(i), 12, false, row(i, i + 0.5)).ok());
    } else {
      ASSERT_TRUE(t->InstallVersion(SweepPk(i), 10, false, row(i, i)).ok());
    }
  }
}

// x of every entry in [first, last] visible at kSweepSnap, in key order.
std::vector<double> SweepReference(int first, int last) {
  std::vector<double> xs;
  for (int i = first; i <= last; ++i) {
    if (auto v = SweepVisible(i)) xs.push_back(v->x);
  }
  return xs;
}

TEST(MvccTable, RangeAndCheckpointSweepsStayExactAcrossLatchDrops) {
  constexpr int kChunk = static_cast<int>(kScanChunkRows);
  constexpr int kRows = 4 * kChunk + 300;  // 5 chunks from the first key
  MvccTable t(0, CompositeSchema());
  InstallSweepRows(&t, kRows);
  ASSERT_EQ(t.ApproxRowCount(), static_cast<size_t>(kRows));

  // Range reads agree with the reference, and bill every in-range entry
  // walked (invisible ones included) and nothing past `hi`.
  auto range = [&](const Row& lo, const Row& hi, int first, int last) {
    std::vector<double> xs;
    int64_t visited = t.ScanPkRange(lo, hi, kSweepSnap, [&](const Row& r) {
      xs.push_back(r[2].AsDouble());
      return true;
    });
    EXPECT_EQ(xs, SweepReference(first, last)) << first << ".." << last;
    EXPECT_EQ(visited, last - first + 1) << first << ".." << last;
  };
  const Row from_start = {Value::Int(0)};
  range(from_start, SweepPk(kChunk - 1), 0, kChunk - 1);  // last of chunk 1
  range(from_start, SweepPk(kChunk), 0, kChunk);          // first of chunk 2
  // Prefix bounds ending on and just past the first chunk boundary.
  range(from_start, {Value::Int(kChunk / kSweepPerA - 1)}, 0, kChunk - 1);
  range(from_start, {Value::Int(kChunk / kSweepPerA)}, 0,
        kChunk + kSweepPerA - 1);
  // Chunks counted from a mid-table start key.
  constexpr int kLo = 37;
  range(SweepPk(kLo), SweepPk(kLo + kChunk - 1), kLo, kLo + kChunk - 1);
  range(SweepPk(kLo), SweepPk(kLo + kChunk), kLo, kLo + kChunk);
  range(SweepPk(kLo), SweepPk(kLo + 3 * kChunk + 5), kLo,
        kLo + 3 * kChunk + 5);
  range({Value::Int(3)}, {Value::Int(kRows)}, 3 * kSweepPerA, kRows - 1);

  // The checkpoint sweep delivers every visible row with its commit ts.
  auto checkpoint = [&](int stop_at) {
    std::vector<double> xs;
    int bad = 0;
    t.ForEachCommitted(kSweepSnap, [&](const Row& pk, uint64_t commit_ts,
                                       const Row& data) {
      int i = static_cast<int>(pk[0].AsInt()) * kSweepPerA +
              std::stoi(pk[1].AsString()) - 10;
      auto want = SweepVisible(i);
      if (!want || want->commit_ts != commit_ts || !KeyEq()(pk, SweepPk(i))) {
        ++bad;
      }
      xs.push_back(data[2].AsDouble());
      return i != stop_at;
    });
    EXPECT_EQ(bad, 0);
    return xs;
  };
  EXPECT_EQ(checkpoint(-1), SweepReference(0, kRows - 1));

  // A callback stopping on a chunk's last row ends the sweep there.
  ASSERT_TRUE(SweepVisible(kChunk - 1).has_value());
  ASSERT_TRUE(SweepVisible(3 * kChunk - 1).has_value());
  std::vector<double> xs;
  int64_t visited = t.ScanPkRange(
      from_start, {Value::Int(kRows)}, kSweepSnap, [&](const Row& r) {
        xs.push_back(r[2].AsDouble());
        return !KeyEq()({r[0], r[1]}, SweepPk(kChunk - 1));
      });
  EXPECT_EQ(xs, SweepReference(0, kChunk - 1));
  EXPECT_EQ(visited, kChunk);
  EXPECT_EQ(checkpoint(3 * kChunk - 1), SweepReference(0, 3 * kChunk - 1));

  // A writer installs newer versions and new keys between the existing
  // ones while sweeps run: none of it is visible at the snapshot.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t ts = 21; !stop.load(std::memory_order_relaxed); ++ts) {
      for (int i = 0; i < kRows && !stop.load(std::memory_order_relaxed);
           i += 3) {
        Row pk = SweepPk(i);
        Row newer = pk;
        newer.push_back(Value::Double(-2));
        ASSERT_TRUE(t.InstallVersion(pk, ts, false, newer).ok());
        Row fresh = {pk[0], Value::String(pk[1].AsString() + "x"),
                     Value::Double(-3)};
        Row fresh_pk = {fresh[0], fresh[1]};
        ASSERT_TRUE(t.InstallVersion(fresh_pk, ts, false, fresh).ok());
      }
    }
  });
  for (int round = 0; round < 20; ++round) {
    std::vector<double> seen;
    int64_t walked = t.ScanPkRange(
        from_start, {Value::Int(kRows)}, kSweepSnap, [&](const Row& r) {
          seen.push_back(r[2].AsDouble());
          return true;
        });
    EXPECT_EQ(seen, SweepReference(0, kRows - 1));
    EXPECT_GE(walked, kRows);  // new keys are walked, never delivered
    EXPECT_EQ(checkpoint(-1), SweepReference(0, kRows - 1));
  }
  stop.store(true);
  writer.join();
}

TEST(MvccTable, ConcurrentReadersAndInstalls) {
  MvccTable t(0, KvSchema());
  TimestampOracle oracle;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      EXPECT_TRUE(t.InstallVersion({Value::Int(i % 64)}, oracle.Advance(), false,
                       KvRow(i % 64, "w", i)).ok());
    }
    stop = true;
  });
  int64_t reads = 0;
  // Until the writer is done, and then until a scan has seen its rows: the
  // writer can finish before this thread is first scheduled.
  while (!stop.load() || reads == 0) {
    uint64_t ts = oracle.Current();
    t.Scan(ts, [&](const Row&) {
      ++reads;
      return true;
    });
  }
  writer.join();
  EXPECT_GT(reads, 0);
  EXPECT_EQ(t.ApproxRowCount(), 64u);
}

// ------------------------------- LockManager -------------------------------

TEST(LockManager, ExclusiveAndReentrant) {
  LockManager lm;
  Row key = {Value::Int(1)};
  ASSERT_TRUE(lm.Acquire(1, 0, key, 1000).ok());
  ASSERT_TRUE(lm.Acquire(1, 0, key, 1000).ok());  // reentrant
  EXPECT_TRUE(lm.Holds(1, 0, key));
  Status blocked = lm.Acquire(2, 0, key, 1000);
  EXPECT_EQ(blocked.code(), StatusCode::kLockTimeout);
  lm.Release(1, 0, key);
  EXPECT_TRUE(lm.Holds(1, 0, key));  // one release left
  lm.Release(1, 0, key);
  EXPECT_FALSE(lm.Holds(1, 0, key));
  EXPECT_TRUE(lm.Acquire(2, 0, key, 1000).ok());
  lm.Release(2, 0, key);
}

TEST(LockManager, DifferentTablesDoNotConflict) {
  LockManager lm;
  Row key = {Value::Int(1)};
  ASSERT_TRUE(lm.Acquire(1, 0, key, 1000).ok());
  ASSERT_TRUE(lm.Acquire(2, 1, key, 1000).ok());
  lm.Release(1, 0, key);
  lm.Release(2, 1, key);
}

/// Forces every (table_id, key) into one shard-hash value. Before entries
/// were keyed by full identity, colliding hashes shared a single LockEntry:
/// a transaction holding one key got a false reentrant grant on any other
/// key with the same hash, silently breaking mutual exclusion.
size_t CollidingHash(int, const Row&) { return 42; }

TEST(LockManager, CollidingHashesStillGetDistinctLocks) {
  LockManager lm(1, &CollidingHash);
  Row k1 = {Value::Int(1)};
  Row k2 = {Value::Int(2)};
  ASSERT_TRUE(lm.Acquire(1, 0, k1, 1000).ok());
  // Same hash, different key: must be a fresh grant, not contention (and
  // definitely not a shared entry).
  ASSERT_TRUE(lm.Acquire(2, 0, k2, 1000).ok());
  EXPECT_TRUE(lm.Holds(1, 0, k1));
  EXPECT_TRUE(lm.Holds(2, 0, k2));
  EXPECT_FALSE(lm.Holds(1, 0, k2));
  EXPECT_FALSE(lm.Holds(2, 0, k1));
  // Same key across tables collides too and must stay independent.
  ASSERT_TRUE(lm.Acquire(3, 1, k1, 1000).ok());
  EXPECT_EQ(lm.EntryCount(), 3u);
  lm.Release(1, 0, k1);
  lm.Release(2, 0, k2);
  lm.Release(3, 1, k1);
  EXPECT_EQ(lm.EntryCount(), 0u);
}

TEST(LockManager, NoFalseReentrantGrantAcrossCollidingKeys) {
  LockManager lm(1, &CollidingHash);
  Row k1 = {Value::Int(10)};
  Row k2 = {Value::Int(20)};
  // The historical failure: txn 1 held k1; acquiring the colliding k2 hit
  // the shared entry, saw owner == 1, and "reentrantly" granted. Releasing
  // k1 then only decremented the shared reentry count, leaving k1
  // unavailable to others while txn 1 believed it was released.
  ASSERT_TRUE(lm.Acquire(1, 0, k1, 1000).ok());
  ASSERT_TRUE(lm.Acquire(1, 0, k2, 1000).ok());  // fresh entry, reentry=1
  lm.Release(1, 0, k1);
  EXPECT_FALSE(lm.Holds(1, 0, k1));
  EXPECT_TRUE(lm.Holds(1, 0, k2));
  // k1 is genuinely free for another transaction...
  EXPECT_TRUE(lm.Acquire(2, 0, k1, 2000).ok());
  // ...while k2 is still exclusively held.
  EXPECT_EQ(lm.Acquire(2, 0, k2, 2000).code(), StatusCode::kLockTimeout);
  lm.Release(2, 0, k1);
  lm.Release(1, 0, k2);
  EXPECT_EQ(lm.EntryCount(), 0u);
}

TEST(LockManager, WaiterGetsLockOnRelease) {
  LockManager lm;
  Row key = {Value::Int(42)};
  ASSERT_TRUE(lm.Acquire(1, 0, key, 1000).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    Status st = lm.Acquire(2, 0, key, 2000000);
    granted = st.ok();
  });
  SleepMicros(20000);
  EXPECT_FALSE(granted.load());
  lm.Release(1, 0, key);
  waiter.join();
  EXPECT_TRUE(granted.load());
  lm.Release(2, 0, key);
  EXPECT_GE(lm.stats().waits.load(), 1u);
  EXPECT_GT(lm.stats().wait_nanos.load(), 0u);
}

TEST(LockManager, StatsCountTimeouts) {
  LockManager lm;
  Row key = {Value::Int(9)};
  ASSERT_TRUE(lm.Acquire(1, 0, key, 1000).ok());
  EXPECT_FALSE(lm.Acquire(2, 0, key, 2000).ok());
  EXPECT_EQ(lm.stats().timeouts.load(), 1u);
  lm.Release(1, 0, key);
}

TEST(LockManager, HighContentionStress) {
  LockManager lm;
  constexpr int kThreads = 8;
  std::atomic<int> in_critical{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Row key = {Value::Int(5)};
      for (int i = 0; i < 300; ++i) {
        if (!lm.Acquire(100 + t, 0, key, 5000000).ok()) continue;
        if (in_critical.fetch_add(1) != 0) violations++;
        in_critical.fetch_sub(1);
        lm.Release(100 + t, 0, key);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(LockManager, TimedOutWaitersLeaveNoEntriesBehind) {
  // Regression: a timed-out waiter must never strand a lock-table entry.
  // Release hands an entry with waiters off un-erased; the waiter-exit path
  // in Acquire has to reap it when nobody acquired and nobody else waits,
  // or shard.locks grows for the life of the database under contention.
  LockManager lm(4);
  Row key = {Value::Int(77)};
  ASSERT_TRUE(lm.Acquire(1, 0, key, 1000).ok());
  // Waiter times out while the owner still holds the lock.
  EXPECT_FALSE(lm.Acquire(2, 0, key, 2000).ok());
  EXPECT_EQ(lm.EntryCount(), 1u);  // only the held lock remains
  lm.Release(1, 0, key);
  EXPECT_EQ(lm.EntryCount(), 0u);

  // Waiter blocked when the owner releases: the entry is handed over, then
  // erased by the waiter's own release.
  ASSERT_TRUE(lm.Acquire(3, 0, key, 1000).ok());
  std::thread waiter([&] {
    if (lm.Acquire(4, 0, key, 500000).ok()) lm.Release(4, 0, key);
  });
  SleepMicros(20000);
  lm.Release(3, 0, key);
  waiter.join();
  EXPECT_EQ(lm.EntryCount(), 0u);
}

TEST(LockManager, EntryCountShrinksAfterContentionChurn) {
  // Stress with tiny deadlines so grants, handoffs and timeouts interleave;
  // after every thread quiesces and releases, the lock table must be empty.
  LockManager lm(8);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        Row key = {Value::Int((t + i) % 13)};
        uint64_t txn = 1000 + t;
        if (lm.Acquire(txn, 0, key, (i % 3) * 300).ok()) {
          lm.Release(txn, 0, key);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(lm.EntryCount(), 0u);
}

// ------------------------------ CommitLog/WAL ------------------------------

TEST(CommitLog, FetchRespectsWallClock) {
  CommitLog log;
  CommitRecord r1;
  r1.commit_ts = 1;
  r1.commit_wall_us = 100;
  CommitRecord r2;
  r2.commit_ts = 2;
  r2.commit_wall_us = 200;
  log.Append(r1);
  log.Append(r2);

  std::vector<CommitRecord> out;
  uint64_t next = log.Fetch(0, 150, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(next, 1u);
  out.clear();
  next = log.Fetch(next, 300, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].commit_ts, 2u);
  EXPECT_EQ(next, 2u);
}

TEST(CommitLog, TrimKeepsSequenceNumbers) {
  CommitLog log;
  for (int i = 0; i < 5; ++i) {
    CommitRecord r;
    r.commit_ts = i + 1;
    r.commit_wall_us = i;
    log.Append(r);
  }
  log.Trim(3);
  std::vector<CommitRecord> out;
  uint64_t next = log.Fetch(0, 1000, &out);  // from_seq below base clamps
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].commit_ts, 4u);
  EXPECT_EQ(next, 5u);
}

// ------------------------------- ColumnStore -------------------------------

TEST(ColumnStore, ApplyUpsertDeleteAndSlotReuse) {
  ColumnTable t(KvSchema());
  LogOp ins;
  ins.kind = LogOp::Kind::kUpsert;
  ins.pk = {Value::Int(1)};
  ins.data = KvRow(1, "a", 10);
  t.Apply(ins);
  EXPECT_EQ(t.LiveRowCount(), 1u);
  EXPECT_EQ(t.Get({Value::Int(1)})->at(1).AsString(), "a");

  ins.data = KvRow(1, "b", 11);
  t.Apply(ins);  // in-place update
  EXPECT_EQ(t.LiveRowCount(), 1u);
  EXPECT_EQ(t.Get({Value::Int(1)})->at(1).AsString(), "b");

  LogOp del;
  del.kind = LogOp::Kind::kDelete;
  del.pk = {Value::Int(1)};
  t.Apply(del);
  EXPECT_EQ(t.LiveRowCount(), 0u);
  EXPECT_FALSE(t.Get({Value::Int(1)}).has_value());
  t.Apply(del);  // idempotent

  LogOp ins2;
  ins2.kind = LogOp::Kind::kUpsert;
  ins2.pk = {Value::Int(2)};
  ins2.data = KvRow(2, "c", 12);
  t.Apply(ins2);  // reuses the freed slot
  int64_t visited = 0;
  {
    ColumnTable::ScanPin pin(t);
    for (size_t base = 0; base < pin.total_slots();) {
      const ColumnChunkView v = pin.Chunk(base, 16);
      for (size_t i = 0; i < v.rows; ++i) visited += v.live[i];
      base += v.rows;
    }
  }
  EXPECT_EQ(visited, 1);
  EXPECT_EQ(t.SlotCount(), 1u);
}

TEST(Replicator, ShipsAfterLagAndCatchUp) {
  RowStore rows;
  ColumnStore cols;
  CommitLog log;
  cols.AddTable(0, KvSchema());
  Replicator rep(&log, &cols, /*lag_micros=*/50000, /*poll_micros=*/200);
  rep.Start();

  CommitRecord rec;
  rec.commit_ts = 1;
  rec.commit_wall_us = NowMicros();
  LogOp op;
  op.kind = LogOp::Kind::kUpsert;
  op.table_id = 0;
  op.pk = {Value::Int(1)};
  op.data = KvRow(1, "fresh", 0);
  rec.ops.push_back(op);
  log.Append(rec);

  // Within the lag window the replica must not see the row.
  SleepMicros(5000);
  EXPECT_FALSE(cols.table(0)->Get({Value::Int(1)}).has_value());
  EXPECT_EQ(cols.replicated_ts(), 0u);

  rep.CatchUp();
  EXPECT_TRUE(cols.table(0)->Get({Value::Int(1)}).has_value());
  EXPECT_EQ(cols.replicated_ts(), 1u);
  rep.Stop();
}

TEST(Replicator, EventualVisibilityWithoutCatchUp) {
  ColumnStore cols;
  CommitLog log;
  cols.AddTable(0, KvSchema());
  Replicator rep(&log, &cols, /*lag_micros=*/2000, /*poll_micros=*/200);
  rep.Start();
  CommitRecord rec;
  rec.commit_ts = 7;
  rec.commit_wall_us = NowMicros();
  LogOp op;
  op.kind = LogOp::Kind::kUpsert;
  op.table_id = 0;
  op.pk = {Value::Int(3)};
  op.data = KvRow(3, "x", 0);
  rec.ops.push_back(op);
  log.Append(rec);
  int64_t deadline = NowMicros() + 2000000;
  while (cols.replicated_ts() < 7 && NowMicros() < deadline) {
    SleepMicros(500);
  }
  EXPECT_EQ(cols.replicated_ts(), 7u);
  rep.Stop();
}

TEST(Replicator, StopDrainsRecordsAlreadyDue) {
  // Regression: a record appended while the shipping thread sleeps between
  // polls must not be lost when Stop() flips the flag before the next poll
  // — the stop path performs one final bounded apply of everything already
  // older than the lag.
  ColumnStore cols;
  CommitLog log;
  cols.AddTable(0, KvSchema());
  // Poll far apart so the thread is (almost surely) asleep when we append.
  Replicator rep(&log, &cols, /*lag_micros=*/0, /*poll_micros=*/500000);
  rep.Start();
  SleepMicros(10000);  // let the thread finish its initial apply and sleep

  CommitRecord rec;
  rec.commit_ts = 5;
  rec.commit_wall_us = NowMicros();
  LogOp op;
  op.kind = LogOp::Kind::kUpsert;
  op.table_id = 0;
  op.pk = {Value::Int(9)};
  op.data = KvRow(9, "tail", 1);
  rec.ops.push_back(op);
  log.Append(rec);

  rep.Stop();
  EXPECT_EQ(cols.replicated_ts(), 5u);
  EXPECT_TRUE(cols.table(0)->Get({Value::Int(9)}).has_value());
}

TEST(Replicator, StopKeepsRecordsStillInsideLagWindow) {
  // The stop drain is bounded by the lag: a commit younger than the lag
  // stays invisible (CatchUp is the explicit override).
  ColumnStore cols;
  CommitLog log;
  cols.AddTable(0, KvSchema());
  Replicator rep(&log, &cols, /*lag_micros=*/60000000, /*poll_micros=*/200);
  rep.Start();
  CommitRecord rec;
  rec.commit_ts = 3;
  rec.commit_wall_us = NowMicros();
  LogOp op;
  op.kind = LogOp::Kind::kUpsert;
  op.table_id = 0;
  op.pk = {Value::Int(1)};
  op.data = KvRow(1, "young", 0);
  rec.ops.push_back(op);
  log.Append(rec);
  rep.Stop();
  EXPECT_EQ(cols.replicated_ts(), 0u);
  EXPECT_FALSE(cols.table(0)->Get({Value::Int(1)}).has_value());
}

// --------------------------------- RowStore --------------------------------

TEST(RowStore, CreateAndResolve) {
  RowStore store;
  auto id = store.CreateTable(KvSchema());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*store.TableId("KV"), *id);  // case-insensitive
  EXPECT_FALSE(store.CreateTable(KvSchema()).ok());
  EXPECT_FALSE(store.TableId("nope").ok());
  EXPECT_NE(store.table(*id), nullptr);
  EXPECT_EQ(store.table(99), nullptr);
  EXPECT_EQ(store.num_tables(), 1);
}

}  // namespace
}  // namespace olxp::storage
