// Parity and routing tests for the vectorized columnar execution engine
// (src/exec/), the replica's only executor: every analytical query shape
// must produce exactly the same result set on the replica as the row-store
// interpreter gives at the same (quiesced, caught-up) state, including
// after deletes recycle column-store slots. The same checks therefore also
// check that the two stores agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/session.h"
#include "tests/result_strings.h"

namespace olxp {
namespace {

engine::EngineProfile TestProfile() {
  auto p = engine::EngineProfile::TiDbLike();
  p.olap_row_fraction = 0.0;  // deterministic routing
  p.replication_lag_micros = 0;
  return p;
}

/// Runs `sql` on the row-store interpreter (the reference) and on the
/// replica's vectorized engine (ReplicaExecute: no router in between) at
/// exec_threads 1, 2 and 8, asserting identical results everywhere: every
/// thread count must match the row store, and the parallel runs must match
/// the serial run row-for-row (morsel partials merge in scan order, so even
/// "unordered" output order is reproduced exactly). `ordered` compares
/// against the row store row-for-row; otherwise that comparison uses sorted
/// multisets (hash-group output order is engine-dependent).
void ExpectParity(engine::Database& db, engine::Session& s,
                  const std::string& sql,
                  std::initializer_list<Value> params = {},
                  bool ordered = false) {
  SCOPED_TRACE(sql);
  const int orig_threads = db.profile().exec_threads;
  const std::span<const Value> args(params.begin(), params.end());

  auto interp = RowStoreExecute(s, sql, args);
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();
  EXPECT_EQ(s.last_route(), engine::RoutedStore::kRowStore);
  std::vector<std::string> b = Stringify(*interp);
  if (!ordered) std::sort(b.begin(), b.end());

  std::vector<std::string> serial_rows;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    db.set_exec_threads(threads);
    auto vec = ReplicaExecute(db, sql, args);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();

    EXPECT_EQ(vec->column_names, interp->column_names);
    std::vector<std::string> a = Stringify(*vec);
    if (threads == 1) {
      serial_rows = a;
    } else {
      EXPECT_EQ(a, serial_rows);  // parallel == serial, including order
    }
    if (!ordered) std::sort(a.begin(), a.end());
    EXPECT_EQ(a, b);
  }
  db.set_exec_threads(orig_threads);
}

/// The parity table: 2500 rows, so the replica holds two sealed (encoded)
/// blocks and a boxed tail, and every shape reads both storage forms at
/// each swept thread count.
class ExecParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<engine::Database>(TestProfile());
    s_ = db_->CreateSession();
    s_->set_charging_enabled(false);
    ASSERT_TRUE(s_->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT, "
                            "c DOUBLE, d VARCHAR, e INT)")
                    .ok());
    Rng rng(42);
    const char* tags[] = {"alpha", "beta", "gamma", "ab_x", "ab_y"};
    for (int a = 1; a <= 2500; ++a) {
      std::vector<Value> row;
      row.push_back(Value::Int(a));
      // NULLs sprinkled through every non-key column.
      row.push_back(a % 17 == 0 ? Value::Null()
                                : Value::Int(rng.Uniform(int64_t{0},
                                                         int64_t{1000})));
      row.push_back(a % 23 == 0 ? Value::Null()
                                : Value::Double(rng.Uniform(0.0, 1.0)));
      row.push_back(a % 29 == 0 ? Value::Null()
                                : Value::String(tags[a % 5]));
      row.push_back(Value::Int(a % 7));
      auto st = s_->Execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
    }
    db_->WaitReplicaCaughtUp();
    auto tid = db_->TableId("t");
    ASSERT_TRUE(tid.ok());
    ASSERT_GE(db_->column_store().table(*tid)->SealedBlockCount(), 2u);
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<engine::Session> s_;
};

TEST_F(ExecParityTest, FiltersAndProjections) {
  ExpectParity(*db_, *s_, "SELECT * FROM t WHERE b > 500");
  ExpectParity(*db_, *s_, "SELECT a, b FROM t WHERE b BETWEEN 100 AND 300 "
                          "AND c < 0.5");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE d LIKE 'ab%'");
  ExpectParity(*db_, *s_, "SELECT a, b FROM t WHERE b IN (1, 2, 3, 4, 5)");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE b IS NULL");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE d IS NOT NULL AND e = 3");
  ExpectParity(*db_, *s_, "SELECT -b, b + e, b * 2, b / 4, b % 5 FROM t "
                          "WHERE a <= 50");
  ExpectParity(*db_, *s_,
               "SELECT a, CASE WHEN b < 100 THEN 'lo' WHEN b < 500 THEN "
               "'mid' ELSE 'hi' END FROM t WHERE b IS NOT NULL");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE NOT (b < 500) OR e = 1");
  // A string operand is false wherever truthiness applies.
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE NOT d");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE d OR e = 1");
  ExpectParity(*db_, *s_, "SELECT a, CASE WHEN d THEN 1 ELSE 2 END FROM t");
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t WHERE b > ?",
               {Value::Int(250)});
}

TEST_F(ExecParityTest, Aggregates) {
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t");
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), COUNT(b), SUM(b), AVG(c), MIN(b), MAX(c), "
               "MIN(d), MAX(d) FROM t");
  ExpectParity(*db_, *s_, "SELECT SUM(b + e), AVG(b * 2), COUNT(c) FROM t "
                          "WHERE e <> 0");
  // Global aggregate over empty input still yields one row.
  ExpectParity(*db_, *s_, "SELECT SUM(b), COUNT(*) FROM t WHERE b > 100000");
}

TEST_F(ExecParityTest, GroupByHavingOrderLimit) {
  ExpectParity(*db_, *s_, "SELECT d, COUNT(*), SUM(b) FROM t GROUP BY d "
                          "ORDER BY d", {}, /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT e, AVG(b) FROM t GROUP BY e "
                          "HAVING COUNT(*) > 10 ORDER BY e", {},
               /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT a % 10, COUNT(*) FROM t GROUP BY a % 10");
  ExpectParity(*db_, *s_, "SELECT e, SUM(b) AS total FROM t GROUP BY e "
                          "ORDER BY total DESC LIMIT 3", {},
               /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT DISTINCT e FROM t");
  ExpectParity(*db_, *s_, "SELECT b, c FROM t WHERE b IS NOT NULL "
                          "ORDER BY a LIMIT 20", {}, /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE e = 2 LIMIT 5", {},
               /*ordered=*/true);
}

TEST_F(ExecParityTest, PostDeleteSlotReuseParity) {
  // Delete a third of the rows, then insert fresh keys that recycle the
  // freed column-store slots; the vectorized scan must skip dead slots and
  // see recycled ones exactly like the interpreter.
  ASSERT_TRUE(s_->Execute("DELETE FROM t WHERE a % 3 = 0").ok());
  db_->WaitReplicaCaughtUp();
  ExpectParity(*db_, *s_, "SELECT COUNT(*), SUM(b), MIN(a), MAX(a) FROM t");

  for (int a = 5000; a < 5200; ++a) {
    ASSERT_TRUE(s_->Execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                            {Value::Int(a), Value::Int(a - 5000),
                             Value::Double(0.25), Value::String("reused"),
                             Value::Int(a % 7)})
                    .ok());
  }
  db_->WaitReplicaCaughtUp();
  ExpectParity(*db_, *s_, "SELECT COUNT(*), SUM(b) FROM t");
  ExpectParity(*db_, *s_, "SELECT * FROM t WHERE d = 'reused'");
  ExpectParity(*db_, *s_, "SELECT d, COUNT(*) FROM t GROUP BY d");
}

/// Reads the router counter for statements the replica could not serve.
int64_t ReplicaUnsupported(engine::Database& db) {
  return db.metrics().GetCounter("router.replica_unsupported_to_row")->Value();
}

TEST_F(ExecParityTest, UnsupportedShapesFallBackToInterpreter) {
  ASSERT_TRUE(s_->Execute("CREATE TABLE u (k INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(s_->Execute("INSERT INTO u VALUES (1, 10), (2, 20)").ok());
  db_->WaitReplicaCaughtUp();

  // Equi-joins vectorize (the hash-join path); parity is checked in the
  // join suite below. Non-equi joins have no hash key: the router sends
  // them to the row store's interpreter.
  auto equi = s_->Execute("SELECT COUNT(*) FROM t, u WHERE t.e = u.k");
  ASSERT_TRUE(equi.ok()) << equi.status().ToString();
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kColumnStore);
  const int64_t refused = ReplicaUnsupported(*db_);
  auto nonequi = s_->Execute("SELECT COUNT(*) FROM t, u WHERE t.e < u.k");
  ASSERT_TRUE(nonequi.ok()) << nonequi.status().ToString();
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kRowStore);
  EXPECT_EQ(ReplicaUnsupported(*db_), refused + 1);

  // Uncorrelated subqueries vectorize (see UncorrelatedSubqueries below).
  auto sub = s_->Execute("SELECT a FROM t WHERE b = (SELECT MAX(v) FROM u)");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kColumnStore);

  // Inside a transaction everything pins to the row store.
  ASSERT_TRUE(s_->Begin().ok());
  auto txn_q = s_->Execute("SELECT SUM(b) FROM t");
  ASSERT_TRUE(txn_q.ok());
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kRowStore);
  ASSERT_TRUE(s_->Commit().ok());
  EXPECT_EQ(ReplicaUnsupported(*db_), refused + 1);
}

TEST_F(ExecParityTest, MixedTypeCaseFallsBackToInterpreter) {
  // CASE branches with different payload families (INT column vs DOUBLE
  // column) must not be promoted to one vector type: the interpreter
  // returns each row with its picked branch's own type, so the vectorized
  // engine refuses the chunk and the statement re-runs on the row store.
  const std::string q =
      "SELECT a, CASE WHEN e > 3 THEN b ELSE c END FROM t "
      "WHERE b IS NOT NULL AND c IS NOT NULL";
  auto interp = RowStoreExecute(*s_, q);
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    db_->set_exec_threads(threads);
    auto vec = ReplicaExecute(*db_, q);
    ASSERT_FALSE(vec.ok());
    EXPECT_EQ(vec.status().code(), StatusCode::kUnsupported);
    const int64_t refused = ReplicaUnsupported(*db_);
    auto routed = s_->Execute(q);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(s_->last_route(), engine::RoutedStore::kRowStore);
    EXPECT_EQ(ReplicaUnsupported(*db_), refused + 1);
    EXPECT_EQ(Stringify(*routed), Stringify(*interp));
  }
}

/// Subquery table for the subquery cases: NULLs in `v`, and values that do
/// and do not occur in t.b / t.e.
void CreateSubqueryTable(engine::Database& db, engine::Session& s) {
  ASSERT_TRUE(s.Execute("CREATE TABLE u (k INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO u VALUES (1, 100), (2, NULL), "
                        "(3, 250), (4, 7), (5, NULL), (6, 3)")
                  .ok());
  db.WaitReplicaCaughtUp();
}

TEST_F(ExecParityTest, UncorrelatedSubqueries) {
  CreateSubqueryTable(*db_, *s_);
  // Scalar subqueries in a filter (statement parameters reach the
  // subquery too).
  ExpectParity(*db_, *s_, "SELECT a, b FROM t WHERE b > (SELECT AVG(v) "
                          "FROM u)");
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(b) FROM t WHERE b < (SELECT MAX(v) "
               "FROM u WHERE k > ?) AND e <> ?",
               {Value::Int(2), Value::Int(3)});
  // An empty scalar subquery is NULL: comparisons with it are false.
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t WHERE b = (SELECT v FROM u "
                          "WHERE k < 0)");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE (SELECT v FROM u WHERE "
                          "k < 0) IS NULL AND a < 20");
  // Post-aggregation positions: projection and HAVING.
  ExpectParity(*db_, *s_, "SELECT (SELECT MAX(v) FROM u), COUNT(*) FROM t");
  ExpectParity(*db_, *s_,
               "SELECT e, COUNT(*) FROM t GROUP BY e HAVING SUM(b) > "
               "(SELECT MAX(v) FROM u) * 250 ORDER BY e",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT a, b - (SELECT MIN(v) FROM u) FROM t "
                          "WHERE a <= 30");
  // IN / NOT IN with NULLs in the subquery result and in the probe column
  // (b): a NULL operand is never a member, and NOT IN negates.
  ExpectParity(*db_, *s_, "SELECT a, b FROM t WHERE b IN (SELECT v FROM u)");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE b NOT IN (SELECT v FROM u)");
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t WHERE e IN (SELECT k FROM u "
                          "WHERE v IS NULL)");
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t WHERE e NOT IN (SELECT k "
                          "FROM u WHERE v > 5)");
  // DOUBLE members against an INT probe, and an empty member set.
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t WHERE b IN (SELECT v / 1.0 "
                          "FROM u)");
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t WHERE b NOT IN (SELECT v "
                          "FROM u WHERE k < 0)");
  // A subquery nested in a subquery.
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t WHERE e IN (SELECT k FROM "
                          "u WHERE v < (SELECT AVG(v) FROM u))");
  EXPECT_EQ(ReplicaUnsupported(*db_), 0);
}

TEST_F(ExecParityTest, MultiRowScalarSubqueryIsRejectedOnBothStores) {
  CreateSubqueryTable(*db_, *s_);
  // More than one row has no single value; taking the first would make the
  // answer depend on the store's scan order. The replica rejects it (the
  // session re-runs it on the row store, which rejects it too) even when
  // no row ever evaluates the comparison.
  for (const char* q :
       {"SELECT a FROM t WHERE b = (SELECT v FROM u)",
        "SELECT a FROM t WHERE a < 0 AND b = (SELECT v FROM u WHERE k > 4)",
        "SELECT (SELECT k FROM u), COUNT(*) FROM t"}) {
    SCOPED_TRACE(q);
    const int64_t refused = ReplicaUnsupported(*db_);
    auto col = s_->Execute(q);
    ASSERT_FALSE(col.ok());
    EXPECT_EQ(col.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(ReplicaUnsupported(*db_), refused + 1);
    auto row = RowStoreExecute(*s_, q);
    ASSERT_FALSE(row.ok());
    EXPECT_EQ(row.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ExecParityChunks, CrossChunkCaseTypeFlipKeepsMinMaxExact) {
  // An expression's vector type can flip between scan chunks when one CASE
  // branch is all-NULL in a chunk: slots 0..1023 hold only DOUBLE values
  // (2.4 / 1.6), slots 1024.. hold only INT values (2). MIN must compare
  // 2 < 2.4 exactly — an int-rounded comparison would keep 2.4.
  engine::Database db(TestProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE m (k INT PRIMARY KEY, i INT, "
                         "d1 DOUBLE, d2 DOUBLE, g INT)")
                  .ok());
  for (int k = 0; k < 1500; ++k) {
    std::vector<Value> row;
    row.push_back(Value::Int(k));
    if (k < 1024) {
      row.push_back(Value::Null());
      row.push_back(Value::Double(2.4));
      row.push_back(Value::Double(1.6));
    } else {
      row.push_back(Value::Int(2));
      row.push_back(Value::Null());
      row.push_back(Value::Null());
    }
    row.push_back(Value::Int(k % 3));
    ASSERT_TRUE(s->Execute("INSERT INTO m VALUES (?, ?, ?, ?, ?)", row).ok());
  }
  db.WaitReplicaCaughtUp();

  auto rs = s->Execute(
      "SELECT g, MIN(CASE WHEN i IS NULL THEN d1 ELSE i END), "
      "MAX(CASE WHEN i IS NULL THEN d2 ELSE i END) FROM m GROUP BY g "
      "ORDER BY g");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
  ASSERT_EQ(rs->rows.size(), 3u);
  for (const Row& r : rs->rows) {
    EXPECT_EQ(r[1].ToString(), "2");    // INT 2 < DOUBLE 2.4
    EXPECT_EQ(r[2].ToString(), "2");    // INT 2 > DOUBLE 1.6
  }
  ExpectParity(db, *s,
               "SELECT g, MIN(CASE WHEN i IS NULL THEN d1 ELSE i END), "
               "MAX(CASE WHEN i IS NULL THEN d2 ELSE i END) FROM m "
               "GROUP BY g ORDER BY g",
               {}, /*ordered=*/true);
}

TEST_F(ExecParityTest, StringPredicateRunsOnReplica) {
  // A bare string-typed WHERE conjunct is false on every row, on the
  // replica as on the row store.
  const int64_t refused = ReplicaUnsupported(*db_);
  auto rs = s_->Execute("SELECT COUNT(*) FROM t WHERE d");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kColumnStore);
  EXPECT_EQ(rs->rows[0][0].ToString(), "0");
  EXPECT_EQ(ReplicaUnsupported(*db_), refused);
}

TEST_F(ExecParityTest, NegationOfStringIsRejectedOnBothStores) {
  auto col = s_->Execute("SELECT -d FROM t");
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kInvalidArgument);
  auto row = RowStoreExecute(*s_, "SELECT -d FROM t");
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecParityTest, OperandPairsFollowOneScalarSemantics) {
  // Every pair (x, y) of the INT edge values, each beside a DOUBLE f of
  // 0.0 or 2.5; the 36 pairs repeat past one sealed block so both the
  // encoded and the raw column forms sit under the kernels.
  const Value kInts[] = {Value::Null(),
                         Value::Int(0),
                         Value::Int(-1),
                         Value::Int(1),
                         Value::Int(std::numeric_limits<int64_t>::min()),
                         Value::Int(std::numeric_limits<int64_t>::max())};
  ASSERT_TRUE(s_->Execute("CREATE TABLE ops (k INT PRIMARY KEY, x INT, "
                          "y INT, f DOUBLE)")
                  .ok());
  for (int k = 0; k < 1100; ++k) {
    const int pair = k % 36;
    ASSERT_TRUE(s_->Execute("INSERT INTO ops VALUES (?, ?, ?, ?)",
                            {Value::Int(k), kInts[pair / 6], kInts[pair % 6],
                             Value::Double(pair % 2 == 0 ? 0.0 : 2.5)})
                    .ok());
  }
  db_->WaitReplicaCaughtUp();

  const char* kArith =
      "SELECT k, x + y, x - y, x * y, x / y, x % y, x + f, x - f, x * f, "
      "x / f, x % f, f % y, -x, -f FROM ops";
  ExpectParity(*db_, *s_, kArith);
  ExpectParity(*db_, *s_,
               "SELECT k, x = y, x <> y, x < y, x <= y, x > y, x >= y, "
               "x < f, f >= y FROM ops");
  ExpectParity(*db_, *s_, "SELECT k FROM ops WHERE x >= y AND f < x");
  ExpectParity(*db_, *s_, "SELECT k FROM ops WHERE x < 0 OR y = -1");

  // The spec, independent of either executor: overflow, x / 0 and x % 0
  // are NULL; x % -1 is 0 even for INT64_MIN; division is DOUBLE.
  auto rs = ReplicaExecute(*db_, std::string(kArith) +
                                     " WHERE k < 36 ORDER BY k");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 36u);
  const auto cell = [&](int x, int y, int col) {
    return rs->rows[x * 6 + y][col].ToString();
  };
  constexpr int kZero = 1, kMinus1 = 2, kOne = 3, kMin = 4, kMax = 5;
  EXPECT_EQ(cell(kMax, kOne, 1), "NULL");       // MAX + 1
  EXPECT_EQ(cell(kMin, kOne, 2), "NULL");       // MIN - 1
  EXPECT_EQ(cell(kMin, kMinus1, 3), "NULL");    // MIN * -1
  EXPECT_EQ(cell(kMax, kMax, 3), "NULL");       // MAX * MAX
  EXPECT_EQ(cell(kMax, kMinus1, 3),             // MAX * -1 fits
            std::to_string(-std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(cell(kOne, kZero, 4), "NULL");      // 1 / 0
  EXPECT_EQ(cell(kOne, kZero, 5), "NULL");      // 1 % 0
  EXPECT_EQ(cell(kMin, kMinus1, 5), "0");       // MIN % -1
  EXPECT_EQ(cell(kOne, kMinus1, 4), "-1.0");    // 1 / -1, a DOUBLE
  EXPECT_EQ(cell(kOne, kOne, 10), "1.0");       // 1 % 2.5
  EXPECT_EQ(cell(kOne, kZero, 11), "NULL");     // 2.5 % 0 (f = 2.5 at odd k)
  EXPECT_EQ(cell(kMin, kZero, 12), "NULL");     // -MIN
  EXPECT_EQ(cell(kMax, kZero, 12),
            std::to_string(-std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(cell(kZero, kMinus1, 9), "NULL");   // 0 / 0.0 (f = 0.0 at even k)
}

TEST_F(ExecParityTest, SnapshotWatermarkIsReported) {
  auto rs = s_->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kColumnStore);
  // The replica is fully caught up, so the statement executed "as of" the
  // current replication watermark.
  EXPECT_EQ(s_->last_snapshot_ts(), db_->column_store().replicated_ts());
  EXPECT_GT(s_->last_snapshot_ts(), 0u);
}

/// A column that is neither grouped nor determined by a grouped primary
/// key has no single value per group. Taking the group's first row made
/// the answer depend on scan order: pk order on the row store, slot order
/// on the replica, where freed tail slots are reused.
TEST(GroupingRule, NonGroupedColumnIsRejectedOnBothStores) {
  engine::Database db(TestProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(
      s->Execute("CREATE TABLE t (k INT PRIMARY KEY, g INT, v INT)").ok());
  for (int k = 0; k < 300; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?, ?)",
                           {Value::Int(k), Value::Int(k % 3), Value::Int(k)})
                    .ok());
  }
  ASSERT_TRUE(s->Execute("DELETE FROM t WHERE k < 3").ok());
  for (int k = 1000; k <= 1002; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?, ?)",
                           {Value::Int(k), Value::Int(k % 3), Value::Int(k)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();

  for (const char* q :
       {"SELECT g, v FROM t GROUP BY g ORDER BY g",
        "SELECT g, COUNT(*) FROM t GROUP BY g HAVING v > 0",
        "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY v",
        "SELECT v + 1, COUNT(*) FROM t GROUP BY g",
        "SELECT v, COUNT(*) FROM t"}) {
    SCOPED_TRACE(q);
    auto row = RowStoreExecute(*s, q);
    ASSERT_FALSE(row.ok());
    EXPECT_EQ(row.status().code(), StatusCode::kInvalidArgument);
    auto col = s->Execute(q);
    ASSERT_FALSE(col.ok());
    EXPECT_EQ(col.status().code(), StatusCode::kInvalidArgument);
  }
  // Allowed: a column inside a grouped expression, and any column of a
  // table whose primary key is grouped.
  ExpectParity(db, *s, "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g");
  ExpectParity(db, *s, "SELECT k % 2, COUNT(*) FROM t GROUP BY k % 2");
  ExpectParity(db, *s, "SELECT k, v, g FROM t GROUP BY k");
}

// ------------------------- hash-join parity suite --------------------------

/// Star-ish schema: `cust` (dimension), `ord` (fact, with NULL join keys
/// sprinkled in), `item` (second dimension). Every query below must produce
/// identical results through the vectorized hash join on the replica and
/// the interpreter's nested-loop join on the row store.
class JoinParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<engine::Database>(TestProfile());
    s_ = db_->CreateSession();
    s_->set_charging_enabled(false);
    ASSERT_TRUE(s_->Execute("CREATE TABLE cust (id INT PRIMARY KEY, "
                            "region INT, name VARCHAR, credit DOUBLE)")
                    .ok());
    ASSERT_TRUE(s_->Execute("CREATE TABLE ord (oid INT PRIMARY KEY, "
                            "cust_id INT, item_id INT, qty INT, "
                            "amount DOUBLE)")
                    .ok());
    ASSERT_TRUE(s_->Execute("CREATE TABLE item (iid INT PRIMARY KEY, "
                            "grp INT, price DOUBLE)")
                    .ok());
    Rng rng(7);
    const char* names[] = {"ada", "bo", "cy", "dee", "eli"};
    for (int id = 1; id <= 211; ++id) {
      ASSERT_TRUE(
          s_->Execute("INSERT INTO cust VALUES (?, ?, ?, ?)",
                      {Value::Int(id), Value::Int(id % 7),
                       Value::String(names[id % 5]),
                       Value::Double(rng.Uniform(0.0, 1.0))})
              .ok());
    }
    for (int iid = 0; iid < 50; ++iid) {
      ASSERT_TRUE(s_->Execute("INSERT INTO item VALUES (?, ?, ?)",
                              {Value::Int(iid), Value::Int(iid % 4),
                               Value::Double((iid % 5) + 1.0)})
                      .ok());
    }
    for (int oid = 1; oid <= 853; ++oid) {
      std::vector<Value> row;
      row.push_back(Value::Int(oid));
      // NULL join keys and dangling references (cust ids above 211) must
      // drop the row from the join in both engines.
      row.push_back(oid % 19 == 0
                        ? Value::Null()
                        : Value::Int(rng.Uniform(int64_t{1}, int64_t{260})));
      row.push_back(Value::Int(rng.Uniform(int64_t{0}, int64_t{199})));
      row.push_back(Value::Int(rng.Uniform(int64_t{1}, int64_t{5})));
      row.push_back(Value::Double(rng.Uniform(1.0, 300.0)));
      ASSERT_TRUE(
          s_->Execute("INSERT INTO ord VALUES (?, ?, ?, ?, ?)", row).ok());
    }
    db_->WaitReplicaCaughtUp();
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<engine::Session> s_;
};

TEST_F(JoinParityTest, TwoTableEquiJoins) {
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(o.amount) FROM ord o, cust c "
               "WHERE o.cust_id = c.id");
  ExpectParity(*db_, *s_,
               "SELECT o.oid, c.name FROM ord o JOIN cust c "
               "ON o.cust_id = c.id WHERE c.region = 2 AND o.qty > 2");
  ExpectParity(*db_, *s_,
               "SELECT o.oid, o.amount * c.credit FROM ord o JOIN cust c "
               "ON o.cust_id = c.id WHERE c.credit > 0.25");
  // Join key flipped around the equality: same plan either way.
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM cust c JOIN ord o ON c.id = o.cust_id");
}

TEST_F(JoinParityTest, JoinAggregatesAndOrdering) {
  ExpectParity(*db_, *s_,
               "SELECT c.region, COUNT(*), SUM(o.amount), MAX(o.qty) "
               "FROM ord o JOIN cust c ON o.cust_id = c.id "
               "GROUP BY c.region ORDER BY c.region",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT c.name, AVG(o.amount) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id GROUP BY c.name "
               "HAVING COUNT(*) > 10 ORDER BY c.name",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT o.oid, c.name FROM ord o JOIN cust c "
               "ON o.cust_id = c.id WHERE c.credit > 0.5 "
               "ORDER BY o.oid LIMIT 20",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT DISTINCT c.region FROM ord o JOIN cust c "
               "ON o.cust_id = c.id");
}

TEST_F(JoinParityTest, ThreeTableJoin) {
  ExpectParity(*db_, *s_,
               "SELECT i.grp, COUNT(*), SUM(o.qty * i.price) "
               "FROM ord o JOIN cust c ON o.cust_id = c.id "
               "JOIN item i ON i.iid = o.item_id % 50 "
               "WHERE c.region <> 1 GROUP BY i.grp ORDER BY i.grp",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id JOIN item i ON i.iid = o.item_id % 50 "
               "AND i.grp = o.qty % 4");
}

TEST_F(JoinParityTest, CompositeAndCrossFamilyKeys) {
  // Composite hash key (two equi conjuncts on one step).
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(o.amount) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id AND o.qty = c.region");
  // DOUBLE build key probed with an INT expression: Value semantics equate
  // integral doubles with ints, and so must the hash table.
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(i.price) FROM ord o JOIN item i "
               "ON i.price = o.qty");
  // Equi key plus a non-equi residual re-checked after the join.
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id AND o.amount > c.credit * 100");
}

TEST_F(JoinParityTest, GroupedJoinColumnsFollowTheGroupingRule) {
  // c.credit is neither grouped nor determined by a grouped key: its
  // per-group value would be whichever joined tuple came first, which
  // differs between the stores, so both reject the statement.
  const std::string bare =
      "SELECT c.region, c.credit, COUNT(*) FROM cust c "
      "JOIN ord o ON o.cust_id = c.id GROUP BY c.region ORDER BY c.region";
  auto row = RowStoreExecute(*s_, bare);
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kInvalidArgument);
  auto col = ReplicaExecute(*db_, bare);
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kInvalidArgument);
  // Grouping cust's primary key determines every cust column.
  ExpectParity(*db_, *s_,
               "SELECT c.id, c.name, c.credit, COUNT(*) FROM cust c "
               "JOIN ord o ON o.cust_id = c.id GROUP BY c.id ORDER BY c.id",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT c.region % 3, SUM(o.amount) FROM cust c "
               "JOIN ord o ON o.cust_id = c.id GROUP BY c.region % 3 "
               "HAVING MAX(o.qty) > 1 ORDER BY c.region % 3",
               {}, /*ordered=*/true);
}

TEST_F(JoinParityTest, SubqueriesInJoinFilters) {
  // The chbench Q17 shape: a scalar subquery in the build side's filter
  // (item is the smaller side, so it builds).
  ExpectParity(*db_, *s_,
               "SELECT SUM(o.amount) / 2.0 FROM ord o JOIN item i "
               "ON i.iid = o.item_id WHERE i.price < (SELECT AVG(price) "
               "FROM item)");
  // IN subquery on the build side, scalar subquery on the stream side.
  ExpectParity(*db_, *s_,
               "SELECT c.region, COUNT(*) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id WHERE c.region IN (SELECT grp FROM item "
               "WHERE price > 3.0) AND o.qty > (SELECT MIN(grp) FROM item) "
               "GROUP BY c.region ORDER BY c.region",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM ord o JOIN cust c ON o.cust_id = c.id "
               "WHERE o.item_id NOT IN (SELECT iid FROM item WHERE grp = 1)");
}

TEST_F(JoinParityTest, NullKeysNeverJoin) {
  // The NULL cust_ids must not match anything (NULL = NULL is false).
  auto joined = s_->Execute(
      "SELECT COUNT(*) FROM ord o JOIN cust c ON o.cust_id = c.id "
      "AND c.id IS NULL");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kColumnStore);
  EXPECT_EQ(joined->rows[0][0].AsInt(), 0);
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM ord o JOIN cust c ON o.cust_id = c.id");
}

TEST_F(JoinParityTest, PostDeleteSlotReuseParity) {
  // Free build-side slots and recycle them: the hash build must skip dead
  // slots and see recycled ones exactly like the interpreter.
  ASSERT_TRUE(s_->Execute("DELETE FROM cust WHERE id % 3 = 0").ok());
  db_->WaitReplicaCaughtUp();
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(o.amount) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id");
  for (int id = 500; id < 560; ++id) {
    ASSERT_TRUE(s_->Execute("INSERT INTO cust VALUES (?, ?, ?, ?)",
                            {Value::Int(id), Value::Int(id % 7),
                             Value::String("reborn"), Value::Double(0.5)})
                    .ok());
  }
  db_->WaitReplicaCaughtUp();
  ExpectParity(*db_, *s_,
               "SELECT c.name, COUNT(*) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id GROUP BY c.name");
}

TEST_F(JoinParityTest, JoinInsideTransactionPinsToRowStore) {
  ASSERT_TRUE(s_->Begin().ok());
  auto rs = s_->Execute(
      "SELECT COUNT(*) FROM ord o JOIN cust c ON o.cust_id = c.id");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kRowStore);
  ASSERT_TRUE(s_->Commit().ok());
}

/// The acceptance shape: a 2-table equi-join + aggregate over a >=100k-row
/// build side routes to the replica, runs vectorized, and matches the
/// row-store interpreter exactly.
TEST(JoinAtScale, LargeBuildSideVectorizesWithParity) {
  engine::Database db(TestProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE dim (id INT PRIMARY KEY, bucket INT)")
                  .ok());
  ASSERT_TRUE(s->Execute("CREATE TABLE fact (fid INT PRIMARY KEY, "
                         "dim_id INT, v INT)")
                  .ok());
  constexpr int kDim = 100000;
  constexpr int kFact = 120000;
  Rng rng(11);
  for (int i = 0; i < kDim; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO dim VALUES (?, ?)",
                           {Value::Int(i), Value::Int(i % 97)})
                    .ok());
  }
  for (int i = 0; i < kFact; ++i) {
    ASSERT_TRUE(
        s->Execute("INSERT INTO fact VALUES (?, ?, ?)",
                   {Value::Int(i),
                    Value::Int(rng.Uniform(int64_t{0}, int64_t{kDim - 1})),
                    Value::Int(i % 1000)})
            .ok());
  }
  db.WaitReplicaCaughtUp();

  const std::string q =
      "SELECT d.bucket, COUNT(*), SUM(f.v) FROM fact f JOIN dim d "
      "ON f.dim_id = d.id GROUP BY d.bucket ORDER BY d.bucket";
  auto interp = RowStoreExecute(*s, q);
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();

  // The at-scale join must agree with the row store at every lane count
  // (serial probe and morsel-parallel probe over the shared build table).
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    db.set_exec_threads(threads);
    auto vec = s->Execute(q);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
    ASSERT_EQ(vec->rows.size(), 97u);
    EXPECT_EQ(Stringify(*vec), Stringify(*interp));
  }
}

TEST(ExecRouting, IndexedJoinDriverRoutesToRowStore) {
  auto profile = TestProfile();
  engine::Database db(profile);
  // This test asserts the SERIAL cost crossover; pin it even when the
  // environment (CI's OLXP_EXEC_THREADS) forces a pool onto every
  // instance. Parallel routing is covered in parallel_exec_test.cc.
  db.set_exec_threads(1);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE a (k INT PRIMARY KEY, r INT)").ok());
  ASSERT_TRUE(s->Execute("CREATE TABLE b (k INT PRIMARY KEY, v INT)").ok());
  for (int k = 0; k < 400; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO a VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k % 50)})
                    .ok());
    ASSERT_TRUE(s->Execute("INSERT INTO b VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k * 3)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();

  // Full-scan join: the replica (vectorized hash join) wins.
  ASSERT_TRUE(
      s->Execute("SELECT SUM(b.v) FROM a, b WHERE a.r = b.k").ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);

  // Point-driven join (pk point on the driver, pk seek per inner row):
  // seek-dominated on the row store, far below two full replica sweeps.
  ASSERT_TRUE(s->Execute("SELECT SUM(b.v) FROM a, b WHERE a.k = 7 "
                         "AND b.k = a.r")
                  .ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);
}

TEST(ExecRouting, CostBasedRouterPrefersRowStoreForIndexedShapes) {
  auto profile = TestProfile();
  engine::Database db(profile);
  db.set_exec_threads(1);  // serial crossover (see note above)
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE r (k INT PRIMARY KEY, v INT)").ok());
  for (int k = 0; k < 500; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO r VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k * 2)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();

  // Full-table analytical scan: replica wins.
  ASSERT_TRUE(s->Execute("SELECT SUM(v) FROM r").ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);

  // Pk-range shape: the row store serves it through the ordered pk index
  // for far less than a full replica sweep, so the cost router picks it.
  ASSERT_TRUE(s->Execute("SELECT SUM(v) FROM r WHERE k >= 10 AND k <= 20")
                  .ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);
}

}  // namespace
}  // namespace olxp
