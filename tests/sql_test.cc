#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/session.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace olxp {
namespace {

// --------------------------------- lexer -----------------------------------

TEST(Lexer, TokenKindsAndPositions) {
  auto toks = sql::Tokenize("SELECT a.b, 'it''s', 1.5e2, 42, ? FROM t;");
  ASSERT_TRUE(toks.ok());
  std::vector<sql::TokenKind> kinds;
  for (const auto& t : *toks) kinds.push_back(t.kind);
  using K = sql::TokenKind;
  std::vector<K> expect = {K::kKeyword,      K::kIdentifier, K::kDot,
                           K::kIdentifier,   K::kComma,      K::kStringLiteral,
                           K::kComma,        K::kDoubleLiteral, K::kComma,
                           K::kIntLiteral,   K::kComma,      K::kParam,
                           K::kKeyword,      K::kIdentifier, K::kSemicolon,
                           K::kEnd};
  EXPECT_EQ(kinds, expect);
  EXPECT_EQ((*toks)[5].text, "it's");  // '' escape
  EXPECT_DOUBLE_EQ((*toks)[7].double_val, 150.0);
}

TEST(Lexer, OperatorsAndComments) {
  auto toks = sql::Tokenize("a >= 1 AND b <> 2 -- trailing comment\n<= !=");
  ASSERT_TRUE(toks.ok());
  using K = sql::TokenKind;
  EXPECT_EQ((*toks)[1].kind, K::kGe);
  EXPECT_EQ((*toks)[5].kind, K::kNe);
  EXPECT_EQ((*toks)[7].kind, K::kLe);
  EXPECT_EQ((*toks)[8].kind, K::kNe);
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(sql::Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(sql::Tokenize("a @ b").ok());
  EXPECT_FALSE(sql::Tokenize("a ! b").ok());
}

// --------------------------------- parser ----------------------------------

TEST(Parser, SelectClauses) {
  auto stmt = sql::Parse(
      "SELECT DISTINCT a, SUM(b) AS total FROM t1, t2 x WHERE a = 1 AND "
      "b BETWEEN 2 AND 3 OR c LIKE 'x%' GROUP BY a HAVING COUNT(*) > 1 "
      "ORDER BY total DESC, a LIMIT 7");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& sel = std::get<sql::SelectStmt>(*stmt);
  EXPECT_TRUE(sel.distinct);
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[1].alias, "total");
  ASSERT_EQ(sel.from.size(), 2u);
  EXPECT_EQ(sel.from[1].alias, "x");
  ASSERT_NE(sel.where, nullptr);
  ASSERT_EQ(sel.group_by.size(), 1u);
  ASSERT_NE(sel.having, nullptr);
  ASSERT_EQ(sel.order_by.size(), 2u);
  EXPECT_TRUE(sel.order_by[0].desc);
  EXPECT_FALSE(sel.order_by[1].desc);
  EXPECT_EQ(sel.limit, 7);
}

TEST(Parser, JoinOnDesugarsToWhere) {
  auto stmt = sql::Parse(
      "SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y "
      "WHERE a.z > 0");
  ASSERT_TRUE(stmt.ok());
  const auto& sel = std::get<sql::SelectStmt>(*stmt);
  EXPECT_EQ(sel.from.size(), 3u);
  // where = ((a.x=b.x AND b.y=c.y) AND a.z>0) as conjuncts
  ASSERT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.where->kind, sql::ExprKind::kBinary);
  EXPECT_EQ(sel.where->binary_op, sql::BinaryOp::kAnd);
}

TEST(Parser, InsertUpdateDelete) {
  auto ins = sql::Parse(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(ins.ok());
  const auto& i = std::get<sql::InsertStmt>(*ins);
  EXPECT_EQ(i.columns.size(), 2u);
  EXPECT_EQ(i.rows.size(), 2u);

  auto upd = sql::Parse("UPDATE t SET a = a + 1, b = ? WHERE c = 2");
  ASSERT_TRUE(upd.ok());
  const auto& u = std::get<sql::UpdateStmt>(*upd);
  EXPECT_EQ(u.assignments.size(), 2u);
  ASSERT_NE(u.where, nullptr);

  auto del = sql::Parse("DELETE FROM t WHERE a IN (1, 2, 3)");
  ASSERT_TRUE(del.ok());
  EXPECT_NE(std::get<sql::DeleteStmt>(*del).where, nullptr);
}

TEST(Parser, CreateTableWithConstraints) {
  auto stmt = sql::Parse(
      "CREATE TABLE t (a INT NOT NULL, b VARCHAR(20), c DOUBLE, "
      "PRIMARY KEY (a, b), FOREIGN KEY (c) REFERENCES other (x))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& ct = std::get<sql::CreateTableStmt>(*stmt);
  EXPECT_EQ(ct.columns.size(), 3u);
  EXPECT_TRUE(ct.columns[0].not_null);
  EXPECT_EQ(ct.primary_key.size(), 2u);
  ASSERT_EQ(ct.foreign_keys.size(), 1u);
  EXPECT_EQ(ct.foreign_keys[0].ref_table, "other");
}

TEST(Parser, ParamNumbering) {
  auto stmt = sql::Parse("SELECT a FROM t WHERE b = ? AND c = ? AND d = ?");
  ASSERT_TRUE(stmt.ok());
  // Parameters are numbered left to right 0..2 (checked via compile count
  // in executor tests; here just ensure the parse succeeded).
}

TEST(Parser, Errors) {
  EXPECT_FALSE(sql::Parse("SELECT FROM t").ok());
  EXPECT_FALSE(sql::Parse("SELECT a FROM").ok());
  EXPECT_FALSE(sql::Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(sql::Parse("INSERT t VALUES (1)").ok());
  EXPECT_FALSE(sql::Parse("CREATE banana x").ok());
  EXPECT_FALSE(sql::Parse("SELECT a FROM t trailing garbage here").ok());
  EXPECT_FALSE(sql::Parse("UPDATE t SET").ok());
  EXPECT_FALSE(sql::Parse("SELECT a FROM t LIMIT x").ok());
}

// ----------------------------- execution fixture ---------------------------

class SqlExecTest : public ::testing::Test {
 protected:
  SqlExecTest() : db_(engine::EngineProfile::MemSqlLike()) {
    session_ = db_.CreateSession();
    session_->set_charging_enabled(false);
    Exec("CREATE TABLE emp (id INT PRIMARY KEY, dept VARCHAR(8), "
         "salary DOUBLE, boss INT, name VARCHAR(16))");
    Exec("CREATE INDEX idx_emp_dept ON emp (dept)");
    Exec("CREATE TABLE dept (dept VARCHAR(8) PRIMARY KEY, city VARCHAR(8))");
    Exec("INSERT INTO dept VALUES ('eng', 'sf'), ('ops', 'ny'), "
         "('hr', 'ld')");
    // 10 employees: eng 1..4, ops 5..7, hr 8..9, NULL-boss ceo 10.
    Exec("INSERT INTO emp VALUES "
         "(1,'eng',100.0,10,'ada'), (2,'eng',120.0,1,'bob'), "
         "(3,'eng',90.0,1,'cat'), (4,'eng',110.0,1,'dan'), "
         "(5,'ops',80.0,10,'eve'), (6,'ops',85.0,5,'fay'), "
         "(7,'ops',70.0,5,'gus'), (8,'hr',60.0,10,'hal'), "
         "(9,'hr',65.0,8,'ivy'), (10,'exec',300.0,NULL,'zed')");
  }

  sql::ResultSet Exec(const std::string& sql_text,
                      std::initializer_list<Value> params = {}) {
    auto rs = session_->Execute(sql_text, params);
    EXPECT_TRUE(rs.ok()) << sql_text << " => " << rs.status().ToString();
    return rs.ok() ? std::move(rs).value() : sql::ResultSet{};
  }

  Status TryExec(const std::string& sql_text) {
    auto rs = session_->Execute(sql_text);
    return rs.ok() ? Status::OK() : rs.status();
  }

  engine::Database db_;
  std::unique_ptr<engine::Session> session_;
};

TEST_F(SqlExecTest, PointAndRangeAndFullPaths) {
  auto point = Exec("SELECT name FROM emp WHERE id = 3");
  ASSERT_EQ(point.rows.size(), 1u);
  EXPECT_EQ(point.rows[0][0].AsString(), "cat");

  auto range = Exec("SELECT id FROM emp WHERE id >= 3 AND id <= 5 "
                    "ORDER BY id");
  ASSERT_EQ(range.rows.size(), 3u);
  EXPECT_EQ(range.rows[0][0].AsInt(), 3);

  auto between = Exec("SELECT COUNT(*) FROM emp WHERE id BETWEEN 2 AND 4");
  EXPECT_EQ(between.rows[0][0].AsInt(), 3);

  auto full = Exec("SELECT COUNT(*) FROM emp WHERE salary > 100");
  EXPECT_EQ(full.rows[0][0].AsInt(), 3);  // 120, 110, 300
}

TEST_F(SqlExecTest, SecondaryIndexPathMatchesFullScan) {
  auto via_index = Exec("SELECT id FROM emp WHERE dept = 'eng' ORDER BY id");
  auto via_scan = Exec(
      "SELECT id FROM emp WHERE dept LIKE 'eng' ORDER BY id");  // no index
  ASSERT_EQ(via_index.rows.size(), via_scan.rows.size());
  for (size_t i = 0; i < via_index.rows.size(); ++i) {
    EXPECT_EQ(via_index.rows[i][0].AsInt(), via_scan.rows[i][0].AsInt());
  }
}

TEST_F(SqlExecTest, Projection) {
  auto rs = Exec("SELECT name, salary * 2 AS double_pay FROM emp "
                 "WHERE id = 1");
  ASSERT_EQ(rs.column_names.size(), 2u);
  EXPECT_EQ(rs.column_names[1], "double_pay");
  EXPECT_DOUBLE_EQ(rs.rows[0][1].AsDouble(), 200.0);
  auto star = Exec("SELECT * FROM emp WHERE id = 1");
  EXPECT_EQ(star.rows[0].size(), 5u);
}

TEST_F(SqlExecTest, GlobalAggregates) {
  auto rs = Exec("SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), "
                 "MAX(salary) FROM emp");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 10);
  EXPECT_DOUBLE_EQ(rs.rows[0][1].AsDouble(), 1080.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][2].AsDouble(), 108.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][3].AsDouble(), 60.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][4].AsDouble(), 300.0);
}

TEST_F(SqlExecTest, GlobalAggregateOverEmptyInput) {
  auto rs = Exec("SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp "
                 "WHERE id > 1000");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rs.rows[0][1].is_null());
  EXPECT_TRUE(rs.rows[0][2].is_null());
}

TEST_F(SqlExecTest, GroupByHavingOrder) {
  auto rs = Exec(
      "SELECT dept, COUNT(*) AS n, AVG(salary) FROM emp GROUP BY dept "
      "HAVING COUNT(*) >= 2 ORDER BY n DESC, dept");
  ASSERT_EQ(rs.rows.size(), 3u);  // eng(4), ops(3), hr(2); exec filtered
  EXPECT_EQ(rs.rows[0][0].AsString(), "eng");
  EXPECT_EQ(rs.rows[0][1].AsInt(), 4);
  EXPECT_DOUBLE_EQ(rs.rows[0][2].AsDouble(), 105.0);
  EXPECT_EQ(rs.rows[1][0].AsString(), "ops");
  EXPECT_EQ(rs.rows[2][0].AsString(), "hr");
}

TEST_F(SqlExecTest, GroupByExpression) {
  auto rs = Exec("SELECT id % 2, COUNT(*) FROM emp GROUP BY id % 2 "
                 "ORDER BY 1");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 5);
  EXPECT_EQ(rs.rows[1][1].AsInt(), 5);
}

TEST_F(SqlExecTest, JoinsIncludingIndexedLookup) {
  auto rs = Exec(
      "SELECT e.name, d.city FROM emp e JOIN dept d ON d.dept = e.dept "
      "WHERE e.salary > 100 ORDER BY e.name");
  ASSERT_EQ(rs.rows.size(), 2u);  // bob(eng/sf), dan(eng/sf); zed has no dept
  EXPECT_EQ(rs.rows[0][0].AsString(), "bob");
  EXPECT_EQ(rs.rows[0][1].AsString(), "sf");

  // Self join via comma syntax: employee with their boss's name.
  auto self = Exec(
      "SELECT e.name, b.name FROM emp e, emp b WHERE b.id = e.boss AND "
      "e.dept = 'ops' ORDER BY e.id");
  ASSERT_EQ(self.rows.size(), 3u);
  EXPECT_EQ(self.rows[0][1].AsString(), "zed");
  EXPECT_EQ(self.rows[1][1].AsString(), "eve");
}

TEST_F(SqlExecTest, ScalarAndInSubqueries) {
  auto rs = Exec("SELECT name FROM emp WHERE salary = "
                 "(SELECT MAX(salary) FROM emp)");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsString(), "zed");

  auto in_sub = Exec(
      "SELECT COUNT(*) FROM emp WHERE dept IN (SELECT dept FROM dept "
      "WHERE city = 'sf')");
  EXPECT_EQ(in_sub.rows[0][0].AsInt(), 4);

  auto not_in = Exec(
      "SELECT COUNT(*) FROM emp WHERE dept NOT IN (SELECT dept FROM dept)");
  EXPECT_EQ(not_in.rows[0][0].AsInt(), 1);  // 'exec' is not in dept table
}

TEST_F(SqlExecTest, MultiRowScalarSubqueryIsAnError) {
  // A scalar subquery over more than one row has no single value (picking
  // the first would depend on the store's scan order). A SELECT checks it
  // before scanning, so it fails even when no row evaluates it.
  for (const char* q :
       {"SELECT name FROM emp WHERE salary = (SELECT salary FROM emp "
        "WHERE dept = 'eng')",
        "SELECT name FROM emp WHERE id < 0 AND salary = (SELECT salary "
        "FROM emp)",
        "UPDATE emp SET salary = (SELECT salary FROM emp WHERE dept = 'ops') "
        "WHERE id = 1"}) {
    EXPECT_EQ(TryExec(q).code(), StatusCode::kInvalidArgument) << q;
  }
  // One row is its value; no rows is NULL.
  auto one = Exec("SELECT name FROM emp WHERE salary = (SELECT salary FROM "
                  "emp WHERE id = 2)");
  ASSERT_EQ(one.rows.size(), 1u);
  EXPECT_EQ(one.rows[0][0].AsString(), "bob");
  auto none = Exec("SELECT COUNT(*) FROM emp WHERE (SELECT salary FROM emp "
                   "WHERE id = 99) IS NULL");
  EXPECT_EQ(none.rows[0][0].AsInt(), 10);
  EXPECT_EQ(Exec("SELECT salary FROM emp WHERE id = 1").rows[0][0].AsDouble(),
            100.0);  // the failed UPDATE changed nothing
}

TEST_F(SqlExecTest, LikeAndCaseAndNullPredicates) {
  auto like = Exec("SELECT COUNT(*) FROM emp WHERE name LIKE '%a%'");
  EXPECT_EQ(like.rows[0][0].AsInt(), 5);  // ada, cat, dan, fay, hal

  auto not_like = Exec("SELECT COUNT(*) FROM emp WHERE name NOT LIKE '_a%'");
  EXPECT_EQ(not_like.rows[0][0].AsInt(), 6);  // cat,dan,fay,hal match _a%

  auto case_expr = Exec(
      "SELECT SUM(CASE WHEN salary >= 100 THEN 1 ELSE 0 END) FROM emp");
  EXPECT_EQ(case_expr.rows[0][0].AsInt(), 4);

  auto is_null = Exec("SELECT name FROM emp WHERE boss IS NULL");
  ASSERT_EQ(is_null.rows.size(), 1u);
  EXPECT_EQ(is_null.rows[0][0].AsString(), "zed");
  auto not_null = Exec("SELECT COUNT(*) FROM emp WHERE boss IS NOT NULL");
  EXPECT_EQ(not_null.rows[0][0].AsInt(), 9);
}

TEST_F(SqlExecTest, DistinctAndLimit) {
  auto d = Exec("SELECT DISTINCT dept FROM emp ORDER BY dept");
  EXPECT_EQ(d.rows.size(), 4u);
  auto lim = Exec("SELECT id FROM emp ORDER BY salary DESC LIMIT 3");
  ASSERT_EQ(lim.rows.size(), 3u);
  EXPECT_EQ(lim.rows[0][0].AsInt(), 10);
  EXPECT_EQ(lim.rows[1][0].AsInt(), 2);
  auto lim_nosort = Exec("SELECT id FROM emp LIMIT 4");
  EXPECT_EQ(lim_nosort.rows.size(), 4u);
}

TEST_F(SqlExecTest, OrderByPositionAliasExpression) {
  auto pos = Exec("SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY 2 "
                  "DESC, 1 LIMIT 1");
  EXPECT_EQ(pos.rows[0][0].AsString(), "eng");
  auto alias = Exec("SELECT salary * 2 AS p FROM emp ORDER BY p LIMIT 1");
  EXPECT_DOUBLE_EQ(alias.rows[0][0].AsDouble(), 120.0);
  auto expr = Exec("SELECT name FROM emp ORDER BY salary + id DESC LIMIT 1");
  EXPECT_EQ(expr.rows[0][0].AsString(), "zed");
}

TEST_F(SqlExecTest, UpdateDeleteSemantics) {
  auto upd = Exec("UPDATE emp SET salary = salary + 10 WHERE dept = 'hr'");
  EXPECT_EQ(upd.affected_rows, 2);
  auto after = Exec("SELECT SUM(salary) FROM emp WHERE dept = 'hr'");
  EXPECT_DOUBLE_EQ(after.rows[0][0].AsDouble(), 145.0);

  auto del = Exec("DELETE FROM emp WHERE salary < 75");
  EXPECT_EQ(del.affected_rows, 2);  // gus (70) and hal (60+10)
  auto count = Exec("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(count.rows[0][0].AsInt(), 8);

  auto none = Exec("UPDATE emp SET salary = 0 WHERE id = 12345");
  EXPECT_EQ(none.affected_rows, 0);
}

TEST_F(SqlExecTest, UpdateSelfReferencingAssignment) {
  Exec("UPDATE emp SET salary = salary * 2, boss = id WHERE id = 1");
  auto rs = Exec("SELECT salary, boss FROM emp WHERE id = 1");
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 200.0);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 1);
}

TEST_F(SqlExecTest, InsertColumnReorderAndDefaults) {
  Exec("INSERT INTO emp (salary, id, dept) VALUES (55.0, 42, 'eng')");
  auto rs = Exec("SELECT dept, salary, name FROM emp WHERE id = 42");
  EXPECT_EQ(rs.rows[0][0].AsString(), "eng");
  EXPECT_TRUE(rs.rows[0][2].is_null());  // unspecified -> NULL
}

TEST_F(SqlExecTest, ArithmeticEdgeCases) {
  auto rs = Exec("SELECT 7 / 2, 7 % 2, 7.0 / 2, -id FROM emp WHERE id = 1");
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 3.5);  // kDiv promotes
  EXPECT_EQ(rs.rows[0][1].AsInt(), 1);
  EXPECT_DOUBLE_EQ(rs.rows[0][2].AsDouble(), 3.5);
  EXPECT_EQ(rs.rows[0][3].AsInt(), -1);
  auto div0 = Exec("SELECT COUNT(*) FROM emp WHERE salary / 0 > 1");
  EXPECT_EQ(div0.rows[0][0].AsInt(), 0);  // NULL comparisons are false
}

TEST_F(SqlExecTest, ExecutionErrors) {
  EXPECT_EQ(TryExec("SELECT x FROM emp").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TryExec("SELECT id FROM missing").code(), StatusCode::kNotFound);
  EXPECT_EQ(TryExec("SELECT e.id FROM emp x").code(),
            StatusCode::kInvalidArgument);  // unknown alias
  EXPECT_EQ(TryExec("SELECT dept FROM emp, dept").code(),
            StatusCode::kInvalidArgument);  // ambiguous column
  EXPECT_EQ(TryExec("INSERT INTO emp VALUES (1)").code(),
            StatusCode::kInvalidArgument);  // arity
  EXPECT_EQ(TryExec("INSERT INTO emp VALUES "
                    "(1,'eng',1.0,NULL,'dup')").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(TryExec("CREATE TABLE nopk (a INT)").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TryExec("SELECT MIN(salary) FROM emp WHERE MAX(id) > 1").code(),
            StatusCode::kInvalidArgument);  // aggregate in WHERE
}

TEST_F(SqlExecTest, ParameterBinding) {
  auto rs = Exec("SELECT name FROM emp WHERE dept = ? AND salary >= ? "
                 "ORDER BY id",
                 {Value::String("eng"), Value::Double(100.0)});
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].AsString(), "ada");
  // Missing parameter must fail, not crash.
  auto missing = session_->Execute("SELECT name FROM emp WHERE id = ?");
  EXPECT_FALSE(missing.ok());
}

/// Property sweep: GROUP BY aggregates agree with a manual computation for
/// several dataset shapes.
class GroupByProperty : public ::testing::TestWithParam<int> {};

TEST_P(GroupByProperty, MatchesManualAggregation) {
  const int n = GetParam();
  engine::Database db(engine::EngineProfile::MemSqlLike());
  auto session = db.CreateSession();
  session->set_charging_enabled(false);
  ASSERT_TRUE(session->Execute("CREATE TABLE t (k INT PRIMARY KEY, g INT, "
                               "x DOUBLE)")
                  .ok());
  Rng rng(n);
  std::map<int64_t, std::pair<int64_t, double>> manual;  // g -> (count, sum)
  for (int i = 0; i < n; ++i) {
    int64_t g = rng.Uniform(int64_t{0}, int64_t{7});
    double x = rng.Uniform(-100.0, 100.0);
    manual[g].first++;
    manual[g].second += x;
    ASSERT_TRUE(session
                    ->Execute("INSERT INTO t VALUES (?, ?, ?)",
                              {Value::Int(i), Value::Int(g),
                               Value::Double(x)})
                    .ok());
  }
  auto rs = session->Execute(
      "SELECT g, COUNT(*), SUM(x) FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), manual.size());
  size_t i = 0;
  for (const auto& [g, agg] : manual) {
    EXPECT_EQ(rs->rows[i][0].AsInt(), g);
    EXPECT_EQ(rs->rows[i][1].AsInt(), agg.first);
    EXPECT_NEAR(rs->rows[i][2].AsDouble(), agg.second, 1e-6);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupByProperty,
                         ::testing::Values(1, 10, 100, 1000));

}  // namespace
}  // namespace olxp
