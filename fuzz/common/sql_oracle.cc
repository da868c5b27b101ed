// Differential SQL oracle: one statement, four execution configurations —
// the row-store interpreter in a read-only transaction (the reference) and
// the replica's vectorized engine at exec_threads 1, 2 and 8, run directly
// (ReplicaExecute) rather than through the router, so every SELECT the
// engine serves is compared, whichever store the router would pick — any
// disagreement is a bug. This is the logic layer shared by the
// fuzz_sql_differential target, the corpus replayer and the smoke test;
// it owns a long-lived seeded Database so per-input cost is one statement,
// not one engine bootstrap.
#include "fuzz/common/sql_oracle.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "engine/database.h"
#include "exec/vectorized.h"
#include "tests/result_strings.h"

namespace olxp::fuzz {
namespace {

std::function<void(sql::ResultSet*)>& Perturber() {
  static std::function<void(sql::ResultSet*)> fn;
  return fn;
}

// ---------------------------------------------------------------------------
// Shared environment
// ---------------------------------------------------------------------------

struct Env {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::Session> session;
  size_t statements = 0;
};

engine::EngineProfile FuzzProfile() {
  auto p = engine::EngineProfile::TiDbLike();
  p.olap_row_fraction = 0.0;  // deterministic routing
  p.replication_lag_micros = 0;
  p.vacuum_interval_us = 0;      // no background thread: deterministic state
  p.durability = storage::DurabilityMode::kOff;
  p.wal_dir.clear();
  // One chunk per morsel: table t (1400 rows) spans two morsels, so the
  // threads=2/8 runs really combine lane work (per-morsel merge, or the
  // partitioned GROUP BY combine for high-cardinality keys).
  p.morsel_rows = exec::kVecChunkRows;
  return p;
}

void Seed(Env& env) {
  env.db = std::make_unique<engine::Database>(FuzzProfile());
  env.session = env.db->CreateSession();
  env.session->set_charging_enabled(false);
  auto exec = [&](const std::string& sql, std::vector<Value> params = {}) {
    auto st = env.session->Execute(sql, params);
    if (!st.ok()) {
      std::fprintf(stderr, "sql fuzz seed failed: %s\n  %s\n",
                   st.status().ToString().c_str(), sql.c_str());
      std::abort();
    }
  };
  exec("CREATE TABLE t (a INT PRIMARY KEY, b INT, c DOUBLE, d VARCHAR, "
       "e INT)");
  exec("CREATE TABLE u (k INT PRIMARY KEY, v INT, w VARCHAR)");
  // > kBlockSlots rows so the replica holds at least one sealed (encoded)
  // block plus a mutable tail — both storage forms sit under every query.
  const char* tags[] = {"alpha", "beta", "gamma", "ab_x", "ab_y"};
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int a = 1; a <= 1400; ++a) {
    std::vector<Value> row;
    row.push_back(Value::Int(a));
    row.push_back(a % 17 == 0 ? Value::Null()
                              : Value::Int(static_cast<int64_t>(next() % 1000)));
    row.push_back(a % 23 == 0
                      ? Value::Null()
                      : Value::Double(static_cast<double>(next() % 10000) /
                                      10000.0));
    row.push_back(a % 29 == 0 ? Value::Null()
                              : Value::String(tags[a % 5]));
    row.push_back(Value::Int(a % 7));
    exec("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row);
  }
  for (int k = 0; k < 60; ++k) {
    std::vector<Value> row;
    row.push_back(Value::Int(k));
    row.push_back(k % 11 == 0 ? Value::Null() : Value::Int(k * 3));
    row.push_back(Value::String(tags[k % 5]));
    exec("INSERT INTO u VALUES (?, ?, ?)", row);
  }
  env.db->WaitReplicaCaughtUp();
}

Env& GetEnv() {
  static Env* env = [] {
    auto* e = new Env();
    Seed(*e);
    return e;
  }();
  // DML accumulates; a periodic rebuild keeps fuzz memory bounded and the
  // table contents anchored near the seeded distribution.
  if (env->statements >= 2048) {
    env->session.reset();
    env->db.reset();
    env->statements = 0;
    Seed(*env);
  }
  return *env;
}

// ---------------------------------------------------------------------------
// Statement classification
// ---------------------------------------------------------------------------

bool StartsWithWord(const std::string& sql, const char* word) {
  size_t i = 0;
  while (i < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  for (const char* p = word; *p; ++p, ++i) {
    if (i >= sql.size() ||
        std::toupper(static_cast<unsigned char>(sql[i])) != *p) {
      return false;
    }
  }
  return i >= sql.size() || !std::isalnum(static_cast<unsigned char>(sql[i]));
}

bool HasWord(const std::string& sql, const char* word) {
  const size_t n = std::strlen(word);
  for (size_t i = 0; i + n <= sql.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < n; ++j) {
      if (std::toupper(static_cast<unsigned char>(sql[i + j])) != word[j]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    const bool left_ok =
        i == 0 || !std::isalnum(static_cast<unsigned char>(sql[i - 1]));
    const bool right_ok =
        i + n == sql.size() ||
        !std::isalnum(static_cast<unsigned char>(sql[i + n]));
    if (left_ok && right_ok) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Differential execution
// ---------------------------------------------------------------------------

struct PathRun {
  std::string label;
  bool ok = false;
  /// The replica engine refused the shape (a non-equi join, a mixed-type
  /// CASE); the router runs such a statement on the row store instead.
  bool unsupported = false;
  std::string error;
  std::vector<std::string> columns;
  std::vector<std::string> rows;
};

PathRun RunPath(Env& env, const std::string& sql, bool row_store,
                int threads, bool perturb) {
  PathRun out;
  out.label = row_store ? "row-store"
                        : "replica/threads=" + std::to_string(threads);
  env.db->set_exec_threads(threads);
  auto rs = row_store ? RowStoreExecute(*env.session, sql)
                      : ReplicaExecute(*env.db, sql);
  out.ok = rs.ok();
  if (!rs.ok()) {
    out.unsupported = rs.status().code() == StatusCode::kUnsupported;
    out.error = rs.status().ToString();
    return out;
  }
  if (perturb && Perturber()) Perturber()(&*rs);
  out.columns = rs->column_names;
  out.rows = Stringify(*rs);
  return out;
}

void Describe(std::string* report, const PathRun& p) {
  *report += "  [" + p.label + "] ";
  if (!p.ok) {
    *report += "error: " + p.error + "\n";
    return;
  }
  *report += std::to_string(p.rows.size()) + " row(s)\n";
  const size_t show = std::min<size_t>(p.rows.size(), 5);
  for (size_t i = 0; i < show; ++i) *report += "    " + p.rows[i] + "\n";
  if (p.rows.size() > show) *report += "    ...\n";
}

std::string Divergence(const std::string& sql, const char* what,
                       const PathRun& a, const PathRun& b) {
  std::string report = "SQL DIFFERENTIAL DIVERGENCE (" + std::string(what) +
                       ")\n  statement: " + sql + "\n";
  Describe(&report, a);
  Describe(&report, b);
  return report;
}

}  // namespace

void SetResultPerturberForTest(std::function<void(sql::ResultSet*)> fn) {
  Perturber() = std::move(fn);
}

std::string RunSqlDifferential(const std::string& sql, bool expect_error) {
  Env& env = GetEnv();
  ++env.statements;

  if (!StartsWithWord(sql, "SELECT")) {
    // Non-SELECT statements mutate state, so they run exactly once (on
    // whatever engine the router picks); errors are fine, UB is not.
    (void)env.session->Execute(sql);
    if (env.session->InTransaction()) (void)env.session->Rollback();
    env.db->WaitReplicaCaughtUp();
    return "";
  }

  const bool has_limit = HasWord(sql, "LIMIT");

  PathRun interp = RunPath(env, sql, /*row_store=*/true, 1, false);
  PathRun serial = RunPath(env, sql, /*row_store=*/false, 1, true);
  PathRun par2 = RunPath(env, sql, /*row_store=*/false, 2, false);
  PathRun par8 = RunPath(env, sql, /*row_store=*/false, 8, false);
  env.db->set_exec_threads(1);

  // 0. A statement built to be invalid is rejected on every path.
  if (expect_error) {
    for (const PathRun* p : {&serial, &par2, &par8, &interp}) {
      if (p->ok) return Divergence(sql, "expected an error", interp, *p);
    }
  }

  // 1. Every path must agree on success vs failure, except that a shape
  //    the replica engine refuses has no replica answer to compare.
  for (const PathRun* p : {&par2, &par8}) {
    if (p->ok != serial.ok || p->unsupported != serial.unsupported) {
      return Divergence(sql, "ok-ness", serial, *p);
    }
  }
  if (serial.unsupported) return "";
  if (serial.ok != interp.ok) {
    return Divergence(sql, "ok-ness", interp, serial);
  }
  if (!interp.ok) return "";  // all paths rejected the statement: agreed

  // 2. Parallel must equal serial row-for-row (morsel partials merge in
  //    scan order; the engine promises bit-identical output at any lane
  //    count — tests/exec_test.cc pins the same contract).
  for (const PathRun* p : {&par2, &par8}) {
    if (p->columns != serial.columns) {
      return Divergence(sql, "columns", serial, *p);
    }
    if (p->rows != serial.rows) {
      return Divergence(sql, "parallel-vs-serial rows", serial, *p);
    }
  }

  // 3. Row store vs replica: same columns, same row multiset (row
  //    order of unordered queries is engine-dependent); LIMIT without a
  //    total order only pins the row count.
  if (serial.columns != interp.columns) {
    return Divergence(sql, "columns", interp, serial);
  }
  if (has_limit) {
    if (serial.rows.size() != interp.rows.size()) {
      return Divergence(sql, "row count under LIMIT", interp, serial);
    }
    return "";
  }
  std::vector<std::string> a = interp.rows;
  std::vector<std::string> b = serial.rows;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a != b) return Divergence(sql, "row multiset", interp, serial);
  return "";
}

// ---------------------------------------------------------------------------
// Structure-aware statement generator
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kIntCols[] = {"a", "b", "e"};
constexpr const char* kNumCols[] = {"a", "b", "e", "c"};
constexpr const char* kAllCols[] = {"a", "b", "c", "d", "e"};
constexpr const char* kNonKeyCols[] = {"b", "c", "d", "e"};
constexpr const char* kTags[] = {"alpha", "beta", "gamma", "ab_x", "ab_y"};
constexpr const char* kLikePats[] = {"ab%", "%a%", "%x", "a_pha", "%"};
constexpr const char* kCmpOps[] = {"=", "!=", "<", "<=", ">", ">="};
constexpr const char* kArithOps[] = {"+", "-", "*", "/", "%"};
constexpr const char* kAggs[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};

std::string IntLit(ByteReader& r) {
  // Mostly in-distribution values; occasional extremes poke the checked
  // arithmetic and zone-map boundaries.
  switch (r.Int(0, 9)) {
    case 0:
      return "0";
    case 1:
      return "-1";
    case 2:
      return "9223372036854775807";
    case 3:
      return "(-9223372036854775807 - 1)";
    default:
      return std::to_string(r.Int(-9999, 9999));
  }
}

std::string NumExpr(ByteReader& r, int depth) {
  if (depth >= 3 || r.Int(0, 3) == 0) {
    return r.Bool() ? std::string(r.Pick(kNumCols)) : IntLit(r);
  }
  switch (r.Int(0, 2)) {
    case 0:
      return "(" + NumExpr(r, depth + 1) + " " +
             std::string(r.Pick(kArithOps)) + " " + NumExpr(r, depth + 1) +
             ")";
    case 1:
      return "(-" + NumExpr(r, depth + 1) + ")";
    default:
      return std::string(r.Pick(kNumCols));
  }
}

std::string Pred(ByteReader& r, int depth) {
  if (depth < 2 && r.Int(0, 3) == 0) {
    switch (r.Int(0, 2)) {
      case 0:
        return "(" + Pred(r, depth + 1) + " AND " + Pred(r, depth + 1) + ")";
      case 1:
        return "(" + Pred(r, depth + 1) + " OR " + Pred(r, depth + 1) + ")";
      default:
        return "NOT (" + Pred(r, depth + 1) + ")";
    }
  }
  switch (r.Int(0, 8)) {
    case 0: {
      const char* col = r.Pick(kAllCols);
      return std::string(col) + (r.Bool() ? " IS NULL" : " IS NOT NULL");
    }
    case 1: {
      std::string lo = std::to_string(r.Int(-100, 900));
      std::string hi = std::to_string(r.Int(-100, 1100));
      return std::string(r.Pick(kIntCols)) + " BETWEEN " + lo + " AND " + hi;
    }
    case 2: {
      std::string list;
      const int n = static_cast<int>(r.Int(1, 5));
      for (int i = 0; i < n; ++i) {
        if (i) list += ", ";
        list += std::to_string(r.Int(0, 1000));
      }
      return std::string(r.Pick(kIntCols)) + " IN (" + list + ")";
    }
    case 3:
      return "d " + std::string(r.Bool() ? "LIKE" : "NOT LIKE") + " '" +
             std::string(r.Pick(kLikePats)) + "'";
    case 4:
      return "d " + std::string(r.Bool() ? "=" : "!=") + " '" +
             std::string(r.Pick(kTags)) + "'";
    case 5:
      return "e " + std::string(r.Bool() ? "IN" : "NOT IN") +
             " (SELECT k FROM u WHERE v " + std::string(r.Pick(kCmpOps)) +
             " " + std::to_string(r.Int(0, 120)) + ")";
    case 6:  // aggregate scalar subquery: exactly one row
      return NumExpr(r, 1) + " " + std::string(r.Pick(kCmpOps)) +
             " (SELECT " + std::string(r.Pick(kAggs)) + "(v) FROM u WHERE k " +
             std::string(r.Pick(kCmpOps)) + " " +
             std::to_string(r.Int(-5, 65)) + ")";
    case 7:  // bare scalar subquery: several rows must fail on every path
      return std::string(r.Pick(kIntCols)) + " " +
             std::string(r.Pick(kCmpOps)) + " (SELECT v FROM u WHERE k " +
             std::string(r.Pick(kCmpOps)) + " " +
             std::to_string(r.Int(-5, 65)) + ")";
    default:
      return NumExpr(r, 1) + " " + std::string(r.Pick(kCmpOps)) + " " +
             NumExpr(r, 1);
  }
}

std::string AggItem(ByteReader& r) {
  const char* agg = r.Pick(kAggs);
  if (std::string(agg) == "COUNT" && r.Bool()) return "COUNT(*)";
  return std::string(agg) + "(" + std::string(r.Pick(kNumCols)) + ")";
}

std::string GenerateSelect(ByteReader& r, bool* expect_error) {
  switch (r.Int(0, 6)) {
    case 0: {  // projection scan
      std::string items;
      const int n = static_cast<int>(r.Int(1, 4));
      for (int i = 0; i < n; ++i) {
        if (i) items += ", ";
        items += r.Bool() ? std::string(r.Pick(kAllCols)) : NumExpr(r, 1);
      }
      std::string sql = "SELECT " + items + " FROM t";
      if (r.Bool()) sql += " WHERE " + Pred(r, 0);
      if (r.Bool()) sql += " ORDER BY a" + std::string(r.Bool() ? " DESC" : "");
      if (r.Int(0, 3) == 0) sql += " LIMIT " + std::to_string(r.Int(0, 64));
      return sql;
    }
    case 1: {  // global aggregate
      std::string items = AggItem(r);
      if (r.Bool()) items += ", " + AggItem(r);
      std::string sql = "SELECT " + items + " FROM t";
      if (r.Bool()) sql += " WHERE " + Pred(r, 0);
      return sql;
    }
    case 2: {  // grouped aggregate
      const char* g = r.Pick(kAllCols);
      std::string sql = "SELECT " + std::string(g) + ", " + AggItem(r);
      if (r.Bool()) sql += ", " + AggItem(r);
      sql += " FROM t";
      if (r.Bool()) sql += " WHERE " + Pred(r, 0);
      sql += " GROUP BY " + std::string(g);
      if (r.Bool()) {
        sql += " HAVING COUNT(*) " + std::string(r.Pick(kCmpOps)) + " " +
               std::to_string(r.Int(0, 40));
      }
      if (r.Bool()) sql += " ORDER BY " + std::string(g);
      return sql;
    }
    case 3: {  // join
      std::string sql = "SELECT t.a, t.b, u.v FROM t JOIN u ON t.e = u.k";
      if (r.Bool()) sql += " WHERE t.b > " + std::to_string(r.Int(-10, 900));
      if (r.Bool()) sql += " ORDER BY t.a";
      if (r.Int(0, 3) == 0) sql += " LIMIT " + std::to_string(r.Int(0, 64));
      return sql;
    }
    case 4: {  // distinct
      std::string sql =
          "SELECT DISTINCT " + std::string(r.Pick(kAllCols)) + " FROM t";
      if (r.Bool()) sql += " WHERE " + Pred(r, 0);
      return sql;
    }
    case 6: {  // a column neither grouped nor determined by the grouped key
      const std::string g = r.Pick(kNonKeyCols);
      std::string x = r.Pick(kNonKeyCols);
      if (x == g) x = "a";  // the primary key, not grouped here
      std::string sql = "SELECT " + g + ", " + AggItem(r);
      const int64_t where_x = r.Int(0, 2);
      if (where_x == 0) sql += ", " + x;
      sql += " FROM t";
      if (r.Bool()) sql += " WHERE " + Pred(r, 0);
      sql += " GROUP BY " + g;
      if (where_x == 1) sql += " HAVING " + x + " IS NOT NULL";
      if (where_x == 2) sql += " ORDER BY " + x;
      *expect_error = true;
      return sql;
    }
    default: {  // CASE projection
      std::string sql = "SELECT a, CASE WHEN " + Pred(r, 1) + " THEN " +
                        NumExpr(r, 2) + " ELSE " + NumExpr(r, 2) +
                        " END FROM t";
      if (r.Bool()) sql += " WHERE " + Pred(r, 0);
      return sql;
    }
  }
}

}  // namespace

std::string GenerateSql(ByteReader& r, bool* expect_error) {
  *expect_error = false;
  const int64_t kind = r.Int(0, 9);
  if (kind <= 6) return GenerateSelect(r, expect_error);
  switch (kind) {
    case 7: {  // insert (fresh or clashing primary key; both must be clean)
      const int64_t pk = r.Int(1, 4000);
      return "INSERT INTO t VALUES (" + std::to_string(pk) + ", " +
             std::to_string(r.Int(0, 1000)) + ", " +
             std::to_string(r.Int(0, 100)) + ".5, '" +
             std::string(r.Pick(kTags)) + "', " + std::to_string(r.Int(0, 6)) +
             ")";
    }
    case 8:
      return "UPDATE t SET b = " + NumExpr(r, 1) + " WHERE a = " +
             std::to_string(r.Int(1, 2000));
    default:
      return "DELETE FROM t WHERE a = " + std::to_string(r.Int(1, 2000));
  }
}

int SqlOne(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  std::string sql;
  bool expect_error = false;
  if (data[0] == 0xFF) {
    ByteReader r(data + 1, size - 1);
    sql = GenerateSql(r, &expect_error);
  } else {
    // Raw-text mode: the corpus stays human-readable and libFuzzer's plain
    // byte mutations explore the lexer/parser directly.
    if (size > 4096) size = 4096;  // bound parser work per input
    sql.assign(reinterpret_cast<const char*>(data), size);
  }
  std::string report = RunSqlDifferential(sql, expect_error);
  if (!report.empty()) {
    std::fprintf(stderr, "%s", report.c_str());
    std::abort();
  }
  return 0;
}

}  // namespace olxp::fuzz
