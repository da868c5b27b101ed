// Smoke tests for the fuzz/ harnesses. Three jobs:
//   1. replay every checked-in corpus file through its harness entry point,
//      so the corpus stays green in ordinary (non-fuzzer) builds;
//   2. prove the differential oracle actually detects divergence, by
//      perturbing one execution path through the test-only hook — a
//      comparator that can never fire is worse than none;
//   3. pin the engine-level fixes the fuzzers surfaced (checked arithmetic,
//      lexer range checking) as direct regression tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "fuzz/common/codec_harness.h"
#include "fuzz/common/config_harness.h"
#include "fuzz/common/sql_oracle.h"
#include "fuzz/common/wal_harness.h"
#include "tests/result_strings.h"

namespace olxp {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusFiles(const std::string& target) {
  const fs::path dir = fs::path(OLXP_FUZZ_CORPUS_DIR) / target;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<uint8_t> ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

template <typename Fn>
void ReplayCorpus(const std::string& target, Fn one) {
  const auto files = CorpusFiles(target);
  ASSERT_FALSE(files.empty()) << "empty corpus: " << target;
  for (const auto& f : files) {
    SCOPED_TRACE(f.filename().string());
    const auto bytes = ReadBytes(f);
    EXPECT_EQ(0, one(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpus, SqlDifferentialReplays) {
  ReplayCorpus("sql_differential", fuzz::SqlOne);
}

TEST(FuzzCorpus, WalRecoveryReplays) {
  ReplayCorpus("wal_recovery", fuzz::WalOne);
}

TEST(FuzzCorpus, BlockCodecReplays) {
  ReplayCorpus("block_codec", fuzz::CodecOne);
}

TEST(FuzzCorpus, ConfigReplays) { ReplayCorpus("config", fuzz::ConfigOne); }

// The oracle must flag a path whose rows were tampered with. Perturb the
// serial replica result (drop a row / rewrite a cell) and expect a
// non-empty divergence report; clear the hook and expect agreement again.
TEST(DifferentialOracle, DetectsRowDivergence) {
  fuzz::SetResultPerturberForTest([](sql::ResultSet* rs) {
    if (!rs->rows.empty()) rs->rows.pop_back();
  });
  const std::string report =
      fuzz::RunSqlDifferential("SELECT a, b FROM t WHERE a <= 5 ORDER BY a");
  fuzz::SetResultPerturberForTest(nullptr);
  EXPECT_NE("", report);
  EXPECT_NE(std::string::npos, report.find("DIVERGENCE"));
}

TEST(DifferentialOracle, DetectsCellDivergence) {
  fuzz::SetResultPerturberForTest([](sql::ResultSet* rs) {
    if (!rs->rows.empty() && !rs->rows[0].empty()) {
      rs->rows[0][0] = Value::Int(424242);
    }
  });
  const std::string report = fuzz::RunSqlDifferential("SELECT COUNT(*) FROM t");
  fuzz::SetResultPerturberForTest(nullptr);
  EXPECT_NE("", report);
}

// A statement built to be rejected (the generator's ungrouped-column shape)
// is a divergence wherever a path accepts it.
TEST(DifferentialOracle, FlagsAcceptedStatementBuiltToFail) {
  EXPECT_EQ("", fuzz::RunSqlDifferential(
                    "SELECT e, b, COUNT(*) FROM t GROUP BY e",
                    /*expect_error=*/true));
  const std::string report = fuzz::RunSqlDifferential(
      "SELECT e, COUNT(*) FROM t GROUP BY e", /*expect_error=*/true);
  EXPECT_NE(std::string::npos, report.find("expected an error")) << report;
}

TEST(DifferentialOracle, AgreesWhenUnperturbed) {
  EXPECT_EQ("", fuzz::RunSqlDifferential(
                    "SELECT d, COUNT(*), SUM(b) FROM t GROUP BY d"));
  EXPECT_EQ("", fuzz::RunSqlDifferential("SELECT COUNT(*) FROM t"));
}

// ---------------------------------------------------------------------------
// Regression tests for the defects the fuzzers surfaced. Each of these was
// UB or a silent wrong answer before the fix; the minimized inputs are also
// checked in under fuzz/corpus/sql_differential/regress_*.
// ---------------------------------------------------------------------------

class FuzzRegressionTest : public ::testing::Test {
 protected:
  FuzzRegressionTest() {
    auto profile = engine::EngineProfile::TiDbLike();
    profile.replication_lag_micros = 0;
    profile.vacuum_interval_us = 0;
    profile.durability = storage::DurabilityMode::kOff;
    profile.wal_dir.clear();
    db_ = std::make_unique<engine::Database>(profile);
    session_ = db_->CreateSession();
    // One row holding INT64_MIN, one holding INT64_MAX (only reachable via
    // parameters: the dialect has no INT64_MIN literal).
    Exec("CREATE TABLE edge (id INT PRIMARY KEY, x INT)");
    Exec("INSERT INTO edge VALUES (?, ?)",
         {Value::Int(1), Value::Int(std::numeric_limits<int64_t>::min())});
    Exec("INSERT INTO edge VALUES (?, ?)",
         {Value::Int(2), Value::Int(std::numeric_limits<int64_t>::max())});
    db_->WaitReplicaCaughtUp();
  }

  void Exec(const std::string& sql, std::vector<Value> params = {}) {
    auto st = session_->Execute(sql, params);
    ASSERT_TRUE(st.ok()) << sql << ": " << st.status().ToString();
  }

  std::vector<std::string> Query(const std::string& sql) {
    auto st = session_->Execute(sql);
    EXPECT_TRUE(st.ok()) << sql << ": " << st.status().ToString();
    if (!st.ok()) return {};
    return Stringify(*st);
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<engine::Session> session_;
};

// lexer.cc: strtoll silently saturated out-of-range integer literals to
// INT64_MAX, so `SELECT 99999999999999999999 ...` computed with a wrong
// number instead of failing.
TEST_F(FuzzRegressionTest, OutOfRangeIntLiteralIsRejected) {
  for (const char* sql : {"SELECT 99999999999999999999 FROM edge",
                          "SELECT x FROM edge WHERE x > 12345678901234567890",
                          "SELECT -99999999999999999999 FROM edge"}) {
    auto st = session_->Execute(sql);
    ASSERT_FALSE(st.ok()) << sql;
    EXPECT_NE(std::string::npos, st.status().ToString().find("out of range"))
        << st.status().ToString();
  }
}

// INT64_MIN % -1 traps with SIGFPE on x86 when evaluated with the raw C++
// operator even though the mathematical result (0) is representable; the
// dialect now defines x % -1 == 0 for every x. (INT64_MIN / -1 is already
// safe: `/` always divides as double.)
TEST_F(FuzzRegressionTest, ModMinByMinusOneIsZero) {
  EXPECT_EQ(Query("SELECT x % -1 FROM edge WHERE id = 1"),
            (std::vector<std::string>{"0|"}));
  EXPECT_EQ(Query("SELECT x % -1 FROM edge WHERE id = 2"),
            (std::vector<std::string>{"0|"}));
}

// Signed overflow in +, -, *, and unary minus is UB; the engine now detects
// it with checked arithmetic and yields NULL (the same answer as x % 0).
TEST_F(FuzzRegressionTest, IntOverflowYieldsNull) {
  EXPECT_EQ(Query("SELECT x + 1 FROM edge WHERE id = 2"),
            (std::vector<std::string>{"NULL|"}));
  EXPECT_EQ(Query("SELECT x - 1 FROM edge WHERE id = 1"),
            (std::vector<std::string>{"NULL|"}));
  EXPECT_EQ(Query("SELECT x * 2 FROM edge WHERE id = 2"),
            (std::vector<std::string>{"NULL|"}));
  EXPECT_EQ(Query("SELECT -x FROM edge WHERE id = 1"),
            (std::vector<std::string>{"NULL|"}));
  // In-range arithmetic is unaffected.
  EXPECT_EQ(Query("SELECT x + 0 FROM edge WHERE id = 2"),
            (std::vector<std::string>{"9223372036854775807|"}));
  EXPECT_EQ(Query("SELECT -x FROM edge WHERE id = 2"),
            (std::vector<std::string>{"-9223372036854775807|"}));
}

// SUM accumulation overflow was UB in the aggregate accumulator.
TEST_F(FuzzRegressionTest, SumOverflowYieldsNull) {
  Query("CREATE TABLE big (id INT PRIMARY KEY, x INT)");
  Query("INSERT INTO big VALUES (1, 9223372036854775807)");
  Query("INSERT INTO big VALUES (2, 9223372036854775807)");
  db_->WaitReplicaCaughtUp();
  EXPECT_EQ(Query("SELECT SUM(x) FROM big"),
            (std::vector<std::string>{"NULL|"}));
}

// The differential oracle agrees on every regression input: the fixes
// landed in both expression engines, not just one.
TEST_F(FuzzRegressionTest, EnginesAgreeOnEdgeArithmetic) {
  for (const char* sql : {
           "SELECT (-9223372036854775807 - 1) % (-1) FROM t WHERE a = 1",
           "SELECT 9223372036854775807 + 1, 9223372036854775807 * 2 "
           "FROM t WHERE a = 1",
           "SELECT -(-9223372036854775807 - 1) FROM t WHERE a = 1",
           "SELECT b / 0, b % 0 FROM t WHERE a < 10",
           "SELECT SUM(b * 92233720368547758) FROM t",
       }) {
    EXPECT_EQ("", fuzz::RunSqlDifferential(sql)) << sql;
  }
}

}  // namespace
}  // namespace olxp
