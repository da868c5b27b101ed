#ifndef OLXP_FUZZ_COMMON_SQL_ORACLE_H_
#define OLXP_FUZZ_COMMON_SQL_ORACLE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "fuzz/common/byte_reader.h"
#include "sql/storage_iface.h"

namespace olxp::fuzz {

/// Executes one statement against the shared fuzz database on both stores
/// — the row-store interpreter inside a read-only transaction (the
/// reference), and the replica's vectorized engine at exec_threads 1, 2
/// and 8 (ReplicaExecute in tests/result_strings.h: no router in between)
/// — and cross-checks the results (the differential oracle). Returns ""
/// when all paths agree; otherwise a human-readable divergence report.
/// Statements that fail to parse/bind, that every path rejects (a scalar
/// subquery over several rows, a non-grouped column), or whose shape the
/// replica engine refuses (kUnsupported) are fine; only divergence is an
/// error.
///
/// Comparison rules mirror tests/exec_test.cc ExpectParity: parallel runs
/// must equal the serial run row-for-row (morsel merge order is
/// deterministic by contract); row store vs replica compares sorted
/// multisets (hash-group output order is engine-dependent), downgraded to
/// row-count-only when the statement carries LIMIT (which rows survive a
/// LIMIT without a total order is engine-dependent too). With
/// `expect_error`, any path that accepts the statement is a divergence.
std::string RunSqlDifferential(const std::string& sql,
                               bool expect_error = false);

/// Structure-aware generator: derives one syntactically valid statement
/// (heavily weighted toward analytical SELECT shapes) from fuzzer bytes.
/// Sets `*expect_error` when the statement is built to be rejected on
/// every path (a SELECT reading a column its GROUP BY does not determine).
std::string GenerateSql(ByteReader& r, bool* expect_error);

/// Harness entry shared by the libFuzzer target, the corpus replayer and
/// the smoke test. Input format: a leading 0xFF byte selects generator mode
/// (remaining bytes drive GenerateSql); anything else is raw SQL text.
/// Aborts the process on divergence.
int SqlOne(const uint8_t* data, size_t size);

/// Test-only hook: mutates the serial replica result before the oracle
/// compares it, proving the differential comparison actually fires.
/// nullptr (default) disables.
void SetResultPerturberForTest(std::function<void(sql::ResultSet*)> fn);

}  // namespace olxp::fuzz

#endif  // OLXP_FUZZ_COMMON_SQL_ORACLE_H_
