#ifndef OLXP_SQL_EXECUTOR_H_
#define OLXP_SQL_EXECUTOR_H_

#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "obs/query_trace.h"
#include "sql/ast.h"
#include "sql/storage_iface.h"

namespace olxp::sql {

/// A compiled (bound + planned) statement: column references resolved to
/// tuple slots, access paths chosen (pk point / pk prefix range / secondary
/// index / full scan), conjuncts placed at the deepest join step that can
/// evaluate them, subqueries compiled. Immutable after compilation; safe to
/// execute repeatedly with different parameters from ONE thread at a time
/// per execution (sessions own their own caches).
class CompiledStatement {
 public:
  ~CompiledStatement();
  CompiledStatement(CompiledStatement&&) noexcept;
  CompiledStatement& operator=(CompiledStatement&&) noexcept;

  /// What kind of statement this is (for routing decisions in the engine).
  bool IsSelect() const;
  /// True when the select reads a single table with a full-pk point path
  /// (cheap OLTP read; used by the engine's cost model).
  bool IsPointRead() const;

  /// True for SELECTs with aggregate functions or multiple tables — the
  /// "analytical shape" the engine treats specially inside transactions.
  bool IsAnalyticalShape() const;

  /// Bound plan (defined in sql/bound_plan.h); public so the compiler and
  /// executor free functions construct/consume it and so the vectorized
  /// engine in src/exec/ can lower analytical shapes onto column vectors.
  struct Impl;
  explicit CompiledStatement(std::unique_ptr<Impl> impl);
  const Impl& impl() const { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Compiles a parsed statement against a catalog.
StatusOr<std::unique_ptr<CompiledStatement>> Compile(const Statement& stmt,
                                                     const Catalog& catalog);

/// Executes a compiled statement with positional parameters. When `trace`
/// is non-null, per-operator row counts and wall times are appended
/// (EXPLAIN ANALYZE capture; each subquery is one "subquery" op). Tracing
/// never changes results.
StatusOr<ResultSet> Execute(const CompiledStatement& stmt,
                            std::span<const Value> params,
                            StorageIface* storage,
                            obs::QueryTrace* trace = nullptr);

}  // namespace olxp::sql

#endif  // OLXP_SQL_EXECUTOR_H_
