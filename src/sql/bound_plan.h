#ifndef OLXP_SQL_BOUND_PLAN_H_
#define OLXP_SQL_BOUND_PLAN_H_

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/checked_arith.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "storage/schema.h"

/// Bound (compiled) plan representation shared by the row-at-a-time
/// interpreter (sql/executor.cc) and the vectorized columnar engine
/// (src/exec/). The compiler in executor.cc produces these; exec/ lowers the
/// single-table analytical subset onto typed column vectors.

namespace olxp::sql {

struct BoundSelect;

/// Bound expression node kinds (post name-resolution).
enum class BKind {
  kLiteral,
  kSlot,
  kParam,
  kUnary,
  kBinary,
  kAggRef,
  kBetween,
  kInList,
  kInSubquery,
  kScalarSubquery,
  kCase,
};

struct BoundExpr {
  BKind kind = BKind::kLiteral;
  Value literal;
  int slot = -1;
  int param_index = -1;
  UnaryOp uop = UnaryOp::kNeg;
  BinaryOp bop = BinaryOp::kEq;
  int agg_index = -1;
  bool negated_in = false;
  int sub_id = -1;
  std::vector<std::unique_ptr<BoundExpr>> children;
  std::shared_ptr<BoundSelect> subplan;
  int max_slot = -1;  ///< highest tuple slot referenced in this subtree
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// Deep copy of a bound expression (subplans shared).
inline BoundExprPtr CloneBound(const BoundExpr& e) {
  auto out = std::make_unique<BoundExpr>();
  out->kind = e.kind;
  out->literal = e.literal;
  out->slot = e.slot;
  out->param_index = e.param_index;
  out->uop = e.uop;
  out->bop = e.bop;
  out->agg_index = e.agg_index;
  out->negated_in = e.negated_in;
  out->sub_id = e.sub_id;
  out->subplan = e.subplan;
  out->max_slot = e.max_slot;
  for (const auto& c : e.children) out->children.push_back(CloneBound(*c));
  return out;
}

struct AggSpec {
  AggFunc fn = AggFunc::kCountStar;
  BoundExprPtr arg;  // null for COUNT(*)
};

struct TableStep {
  enum class Path { kFull, kPkPoint, kPkPrefixRange, kIndexPrefix };

  int table_id = -1;
  const storage::TableSchema* schema = nullptr;
  int base = 0;
  int ncols = 0;
  Path path = Path::kFull;
  int index_id = -1;
  /// Equality values for the key prefix (pk or index column order).
  std::vector<BoundExprPtr> key_exprs;
  /// Optional inclusive range bounds on the pk column following the
  /// equality prefix (kPkPrefixRange only).
  BoundExprPtr range_lo;
  BoundExprPtr range_hi;
  /// All conjuncts placed at this step (always re-checked).
  std::vector<BoundExprPtr> filters;
};

struct BoundOrderItem {
  BoundExprPtr expr;  // null when proj_index >= 0
  int proj_index = -1;
  bool desc = false;
};

struct BoundSelect {
  std::vector<TableStep> steps;
  int total_slots = 0;
  bool aggregate_mode = false;
  std::vector<BoundExprPtr> group_by;
  std::vector<AggSpec> aggs;
  std::vector<BoundExprPtr> projections;
  std::vector<std::string> column_names;
  BoundExprPtr having;
  std::vector<BoundOrderItem> order_by;
  int64_t limit = -1;
  bool distinct = false;
};

/// Materialized rows of a statement's uncorrelated subqueries, by sub_id.
/// Both executors fill it before their first table latch.
using SubqueryRows = std::vector<std::optional<std::vector<Row>>>;

/// Calls fn(node) for every subquery node in the plan's expression
/// positions (step keys, ranges and filters; projections; grouping,
/// aggregate arguments, HAVING; ORDER BY), not descending into subplans.
/// Returns the first error.
Status ForEachSubquery(const BoundSelect& plan,
                       const std::function<Status(const BoundExpr&)>& fn);

/// A scalar subquery's value: NULL for no rows, else the first column of
/// its single row; more than one row is InvalidArgument (picking one would
/// make the answer depend on the store's scan order).
StatusOr<Value> ScalarSubqueryValue(const std::vector<Row>& rows);

struct BoundInsert {
  int table_id = -1;
  const storage::TableSchema* schema = nullptr;
  /// For each statement column list entry, its schema position. Empty when
  /// the statement uses schema order.
  std::vector<int> col_map;
  std::vector<std::vector<BoundExprPtr>> rows;
};

/// UPDATE and DELETE select their rows with a one-step plan over the target
/// table (slots = its columns), compiled once and run as is.
struct BoundUpdate {
  BoundSelect scan;
  std::vector<std::pair<int, BoundExprPtr>> assignments;  // schema pos
  const TableStep& step() const { return scan.steps.front(); }
};

struct BoundDelete {
  BoundSelect scan;
  const TableStep& step() const { return scan.steps.front(); }
};

struct BoundCreateTable {
  storage::TableSchema schema;
};

struct BoundCreateIndex {
  std::string table_name;
  storage::IndexDef def;
};

enum class StmtKind { kSelect, kInsert, kUpdate, kDelete, kCreateTable,
                      kCreateIndex };

/// Aggregate accumulator with the engine's SQL semantics (NULLs skipped,
/// int/double promotion, AVG always double). Shared by the interpreter and
/// the vectorized engine so both produce bit-identical aggregate results.
/// Double sums are Neumaier-compensated: the running error term keeps the
/// final rounded sum independent of accumulation order, so morsel-driven
/// parallel partials merged out of scan order still agree with a one-lane
/// pass to the last bit for all practical inputs.
struct AggAccum {
  int64_t count = 0;
  double dsum = 0;
  double dcomp = 0;  ///< Neumaier compensation term for dsum
  int64_t isum = 0;
  bool isum_overflow = false;  ///< SUM over INTs left int64 range -> NULL
  bool any_double = false;
  Value min, max;  // NULL until first value

  /// Checked integer-sum accumulation: overflow poisons the integer sum
  /// (SUM yields NULL) instead of signed-overflow UB.
  void AddInt(int64_t x) {
    if (auto r = CheckedAdd(isum, x)) {
      isum = *r;
    } else {
      isum_overflow = true;
    }
  }

  void AddDouble(double x) {
    double t = dsum + x;
    if (std::abs(dsum) >= std::abs(x)) {
      dcomp += (dsum - t) + x;
    } else {
      dcomp += (x - t) + dsum;
    }
    dsum = t;
  }

  double DoubleSum() const { return dsum + dcomp; }

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      if (v.type() == ValueType::kDouble) {
        any_double = true;
        AddDouble(v.AsDouble());
      } else {
        AddInt(v.AsInt());
        AddDouble(v.AsDouble());
      }
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  /// Folds a partial accumulator over a disjoint row subset into this one.
  /// Partial-state merge for parallel aggregation: merging per-morsel
  /// partials in morsel order reproduces the one-lane result (counts, integer
  /// sums and extremes exactly; double sums to compensated precision).
  void MergeFrom(const AggAccum& o) {
    count += o.count;
    isum_overflow = isum_overflow || o.isum_overflow;
    AddInt(o.isum);
    any_double = any_double || o.any_double;
    AddDouble(o.dsum);
    AddDouble(o.dcomp);
    if (!o.min.is_null() && (min.is_null() || o.min.Compare(min) < 0)) {
      min = o.min;
    }
    if (!o.max.is_null() && (max.is_null() || o.max.Compare(max) > 0)) {
      max = o.max;
    }
  }

  Value Result(AggFunc fn, int64_t star_count) const {
    switch (fn) {
      case AggFunc::kCountStar:
        return Value::Int(star_count);
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        if (any_double) return Value::Double(DoubleSum());
        return isum_overflow ? Value::Null() : Value::Int(isum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(DoubleSum() / static_cast<double>(count));
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return Value::Null();
  }
};

/// Compiled-statement implementation: the bound plan variants. Public so the
/// vectorized engine can inspect and lower plans; treat as read-only outside
/// sql/executor.cc.
struct CompiledStatement::Impl {
  StmtKind kind = StmtKind::kSelect;
  std::shared_ptr<BoundSelect> select;
  std::unique_ptr<BoundInsert> insert;
  std::unique_ptr<BoundUpdate> update;
  std::unique_ptr<BoundDelete> del;
  std::unique_ptr<BoundCreateTable> create_table;
  std::unique_ptr<BoundCreateIndex> create_index;
  int num_subqueries = 0;
};

/// Evaluates a bound scalar expression row-at-a-time with the interpreter's
/// exact semantics. `tuple` supplies slot values, `agg_values` the per-group
/// aggregate results for kAggRef nodes (may be null outside group context).
/// Every subquery in `e` must already be materialized in `subqueries`,
/// which is only read. The vectorized engine uses this for post-aggregation
/// projections, HAVING and ORDER BY keys so both engines agree exactly.
StatusOr<Value> EvalBound(const BoundExpr& e, const Row& tuple,
                          std::span<const Value> params,
                          const std::vector<Value>* agg_values,
                          SubqueryRows* subqueries);

}  // namespace olxp::sql

#endif  // OLXP_SQL_BOUND_PLAN_H_
