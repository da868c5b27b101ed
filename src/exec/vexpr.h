#ifndef OLXP_EXEC_VEXPR_H_
#define OLXP_EXEC_VEXPR_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/vec.h"
#include "sql/bound_plan.h"
#include "storage/column_store.h"

namespace olxp::exec {

/// Members of an IN (subquery), hashed for the membership kernel
/// (defined in vexpr.cc).
class InSet;

/// A bound expression lowered for vectorized evaluation: parameters and
/// scalar subqueries folded into literals, IN subqueries carrying their
/// member set, column references their declared type.
struct VExpr {
  sql::BKind kind = sql::BKind::kLiteral;
  Value literal;                          ///< kLiteral (params pre-folded)
  int col = -1;                           ///< kSlot: column index
  ValueType col_type = ValueType::kNull;  ///< declared type of `col`
  sql::UnaryOp uop = sql::UnaryOp::kNeg;
  sql::BinaryOp bop = sql::BinaryOp::kEq;
  bool negated_in = false;
  std::shared_ptr<const InSet> in_set;  ///< kInSubquery
  std::vector<VExpr> children;
};

/// Statement constants lowering folds in: the positional parameters and the
/// pre-materialized subquery rows (null before any subquery ran).
struct LowerInputs {
  std::span<const Value> params;
  sql::SubqueryRows* subqueries = nullptr;
};

/// Lowers a bound expression for vectorized evaluation: slot `s` maps to
/// column `s - slot_base` of a chunk whose columns have the declared types
/// `slot_types[s - slot_base]` (a single-table scan passes its schema's
/// types and base 0; the join pipeline passes the joined slot types, or
/// one table's types and its step's slot base). Returns Unsupported for
/// aggregate references and for subqueries without materialized rows, and
/// InvalidArgument for a scalar subquery over more than one row.
StatusOr<VExpr> LowerExprSlots(const sql::BoundExpr& e,
                               std::span<const ValueType> slot_types,
                               int slot_base, const LowerInputs& in);

/// Evaluates `e` over the selected rows of one chunk, producing one logical
/// row per selection entry. The per-value rules (comparison outcomes,
/// int/double promotion, checked arithmetic, negation) are the
/// interpreter's: both call sql/scalar_ops.h.
StatusOr<Vec> EvalVec(const VExpr& e, const storage::ColumnChunkView& chunk,
                      const Sel& sel);

/// Selection of the chunk's live rows.
Sel LiveRows(const storage::ColumnChunkView& chunk);

/// Evaluates lowered conjuncts against (chunk, sel), narrowing sel to the
/// rows where every conjunct is truthy (Vec::truthy). Shared by the scan,
/// hash-build and join-probe stages. Leaf comparisons against literals take
/// flat-array fast paths over encoded blocks (packed/RLE integers compared
/// without reboxing, string compares turned into dictionary-code compares)
/// with semantics bit-identical to the generic kernel.
Status ApplyConjuncts(std::span<const VExpr> filters,
                      const storage::ColumnChunkView& chunk, Sel* sel);

/// Extracts zone-map predicate bounds from lowered filter conjuncts: every
/// top-level `col <cmp> literal` (either operand order) with a non-null
/// literal and an op a min/max range can refute (=, <, <=, >, >=). The
/// result is sound for block skipping regardless of the remaining
/// conjuncts — skipping only needs SOME conjunct to be refutable.
std::vector<storage::ZonePred> ExtractZonePreds(std::span<const VExpr> filters);

}  // namespace olxp::exec

#endif  // OLXP_EXEC_VEXPR_H_
