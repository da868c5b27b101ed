#ifndef OLXP_EXEC_HASH_JOIN_H_
#define OLXP_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/vec.h"
#include "exec/vexpr.h"
#include "sql/bound_plan.h"
#include "storage/column_store.h"
#include "storage/schema.h"

/// Vectorized hash-join building blocks. The planner-side classification
/// splits a join step's conjuncts into equi-join keys, build-local filters
/// and cross-table residuals; HashJoinTable materializes the build side
/// from the replica's column chunks and indexes it by join key.

namespace olxp::exec {

/// One equi-join conjunct `probe = build`: the probe child references only
/// slots of steps already joined, the build child only slots of the build
/// step. Pointers borrow from the bound plan (valid for its lifetime).
struct JoinKey {
  const sql::BoundExpr* probe = nullptr;
  const sql::BoundExpr* build = nullptr;
};

/// Classification of one non-driver TableStep's conjuncts.
struct JoinStepPlan {
  std::vector<JoinKey> keys;
  /// Conjuncts over this step's slots only (applied while building).
  std::vector<const sql::BoundExpr*> locals;
  /// Cross-table conjuncts that are not simple equi keys (re-checked on the
  /// joined batch, exactly like the interpreter re-checks every filter).
  std::vector<const sql::BoundExpr*> residuals;
};

/// Splits step `k`'s filters into keys/locals/residuals. Returns false when
/// the step has no equi-join key linking it to earlier steps (the hash join
/// would degenerate to a cross product — the interpreter keeps those) or a
/// filter references slots outside the joined prefix.
bool ClassifyJoinStep(const sql::BoundSelect& plan, size_t k,
                      JoinStepPlan* out);

/// The build side of one hash-join level: surviving rows' column values in
/// columnar layout plus a join-key index into them. Key equality matches
/// the interpreter's `=` exactly: Value::Compare semantics via KeyEq (NULL
/// keys are skipped on both sides — NULL never joins), with a fast path for
/// a single integer-family key.
///
/// The vectorized engine fills it from one lane of its scan driver, chunk
/// by chunk in scan order; afterwards the table is immutable, so the
/// morsel-driven parallel probe fans ProbeInt/ProbeRow/at out across every
/// execution lane with no synchronization (a shared read-only build table
/// is the whole point of the morsel model's join story; parallelizing the
/// build itself is a ROADMAP follow-up).
class HashJoinTable {
 public:
  /// Sets up the empty build, once, before the first Add: a table of
  /// `ncols` columns keyed by `key_exprs`. Only columns flagged in
  /// `needed_cols` are materialized (empty span = all): the join only pays
  /// for columns the rest of the plan references.
  void Init(int ncols, std::span<const VExpr> key_exprs,
            std::span<const uint8_t> needed_cols);

  /// Evaluates `key_exprs` (the ones passed to Init) over the selected rows
  /// of one build-table chunk, already narrowed by the build-local filters,
  /// and indexes every row with no NULL key.
  Status Add(std::span<const VExpr> key_exprs,
             const storage::ColumnChunkView& chunk, const Sel& sel);

  size_t rows() const { return nrows_; }
  int ncols() const { return static_cast<int>(cols_.size()); }
  bool int_keyed() const { return int_keyed_; }

  /// Matching build-row indices, or nullptr. Probe with the variant that
  /// matches int_keyed(); ProbeRow also serves int-keyed tables.
  const std::vector<uint32_t>* ProbeInt(int64_t key) const;
  const std::vector<uint32_t>* ProbeRow(const Row& key) const;

  /// Column `c` of build row `r`.
  const Value& at(int c, uint32_t r) const { return cols_[c][r]; }

 private:
  std::vector<std::vector<Value>> cols_;  // [col][build row]
  std::vector<int> store_cols_;           // columns materialized
  size_t nrows_ = 0;
  bool int_keyed_ = false;
  size_t key_width_ = 0;
  std::unordered_map<int64_t, std::vector<uint32_t>> int_index_;
  std::unordered_map<Row, std::vector<uint32_t>, storage::KeyHash,
                     storage::KeyEq>
      row_index_;
};

}  // namespace olxp::exec

#endif  // OLXP_EXEC_HASH_JOIN_H_
