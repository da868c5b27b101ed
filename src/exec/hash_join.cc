#include "exec/hash_join.h"

#include <climits>

namespace olxp::exec {

namespace {

using sql::BKind;
using sql::BinaryOp;
using sql::BoundExpr;
using sql::TableStep;

/// Narrows [mn, mx] to cover every slot referenced in the subtree.
void SlotRange(const BoundExpr& e, int* mn, int* mx) {
  if (e.kind == BKind::kSlot) {
    if (e.slot < *mn) *mn = e.slot;
    if (e.slot > *mx) *mx = e.slot;
  }
  for (const auto& c : e.children) SlotRange(*c, mn, mx);
}

/// Statically known payload family of a lowered expression: kInt for the
/// integer family, kDouble / kString for those, kNull when the family is
/// only known at evaluation time (computed expressions).
ValueType StaticFamily(const VExpr& e) {
  ValueType t = ValueType::kNull;
  if (e.kind == BKind::kLiteral) t = e.literal.type();
  if (e.kind == BKind::kSlot) t = e.col_type;
  return t == ValueType::kTimestamp ? ValueType::kInt : t;
}

}  // namespace

bool ClassifyJoinStep(const sql::BoundSelect& plan, size_t k,
                      JoinStepPlan* out) {
  const TableStep& step = plan.steps[k];
  const int base = step.base;
  const int end = base + step.ncols;
  for (const auto& f : step.filters) {
    int mn = INT_MAX, mx = -1;
    SlotRange(*f, &mn, &mx);
    if (mx >= end) return false;  // beyond the joined prefix: not lowerable
    if (mn == INT_MAX || mn >= base) {
      out->locals.push_back(f.get());
      continue;
    }
    // Cross-table conjunct: an equality whose sides split cleanly into
    // "this step only" and "earlier steps only" becomes a hash key; every
    // other shape is re-checked on the joined batch.
    if (f->kind == BKind::kBinary && f->bop == BinaryOp::kEq &&
        f->children.size() == 2) {
      auto side = [&](const BoundExpr& c, bool* build_pure,
                      bool* probe_pure) {
        int cmn = INT_MAX, cmx = -1;
        SlotRange(c, &cmn, &cmx);
        *build_pure = cmn != INT_MAX && cmn >= base && cmx < end;
        *probe_pure = cmx >= 0 && cmx < base;
      };
      bool b0, p0, b1, p1;
      side(*f->children[0], &b0, &p0);
      side(*f->children[1], &b1, &p1);
      if (b0 && p1) {
        out->keys.push_back({f->children[1].get(), f->children[0].get()});
        continue;
      }
      if (b1 && p0) {
        out->keys.push_back({f->children[0].get(), f->children[1].get()});
        continue;
      }
    }
    out->residuals.push_back(f.get());
  }
  return !out->keys.empty();
}

void HashJoinTable::Init(int ncols, std::span<const VExpr> key_exprs,
                         std::span<const uint8_t> needed_cols) {
  cols_.assign(ncols, {});
  for (int c = 0; c < ncols; ++c) {
    if (needed_cols.empty() || needed_cols[c] != 0) store_cols_.push_back(c);
  }
  key_width_ = key_exprs.size();
  int_keyed_ =
      key_width_ == 1 && StaticFamily(key_exprs[0]) == ValueType::kInt;
}

Status HashJoinTable::Add(std::span<const VExpr> key_exprs,
                          const storage::ColumnChunkView& chunk,
                          const Sel& sel) {
  if (sel.empty()) return Status::OK();
  std::vector<Vec> kvecs;
  kvecs.reserve(key_width_);
  for (const VExpr& k : key_exprs) {
    auto v = EvalVec(k, chunk, sel);
    if (!v.ok()) return v.status();
    kvecs.push_back(std::move(v).value());
  }
  for (size_t i = 0; i < sel.size(); ++i) {
    bool null_key = false;
    for (const Vec& kv : kvecs) {
      if (kv.null_at(i)) {
        null_key = true;
        break;
      }
    }
    if (null_key) continue;  // NULL never joins
    uint32_t idx = static_cast<uint32_t>(nrows_++);
    for (int c : store_cols_) cols_[c].push_back(chunk.value_at(c, sel[i]));
    if (int_keyed_) {
      int_index_[kvecs[0].int_at(i)].push_back(idx);
    } else {
      Row key;
      key.reserve(key_width_);
      for (const Vec& kv : kvecs) key.push_back(kv.value_at(i));
      row_index_[std::move(key)].push_back(idx);
    }
  }
  return Status::OK();
}

const std::vector<uint32_t>* HashJoinTable::ProbeInt(int64_t key) const {
  auto it = int_index_.find(key);
  return it == int_index_.end() ? nullptr : &it->second;
}

const std::vector<uint32_t>* HashJoinTable::ProbeRow(const Row& key) const {
  if (int_keyed_) {
    // The build side indexed a single integer-family key; a probe value of
    // another family can only match when it is an integral double
    // (Value::Compare equates numerics by value).
    const Value& v = key[0];
    if (!v.is_numeric()) return nullptr;
    if (v.type() == ValueType::kDouble) {
      double d = v.AsDouble();
      int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) != d) return nullptr;
      return ProbeInt(i);
    }
    return ProbeInt(v.AsInt());
  }
  auto it = row_index_.find(key);
  return it == row_index_.end() ? nullptr : &it->second;
}

}  // namespace olxp::exec
