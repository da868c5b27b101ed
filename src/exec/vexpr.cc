#include "exec/vexpr.h"

#include <cmath>
#include <string>
#include <unordered_set>

#include "common/strings.h"
#include "sql/scalar_ops.h"

namespace olxp::exec {

/// The distinct non-NULL first-column values of an IN subquery's rows,
/// hashed per payload family. Membership is Value::Compare equality, as in
/// the interpreter: integral values match exactly, a DOUBLE on either side
/// compares as doubles (a NaN equals every number), and strings match
/// strings only.
class InSet {
 public:
  explicit InSet(const std::vector<Row>& rows);
  /// Whether the non-NULL row `i` of `v` is a member.
  bool Contains(const Vec& v, size_t i) const;

 private:
  std::unordered_set<int64_t> ints_;  ///< INT and TIMESTAMP members
  std::unordered_set<double> dbls_;   ///< DOUBLE members
  std::unordered_set<double> nums_;   ///< every numeric member, as a double
  std::unordered_set<std::string> strs_;
  bool nan_ = false;  ///< a NaN member
};

namespace {

using sql::BKind;
using sql::BinaryOp;
using sql::CmpMatches;
using sql::UnaryOp;

Vec AllNull(size_t rows) {
  Vec out;
  out.type = ValueType::kNull;
  out.n = rows;
  return out;
}

bool IsIntFamily(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kTimestamp;
}

/// Three-way compare of two non-null rows, mirroring Value::Compare:
/// numerics compare by value (exactly when both integral), strings
/// lexicographically, heterogeneous pairs by type tag.
int CmpRow(const Vec& l, const Vec& r, size_t i) {
  if (l.numeric() && r.numeric()) {
    if (l.type != ValueType::kDouble && r.type != ValueType::kDouble) {
      int64_t a = l.int_at(i), b = r.int_at(i);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = l.dbl_at(i), b = r.dbl_at(i);
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (l.type == ValueType::kString && r.type == ValueType::kString) {
    int c = l.str_at(i).compare(r.str_at(i));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return static_cast<int>(l.type) < static_cast<int>(r.type) ? -1 : 1;
}

/// NULL-rejecting comparison (interpreter: any NULL operand -> false).
Vec CompareKernel(BinaryOp op, const Vec& l, const Vec& r) {
  const size_t n = l.n;
  Vec out = Vec::Bools(n);
  if (l.type == ValueType::kNull || r.type == ValueType::kNull) return out;
  const bool no_nulls = l.nulls.empty() && r.nulls.empty();
  if (l.numeric() && r.numeric() && l.type != ValueType::kDouble &&
      r.type != ValueType::kDouble) {
    // Hot path: integer against integer (ids, counters, timestamps).
    for (size_t i = 0; i < n; ++i) {
      if (!no_nulls && (l.null_at(i) || r.null_at(i))) continue;
      int64_t a = l.int_at(i), b = r.int_at(i);
      out.ints[i] = CmpMatches(op, a < b ? -1 : (a > b ? 1 : 0)) ? 1 : 0;
    }
    return out;
  }
  if (l.numeric() && r.numeric()) {
    for (size_t i = 0; i < n; ++i) {
      if (!no_nulls && (l.null_at(i) || r.null_at(i))) continue;
      double a = l.dbl_at(i), b = r.dbl_at(i);
      out.ints[i] = CmpMatches(op, a < b ? -1 : (a > b ? 1 : 0)) ? 1 : 0;
    }
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    if (l.null_at(i) || r.null_at(i)) continue;
    out.ints[i] = CmpMatches(op, CmpRow(l, r, i)) ? 1 : 0;
  }
  return out;
}

/// Element-wise binary arithmetic (rules in sql/scalar_ops.h).
StatusOr<Vec> ArithKernel(BinaryOp op, const Vec& l, const Vec& r) {
  const size_t n = l.n;
  if (l.type == ValueType::kNull || r.type == ValueType::kNull) {
    return AllNull(n);
  }
  OLXP_RETURN_NOT_OK(sql::CheckArithOperands(l.type, r.type));
  Vec out;
  out.n = n;
  out.nulls.assign(n, 0);
  bool any_null = false;
  const auto fill = [&](auto& payload, auto&& element) {
    payload.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (!l.null_at(i) && !r.null_at(i)) {
        if (auto res = element(i)) {
          payload[i] = *res;
          continue;
        }
      }
      out.nulls[i] = 1;
      any_null = true;
    }
  };
  if (sql::ArithAsDouble(op, l.type, r.type)) {
    out.type = ValueType::kDouble;
    fill(out.dbls, [&](size_t i) {
      return sql::DoubleArith(op, l.dbl_at(i), r.dbl_at(i));
    });
  } else {
    out.type = ValueType::kInt;
    fill(out.ints, [&](size_t i) {
      return sql::IntArith(op, l.int_at(i), r.int_at(i));
    });
  }
  if (!any_null) out.nulls.clear();
  return out;
}

/// Gathers a table column over the selection into a typed vector, decoding
/// the block encoding with flat-array loops (no boxed Value is built).
/// Columns hold NormalizeRow output, so every non-NULL value of an encoded
/// span has the declared type; kRaw spans (tail, fallback blocks) keep the
/// historical boxed behavior.
Vec Gather(int col, ValueType decl, const storage::ColumnChunkView& chunk,
           const Sel& sel) {
  using Enc = storage::EncodedColumn::Enc;
  const size_t n = sel.size();
  const storage::ColumnSpan& s = chunk.span(col);
  const size_t off = chunk.offset;
  Vec out;
  out.n = n;
  out.type = decl;
  out.nulls.assign(n, 0);
  bool any_value = false;
  bool any_null = false;
  switch (s.enc) {
    case Enc::kFlatInt:
      out.ints.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const size_t p = off + sel[i];
        if (s.nulls != nullptr && s.nulls[p]) {
          out.nulls[i] = 1;
          any_null = true;
        } else {
          out.ints[i] = s.ints[p];
          any_value = true;
        }
      }
      break;
    case Enc::kPacked:
      out.ints.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const size_t p = off + sel[i];
        if (s.nulls != nullptr && s.nulls[p]) {
          out.nulls[i] = 1;
          any_null = true;
        } else {
          out.ints[i] = static_cast<int64_t>(
              static_cast<uint64_t>(s.pack_base) +
              storage::UnpackBits(s.packed, s.pack_width, p));
          any_value = true;
        }
      }
      break;
    case Enc::kRle: {
      // sel is ascending, so the covering run only ever moves forward:
      // a pointer walk instead of a binary search per row.
      out.ints.assign(n, 0);
      size_t ri = 0;
      for (size_t i = 0; i < n; ++i) {
        const size_t p = off + sel[i];
        while (ri + 1 < s.num_runs && s.runs[ri + 1].start <= p) ++ri;
        if (s.nulls != nullptr && s.nulls[p]) {
          out.nulls[i] = 1;
          any_null = true;
        } else {
          out.ints[i] = s.runs[ri].value;
          any_value = true;
        }
      }
      break;
    }
    case Enc::kFlatDbl:
      out.dbls.assign(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        const size_t p = off + sel[i];
        if (s.nulls != nullptr && s.nulls[p]) {
          out.nulls[i] = 1;
          any_null = true;
        } else {
          out.dbls[i] = s.dbls[p];
          any_value = true;
        }
      }
      break;
    case Enc::kDict:
      // Borrow string pointers from the dictionary — stable for the scan's
      // lifetime, exactly like borrowing from boxed column storage.
      out.strs.assign(n, nullptr);
      for (size_t i = 0; i < n; ++i) {
        const size_t p = off + sel[i];
        if (s.nulls != nullptr && s.nulls[p]) {
          out.nulls[i] = 1;
          any_null = true;
        } else {
          out.strs[i] = &s.dict[s.codes[p]];
          any_value = true;
        }
      }
      break;
    case Enc::kRaw:
      if (IsIntFamily(decl)) {
        out.ints.assign(n, 0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = s.flat[off + sel[i]];
          if (v.is_null()) {
            out.nulls[i] = 1;
            any_null = true;
          } else {
            out.ints[i] = v.AsInt();
            any_value = true;
          }
        }
      } else if (decl == ValueType::kDouble) {
        out.dbls.assign(n, 0.0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = s.flat[off + sel[i]];
          if (v.is_null()) {
            out.nulls[i] = 1;
            any_null = true;
          } else {
            out.dbls[i] = v.AsDouble();
            any_value = true;
          }
        }
      } else {
        out.strs.assign(n, nullptr);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = s.flat[off + sel[i]];
          if (v.is_null()) {
            out.nulls[i] = 1;
            any_null = true;
          } else {
            out.strs[i] = &v.AsString();
            any_value = true;
          }
        }
      }
      break;
  }
  // Typed encodings exist only when every live value matched the declared
  // type at seal time (Encode falls back to kRaw otherwise), so `decl` is
  // always the right Vec type for the non-raw arms above.
  if (!any_value) return AllNull(n);
  if (!any_null) out.nulls.clear();
  return out;
}

/// Mirrors swapping a comparison's operands: `lit op col` -> `col op' lit`.
BinaryOp FlipCompare(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

bool IsCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Decomposes a leaf `col <cmp> literal` conjunct (either operand order;
/// the returned op is normalized to column-on-the-left). Returns false for
/// every other shape.
bool MatchSlotLiteralCompare(const VExpr& f, int* col, BinaryOp* op,
                             const Value** lit) {
  if (f.kind != BKind::kBinary || !IsCompareOp(f.bop)) return false;
  if (f.children.size() != 2) return false;
  const VExpr& a = f.children[0];
  const VExpr& b = f.children[1];
  if (a.kind == BKind::kSlot && b.kind == BKind::kLiteral) {
    *col = a.col;
    *op = f.bop;
    *lit = &b.literal;
    return true;
  }
  if (a.kind == BKind::kLiteral && b.kind == BKind::kSlot) {
    *col = b.col;
    *op = FlipCompare(f.bop);
    *lit = &a.literal;
    return true;
  }
  return false;
}

/// Narrows `sel` for a `col <cmp> literal` conjunct directly on the encoded
/// arrays — packed/RLE/flat integers compared without reboxing, string
/// compares turned into one dictionary probe plus code compares. Returns
/// false (sel untouched) when the shape or encoding doesn't qualify; the
/// generic EvalVec kernel then runs. Must match CompareKernel exactly:
/// NULL operands reject the row, integers compare exactly.
bool TryFastFilter(const VExpr& f, const storage::ColumnChunkView& chunk,
                   Sel* sel) {
  using Enc = storage::EncodedColumn::Enc;
  int col = -1;
  BinaryOp op = BinaryOp::kEq;
  const Value* lit = nullptr;
  if (!MatchSlotLiteralCompare(f, &col, &op, &lit)) return false;
  if (lit->is_null()) return false;  // generic kernel yields all-false
  const storage::ColumnSpan& s = chunk.span(col);
  const size_t off = chunk.offset;

  const auto narrow_ints = [&](auto&& value_at) {
    const int64_t lv = lit->AsInt();
    size_t w = 0;
    for (size_t k = 0; k < sel->size(); ++k) {
      const size_t p = off + (*sel)[k];
      if (s.nulls != nullptr && s.nulls[p]) continue;
      const int64_t x = value_at(p);
      const int c = x < lv ? -1 : (x > lv ? 1 : 0);
      if (CmpMatches(op, c)) (*sel)[w++] = (*sel)[k];
    }
    sel->resize(w);
  };

  switch (s.enc) {
    case Enc::kFlatInt:
      if (!IsIntFamily(lit->type())) return false;  // e.g. double literal
      narrow_ints([&](size_t p) { return s.ints[p]; });
      return true;
    case Enc::kPacked:
      if (!IsIntFamily(lit->type())) return false;
      narrow_ints([&](size_t p) {
        return static_cast<int64_t>(
            static_cast<uint64_t>(s.pack_base) +
            storage::UnpackBits(s.packed, s.pack_width, p));
      });
      return true;
    case Enc::kRle: {
      if (!IsIntFamily(lit->type())) return false;
      size_t ri = 0;  // sel ascends, so the covering run only moves forward
      narrow_ints([&](size_t p) {
        while (ri + 1 < s.num_runs && s.runs[ri + 1].start <= p) ++ri;
        return s.runs[ri].value;
      });
      return true;
    }
    case Enc::kDict: {
      if (lit->type() != ValueType::kString) return false;
      // One dictionary binary search; the per-row compare is then a code
      // compare (the dictionary is sorted, so code order == lex order).
      const std::string& needle = lit->AsString();
      const uint32_t lb = static_cast<uint32_t>(
          std::lower_bound(s.dict, s.dict + s.dict_size, needle) - s.dict);
      const bool present = lb < s.dict_size && s.dict[lb] == needle;
      size_t w = 0;
      for (size_t k = 0; k < sel->size(); ++k) {
        const size_t p = off + (*sel)[k];
        if (s.nulls != nullptr && s.nulls[p]) continue;
        const uint32_t code = s.codes[p];
        // Three-way outcome vs. the literal: codes below lb are < needle,
        // lb itself is == only when present, everything else is >.
        const int c = code < lb ? -1 : (present && code == lb ? 0 : 1);
        if (CmpMatches(op, c)) (*sel)[w++] = (*sel)[k];
      }
      sel->resize(w);
      return true;
    }
    case Enc::kRaw:
    case Enc::kFlatDbl:
      return false;  // boxed / double compares keep the generic kernel
  }
  return false;
}

}  // namespace

InSet::InSet(const std::vector<Row>& rows) {
  for (const Row& r : rows) {
    if (r.empty() || r[0].is_null()) continue;
    const Value& v = r[0];
    switch (v.type()) {
      case ValueType::kInt:
      case ValueType::kTimestamp:
        ints_.insert(v.AsInt());
        nums_.insert(v.AsDouble());
        break;
      case ValueType::kDouble:
        if (std::isnan(v.AsDouble())) {
          nan_ = true;
        } else {
          dbls_.insert(v.AsDouble());
          nums_.insert(v.AsDouble());
        }
        break;
      case ValueType::kString:
        strs_.insert(v.AsString());
        break;
      case ValueType::kNull:
        break;
    }
  }
}

bool InSet::Contains(const Vec& v, size_t i) const {
  switch (v.type) {
    case ValueType::kInt:
    case ValueType::kTimestamp: {
      const int64_t x = v.int_at(i);
      return nan_ || ints_.contains(x) ||
             dbls_.contains(static_cast<double>(x));
    }
    case ValueType::kDouble: {
      const double d = v.dbl_at(i);
      if (std::isnan(d)) return nan_ || !nums_.empty();
      return nan_ || nums_.contains(d);
    }
    case ValueType::kString:
      return strs_.contains(v.str_at(i));
    case ValueType::kNull:
      break;
  }
  return false;
}

StatusOr<VExpr> LowerExprSlots(const sql::BoundExpr& e,
                               std::span<const ValueType> slot_types,
                               int slot_base, const LowerInputs& in) {
  VExpr out;
  out.kind = e.kind;
  switch (e.kind) {
    case BKind::kLiteral:
      out.literal = e.literal;
      return out;
    case BKind::kParam:
      if (e.param_index < 0 ||
          static_cast<size_t>(e.param_index) >= in.params.size()) {
        return Status::InvalidArgument("missing statement parameter");
      }
      out.kind = BKind::kLiteral;
      out.literal = in.params[e.param_index];
      return out;
    case BKind::kSlot: {
      const int col = e.slot - slot_base;
      if (col < 0 || static_cast<size_t>(col) >= slot_types.size()) {
        return Status::Internal("slot out of range for lowering window");
      }
      out.col = col;
      out.col_type = slot_types[col];
      return out;
    }
    case BKind::kUnary:
      out.uop = e.uop;
      break;
    case BKind::kBinary:
      out.bop = e.bop;
      break;
    case BKind::kBetween:
    case BKind::kInList:
    case BKind::kCase:
      break;
    case BKind::kAggRef:
      return Status::Unsupported("aggregate reference in vectorized scan");
    case BKind::kScalarSubquery:
    case BKind::kInSubquery: {
      if (in.subqueries == nullptr || !in.subqueries->at(e.sub_id)) {
        return Status::Unsupported("subquery not run");
      }
      const std::vector<Row>& rows = *in.subqueries->at(e.sub_id);
      if (e.kind == BKind::kInSubquery) {
        out.in_set = std::make_shared<const InSet>(rows);
        break;  // the operand lowers below
      }
      auto v = sql::ScalarSubqueryValue(rows);
      if (!v.ok()) return v.status();
      out.kind = BKind::kLiteral;
      out.literal = std::move(v).value();
      return out;
    }
  }
  out.negated_in = e.negated_in;
  out.children.reserve(e.children.size());
  for (const auto& c : e.children) {
    auto lowered = LowerExprSlots(*c, slot_types, slot_base, in);
    if (!lowered.ok()) return lowered.status();
    out.children.push_back(std::move(lowered).value());
  }
  return out;
}

Sel LiveRows(const storage::ColumnChunkView& chunk) {
  Sel sel;
  sel.reserve(chunk.rows);
  for (size_t i = 0; i < chunk.rows; ++i) {
    if (chunk.live[i]) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

std::vector<storage::ZonePred> ExtractZonePreds(
    std::span<const VExpr> filters) {
  std::vector<storage::ZonePred> preds;
  for (const VExpr& f : filters) {
    int col = -1;
    BinaryOp op = BinaryOp::kEq;
    const Value* lit = nullptr;
    if (!MatchSlotLiteralCompare(f, &col, &op, &lit)) continue;
    if (lit->is_null()) continue;
    storage::ZonePred p;
    p.col = col;
    p.lit = *lit;
    switch (op) {
      case BinaryOp::kEq: p.op = storage::ZonePred::Op::kEq; break;
      case BinaryOp::kLt: p.op = storage::ZonePred::Op::kLt; break;
      case BinaryOp::kLe: p.op = storage::ZonePred::Op::kLe; break;
      case BinaryOp::kGt: p.op = storage::ZonePred::Op::kGt; break;
      case BinaryOp::kGe: p.op = storage::ZonePred::Op::kGe; break;
      default: continue;  // a min/max zone cannot refute kNe
    }
    preds.push_back(std::move(p));
  }
  return preds;
}

Status ApplyConjuncts(std::span<const VExpr> filters,
                      const storage::ColumnChunkView& chunk, Sel* sel) {
  for (const VExpr& f : filters) {
    if (sel->empty()) return Status::OK();
    if (TryFastFilter(f, chunk, sel)) continue;
    auto cond = EvalVec(f, chunk, *sel);
    if (!cond.ok()) return cond.status();
    ApplyFilter(*cond, sel);
  }
  return Status::OK();
}

StatusOr<Vec> EvalVec(const VExpr& e, const storage::ColumnChunkView& chunk,
                      const Sel& sel) {
  const size_t n = sel.size();
  switch (e.kind) {
    case BKind::kLiteral:
      return Vec::Const(e.literal, n);
    case BKind::kSlot:
      return Gather(e.col, e.col_type, chunk, sel);
    case BKind::kParam:
      return Status::Internal("parameter not folded at lowering");
    case BKind::kAggRef:
    case BKind::kScalarSubquery:
      return Status::Internal("unsupported node survived lowering");

    case BKind::kInSubquery: {
      // A NULL operand is never a member; NOT IN negates (the interpreter's
      // two-valued answer).
      auto v = EvalVec(e.children[0], chunk, sel);
      if (!v.ok()) return v;
      Vec out = Vec::Bools(n);
      for (size_t i = 0; i < n; ++i) {
        const bool found = !v->null_at(i) && e.in_set->Contains(*v, i);
        out.ints[i] = found != e.negated_in ? 1 : 0;
      }
      return out;
    }

    case BKind::kUnary: {
      auto c = EvalVec(e.children[0], chunk, sel);
      if (!c.ok()) return c;
      const Vec& v = *c;
      switch (e.uop) {
        case UnaryOp::kNeg: {
          OLXP_RETURN_NOT_OK(sql::CheckNegOperand(v.type));
          if (v.type == ValueType::kNull) return AllNull(n);
          Vec out;
          out.n = n;
          out.nulls = v.nulls;
          if (v.is_const && !v.nulls.empty()) out.nulls.assign(n, v.nulls[0]);
          if (v.type == ValueType::kDouble) {
            out.type = ValueType::kDouble;
            out.dbls.resize(n);
            for (size_t i = 0; i < n; ++i) out.dbls[i] = -v.dbl_at(i);
          } else {
            out.type = ValueType::kInt;  // interpreter yields INT
            out.ints.resize(n);
            for (size_t i = 0; i < n; ++i) {
              if (!out.nulls.empty() && out.nulls[i]) continue;
              if (auto r = sql::IntNeg(v.int_at(i))) {
                out.ints[i] = *r;
              } else {
                if (out.nulls.empty()) out.nulls.assign(n, 0);
                out.nulls[i] = 1;
              }
            }
          }
          return out;
        }
        case UnaryOp::kNot: {
          Vec out = Vec::Bools(n);
          for (size_t i = 0; i < n; ++i) out.ints[i] = v.truthy(i) ? 0 : 1;
          return out;
        }
        case UnaryOp::kIsNull: {
          Vec out = Vec::Bools(n);
          for (size_t i = 0; i < n; ++i) out.ints[i] = v.null_at(i) ? 1 : 0;
          return out;
        }
        case UnaryOp::kIsNotNull: {
          Vec out = Vec::Bools(n);
          for (size_t i = 0; i < n; ++i) out.ints[i] = v.null_at(i) ? 0 : 1;
          return out;
        }
      }
      return Status::Internal("bad unary op");
    }

    case BKind::kBinary: {
      auto l = EvalVec(e.children[0], chunk, sel);
      if (!l.ok()) return l;
      auto r = EvalVec(e.children[1], chunk, sel);
      if (!r.ok()) return r;
      switch (e.bop) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr: {
          // Both sides are evaluated for the whole selection (no per-row
          // short-circuit); NULL and strings are false (Vec::truthy).
          Vec out = Vec::Bools(n);
          if (e.bop == BinaryOp::kAnd) {
            for (size_t i = 0; i < n; ++i) {
              out.ints[i] = (l->truthy(i) && r->truthy(i)) ? 1 : 0;
            }
          } else {
            for (size_t i = 0; i < n; ++i) {
              out.ints[i] = (l->truthy(i) || r->truthy(i)) ? 1 : 0;
            }
          }
          return out;
        }
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return ArithKernel(e.bop, *l, *r);
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return CompareKernel(e.bop, *l, *r);
        case BinaryOp::kLike:
        case BinaryOp::kNotLike: {
          Vec out = Vec::Bools(n);
          if (l->type == ValueType::kNull || r->type == ValueType::kNull) {
            return out;  // NULL LIKE x -> false
          }
          if (l->type != ValueType::kString ||
              r->type != ValueType::kString) {
            return Status::InvalidArgument("LIKE requires strings");
          }
          const bool want = e.bop == BinaryOp::kLike;
          for (size_t i = 0; i < n; ++i) {
            if (l->null_at(i) || r->null_at(i)) continue;
            bool m = SqlLike(l->str_at(i), r->str_at(i));
            out.ints[i] = (m == want) ? 1 : 0;
          }
          return out;
        }
      }
      return Status::Internal("bad binary op");
    }

    case BKind::kBetween: {
      auto v = EvalVec(e.children[0], chunk, sel);
      if (!v.ok()) return v;
      auto lo = EvalVec(e.children[1], chunk, sel);
      if (!lo.ok()) return lo;
      auto hi = EvalVec(e.children[2], chunk, sel);
      if (!hi.ok()) return hi;
      Vec out = Vec::Bools(n);
      if (v->type == ValueType::kNull || lo->type == ValueType::kNull ||
          hi->type == ValueType::kNull) {
        return out;
      }
      for (size_t i = 0; i < n; ++i) {
        if (v->null_at(i) || lo->null_at(i) || hi->null_at(i)) continue;
        out.ints[i] =
            (CmpRow(*v, *lo, i) >= 0 && CmpRow(*v, *hi, i) <= 0) ? 1 : 0;
      }
      return out;
    }

    case BKind::kInList: {
      auto v = EvalVec(e.children[0], chunk, sel);
      if (!v.ok()) return v;
      std::vector<Vec> items;
      items.reserve(e.children.size() - 1);
      for (size_t k = 1; k < e.children.size(); ++k) {
        auto item = EvalVec(e.children[k], chunk, sel);
        if (!item.ok()) return item;
        items.push_back(std::move(item).value());
      }
      Vec out = Vec::Bools(n);
      const bool negated = e.negated_in;
      for (size_t i = 0; i < n; ++i) {
        bool found = false;
        if (!v->null_at(i)) {
          for (const Vec& item : items) {
            if (!item.null_at(i) && CmpRow(*v, item, i) == 0) {
              found = true;
              break;
            }
          }
        }
        out.ints[i] = (negated ? !found : found) ? 1 : 0;
      }
      return out;
    }

    case BKind::kCase: {
      const size_t nc = e.children.size();
      const bool has_else = nc % 2 == 1;
      const size_t pairs = nc / 2;
      std::vector<Vec> conds;
      std::vector<Vec> vals;
      conds.reserve(pairs);
      vals.reserve(pairs + 1);
      for (size_t p = 0; p < pairs; ++p) {
        auto cond = EvalVec(e.children[2 * p], chunk, sel);
        if (!cond.ok()) return cond;
        conds.push_back(std::move(cond).value());
        auto val = EvalVec(e.children[2 * p + 1], chunk, sel);
        if (!val.ok()) return val;
        vals.push_back(std::move(val).value());
      }
      if (has_else) {
        auto val = EvalVec(e.children[nc - 1], chunk, sel);
        if (!val.ok()) return val;
        vals.push_back(std::move(val).value());
      }
      // Result type: all branches must share one payload family. The
      // interpreter returns each row with its picked branch's own type, so
      // any mixed-family CASE (string/numeric, INT/DOUBLE, INT/TIMESTAMP)
      // falls back to it — a promoted vector would change result types.
      bool any_num = false, any_double = false, any_str = false;
      bool any_ts = false, any_int = false;
      for (const Vec& v : vals) {
        if (v.type == ValueType::kNull) continue;
        if (v.type == ValueType::kString) {
          any_str = true;
        } else {
          any_num = true;
          if (v.type == ValueType::kDouble) any_double = true;
          if (v.type == ValueType::kTimestamp) any_ts = true;
          if (v.type == ValueType::kInt) any_int = true;
        }
      }
      if (any_str && any_num) {
        return Status::Unsupported("CASE branches mix string and numeric");
      }
      if ((any_double && (any_int || any_ts)) || (any_int && any_ts)) {
        return Status::Unsupported("CASE branches mix numeric types");
      }
      Vec out;
      out.n = n;
      if (!any_str && !any_num) return AllNull(n);
      out.nulls.assign(n, 0);
      bool any_null_row = false;
      // Per-row branch pick (first truthy condition, else ELSE, else NULL).
      auto pick = [&](size_t i) -> const Vec* {
        for (size_t p = 0; p < pairs; ++p) {
          if (conds[p].truthy(i)) return &vals[p];
        }
        return has_else ? &vals.back() : nullptr;
      };
      if (any_str) {
        out.type = ValueType::kString;
        out.strs.assign(n, nullptr);
        // Strings the branch does not borrow from column storage (constants,
        // nested pools) are copied into this Vec's own pool so the pointers
        // outlive the branch vectors.
        std::vector<const std::string*> const_ptr(vals.size(), nullptr);
        for (size_t j = 0; j < vals.size(); ++j) {
          if (vals[j].type == ValueType::kString && vals[j].is_const) {
            out.owned_pool.push_back(vals[j].owned);
            const_ptr[j] = &out.owned_pool.back();
          }
        }
        for (size_t i = 0; i < n; ++i) {
          const Vec* v = pick(i);
          if (v == nullptr || v->null_at(i)) {
            out.nulls[i] = 1;
            any_null_row = true;
            continue;
          }
          const size_t j = static_cast<size_t>(v - vals.data());
          if (const_ptr[j] != nullptr) {
            out.strs[i] = const_ptr[j];
          } else if (!v->owned_pool.empty()) {
            out.owned_pool.push_back(*v->strs[i]);
            out.strs[i] = &out.owned_pool.back();
          } else {
            out.strs[i] = v->strs[i];
          }
        }
      } else if (any_double) {
        out.type = ValueType::kDouble;
        out.dbls.assign(n, 0.0);
        for (size_t i = 0; i < n; ++i) {
          const Vec* v = pick(i);
          if (v == nullptr || v->null_at(i)) {
            out.nulls[i] = 1;
            any_null_row = true;
            continue;
          }
          out.dbls[i] = v->dbl_at(i);
        }
      } else {
        out.type = any_ts ? ValueType::kTimestamp : ValueType::kInt;
        out.ints.assign(n, 0);
        for (size_t i = 0; i < n; ++i) {
          const Vec* v = pick(i);
          if (v == nullptr || v->null_at(i)) {
            out.nulls[i] = 1;
            any_null_row = true;
            continue;
          }
          out.ints[i] = v->int_at(i);
        }
      }
      if (!any_null_row) out.nulls.clear();
      return out;
    }
  }
  return Status::Internal("unhandled vectorized expression kind");
}

}  // namespace olxp::exec
