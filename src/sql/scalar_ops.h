#ifndef OLXP_SQL_SCALAR_OPS_H_
#define OLXP_SQL_SCALAR_OPS_H_

#include <cmath>
#include <cstdint>
#include <optional>

#include "common/checked_arith.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

/// The dialect's per-value rules, defined once: the row-store interpreter
/// (sql/executor.cc) applies them to boxed Values, the vectorized engine
/// (exec/vexpr.cc) to each element of a typed vector, so the two stores
/// cannot answer a statement differently. NULL operands are the callers'
/// to test first (arithmetic and negation of NULL are NULL, comparisons
/// with NULL are false). Truthiness is Value::AsBool's rule, which
/// exec::Vec::truthy applies to vector payloads: non-zero numerics are
/// true, NULL and strings are false.

namespace olxp::sql {

/// Whether a three-way comparison result `c` satisfies comparison `op`.
inline bool CmpMatches(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

inline bool NumericType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble ||
         t == ValueType::kTimestamp;
}

/// Binary arithmetic takes two numeric operands (INT, DOUBLE, TIMESTAMP).
inline Status CheckArithOperands(ValueType l, ValueType r) {
  if (NumericType(l) && NumericType(r)) return Status::OK();
  return Status::InvalidArgument("arithmetic on non-numeric value");
}

/// Unary minus takes a NULL or numeric operand.
inline Status CheckNegOperand(ValueType t) {
  if (t == ValueType::kNull || NumericType(t)) return Status::OK();
  return Status::InvalidArgument("negation of non-numeric value");
}

/// Arithmetic promotion: DOUBLE when either operand is DOUBLE or the op is
/// division, else INT (TIMESTAMP operands compute as INT).
inline bool ArithAsDouble(BinaryOp op, ValueType l, ValueType r) {
  return l == ValueType::kDouble || r == ValueType::kDouble ||
         op == BinaryOp::kDiv;
}

/// INT `x op y` for + - * %: NULL (nullopt) on overflow and on x % 0;
/// x % -1 is 0. Division never computes as INT (ArithAsDouble).
inline std::optional<int64_t> IntArith(BinaryOp op, int64_t x, int64_t y) {
  switch (op) {
    case BinaryOp::kAdd: return CheckedAdd(x, y);
    case BinaryOp::kSub: return CheckedSub(x, y);
    case BinaryOp::kMul: return CheckedMul(x, y);
    case BinaryOp::kMod: return CheckedMod(x, y);
    default: return std::nullopt;
  }
}

/// DOUBLE `x op y` for + - * / %: NULL (nullopt) on x / 0 and x % 0.
inline std::optional<double> DoubleArith(BinaryOp op, double x, double y) {
  switch (op) {
    case BinaryOp::kAdd: return x + y;
    case BinaryOp::kSub: return x - y;
    case BinaryOp::kMul: return x * y;
    case BinaryOp::kDiv:
      if (y == 0) return std::nullopt;
      return x / y;
    case BinaryOp::kMod:
      if (y == 0) return std::nullopt;
      return std::fmod(x, y);
    default: return std::nullopt;
  }
}

/// INT (and TIMESTAMP) `-x`, an INT: NULL (nullopt) for -INT64_MIN, which
/// is unrepresentable. DOUBLE negation is plain `-x`.
inline std::optional<int64_t> IntNeg(int64_t x) { return CheckedNeg(x); }

}  // namespace olxp::sql

#endif  // OLXP_SQL_SCALAR_OPS_H_
