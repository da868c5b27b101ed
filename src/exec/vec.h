#ifndef OLXP_EXEC_VEC_H_
#define OLXP_EXEC_VEC_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/value.h"

namespace olxp::exec {

/// Rows of one chunk currently surviving all applied predicates, as
/// chunk-relative row indices in ascending order.
using Sel = std::vector<uint32_t>;

/// A typed column vector: the intermediate currency of the vectorized
/// engine. One Vec holds the values of one expression for every selected
/// row of a chunk, stored in a flat typed payload instead of boxed Values:
///
///  - type kInt / kTimestamp  -> `ints`
///  - type kDouble            -> `dbls`
///  - type kString            -> `strs` (pointers borrowed from the column
///                               store; valid only inside the scan callback)
///  - type kNull              -> every row is NULL, no payload
///
/// `is_const` broadcasts a single physical element (literals and folded
/// parameters). `nulls`, when non-empty, flags NULL rows; the payload entry
/// of a NULL row is zero/unspecified. Boolean results are kInt 0/1 with no
/// nulls, matching the interpreter (predicates over NULL evaluate to false).
struct Vec {
  ValueType type = ValueType::kNull;
  bool is_const = false;
  size_t n = 0;  ///< logical row count (selection size)
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<const std::string*> strs;
  std::string owned;  ///< storage backing a constant string payload
  /// Owned storage some `strs` entries may point into (e.g. constant CASE
  /// branches). A deque so growth and moves never relocate elements already
  /// pointed to.
  std::deque<std::string> owned_pool;
  std::vector<uint8_t> nulls;  ///< empty = no NULL rows

  size_t phys(size_t i) const { return is_const ? 0 : i; }

  bool null_at(size_t i) const {
    return type == ValueType::kNull || (!nulls.empty() && nulls[phys(i)] != 0);
  }
  bool numeric() const {
    return type == ValueType::kInt || type == ValueType::kTimestamp ||
           type == ValueType::kDouble;
  }
  int64_t int_at(size_t i) const { return ints[phys(i)]; }
  double dbl_at(size_t i) const {
    return type == ValueType::kDouble ? dbls[phys(i)]
                                      : static_cast<double>(ints[phys(i)]);
  }
  const std::string& str_at(size_t i) const {
    return is_const ? owned : *strs[i];
  }

  /// Value::AsBool over the payload: NULL and strings are false.
  bool truthy(size_t i) const {
    if (null_at(i) || type == ValueType::kString) return false;
    return type == ValueType::kDouble ? dbls[phys(i)] != 0.0
                                      : ints[phys(i)] != 0;
  }

  /// Materializes row `i` as a boxed Value (result emission only).
  Value value_at(size_t i) const {
    if (null_at(i)) return Value::Null();
    switch (type) {
      case ValueType::kInt:
        return Value::Int(ints[phys(i)]);
      case ValueType::kTimestamp:
        return Value::Timestamp(ints[phys(i)]);
      case ValueType::kDouble:
        return Value::Double(dbls[phys(i)]);
      case ValueType::kString:
        return Value::String(str_at(i));
      case ValueType::kNull:
        break;
    }
    return Value::Null();
  }

  /// Broadcast constant over `rows` logical rows.
  static Vec Const(const Value& v, size_t rows) {
    Vec out;
    out.is_const = true;
    out.n = rows;
    out.type = v.type();
    switch (v.type()) {
      case ValueType::kInt:
      case ValueType::kTimestamp:
        out.ints.push_back(v.AsInt());
        break;
      case ValueType::kDouble:
        out.dbls.push_back(v.AsDouble());
        break;
      case ValueType::kString:
        // Kept in `owned`, resolved by str_at/value_at: a self-pointer in
        // `strs` would dangle when the Vec is moved.
        out.owned = v.AsString();
        break;
      case ValueType::kNull:
        break;
    }
    return out;
  }

  /// Fresh boolean (kInt 0/1) result vector of `rows` rows.
  static Vec Bools(size_t rows) {
    Vec out;
    out.type = ValueType::kInt;
    out.n = rows;
    out.ints.assign(rows, 0);
    return out;
  }
};

/// Compacts `sel`, keeping only rows where `cond` is truthy. `cond` must
/// have one logical row per current selection entry.
inline void ApplyFilter(const Vec& cond, Sel* sel) {
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    if (cond.truthy(i)) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
}

}  // namespace olxp::exec

#endif  // OLXP_EXEC_VEC_H_
