#ifndef OLXP_COMMON_VALUE_H_
#define OLXP_COMMON_VALUE_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace olxp {

/// SQL column types supported by the engine. DECIMAL columns are stored as
/// binary doubles (sufficient for benchmark workloads; documented in
/// DESIGN.md), TIMESTAMP as microseconds since epoch in an int64.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt,       ///< 64-bit signed integer (covers INT, BIGINT, SMALLINT).
  kDouble,    ///< binary double (covers DOUBLE, DECIMAL, FLOAT).
  kString,    ///< variable-length string (covers VARCHAR, CHAR, TEXT).
  kTimestamp, ///< microseconds since Unix epoch.
};

/// A dynamically typed SQL value. Small, copyable, totally ordered within
/// the same type class (numeric types compare cross-type).
class Value {
 public:
  /// NULL value.
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(ValueType::kInt, v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }
  static Value Timestamp(int64_t micros) {
    return Value(ValueType::kTimestamp, micros);
  }
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_numeric() const {
    return type_ == ValueType::kInt || type_ == ValueType::kDouble ||
           type_ == ValueType::kTimestamp;
  }

  /// Accessors assert the stored type (int accessor also accepts timestamp).
  /// Inline: these sit in the vectorized engine's gather loops.
  int64_t AsInt() const {
    if (type_ == ValueType::kInt || type_ == ValueType::kTimestamp) {
      return std::get<int64_t>(scalar_);
    }
    if (type_ == ValueType::kDouble) {
      return static_cast<int64_t>(std::llround(std::get<double>(scalar_)));
    }
    assert(false && "AsInt on non-numeric value");
    return 0;
  }
  double AsDouble() const {  ///< Numeric widening: int/timestamp -> double.
    if (type_ == ValueType::kDouble) return std::get<double>(scalar_);
    if (type_ == ValueType::kInt || type_ == ValueType::kTimestamp) {
      return static_cast<double>(std::get<int64_t>(scalar_));
    }
    assert(false && "AsDouble on non-numeric value");
    return 0.0;
  }
  const std::string& AsString() const {
    assert(type_ == ValueType::kString);
    return str_;
  }
  /// SQL truthiness: non-zero numerics are true; NULL and strings are
  /// false (the binder rejects string predicates where it can; the
  /// degenerate cases that slip through must not trip AsDouble's
  /// numeric-only assert in debug builds).
  bool AsBool() const { return is_numeric() && AsDouble() != 0.0; }

  /// Three-way comparison. NULL sorts before everything; numeric types
  /// compare by value across int/double/timestamp; strings lexicographic.
  /// Comparing a string with a number is an ordering by type tag (stable,
  /// never an error) — the SQL binder rejects such predicates earlier.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  /// Renders the value for reports and tests (NULL -> "NULL", strings
  /// unquoted, doubles with up to 6 significant decimals trimmed).
  std::string ToString() const;

  /// Coerces this value to `target`. Int<->double<->timestamp widen/narrow;
  /// string conversions only when the text parses. NULL converts to NULL.
  StatusOr<Value> CastTo(ValueType target) const;

  /// Stable 64-bit hash (used by hash joins / group by).
  size_t Hash() const;

 private:
  Value(ValueType t, int64_t v) : type_(t), scalar_(v) {}
  explicit Value(double v) : type_(ValueType::kDouble), scalar_(v) {}
  explicit Value(std::string v)
      : type_(ValueType::kString), str_(std::move(v)) {}

  ValueType type_;
  std::variant<int64_t, double> scalar_ = int64_t{0};
  std::string str_;
};

/// A row of values (one tuple). Index positions follow the table schema or
/// the projection list of the producing operator.
using Row = std::vector<Value>;

/// Hash of a full row, combining per-value hashes.
size_t HashRow(const Row& row);

}  // namespace olxp

#endif  // OLXP_COMMON_VALUE_H_
