#include "common/value.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace olxp {

// AsInt/AsDouble/AsString are inline in value.h (vectorized-scan hot path).

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (is_numeric() && other.is_numeric()) {
    // Compare exactly when both sides are integral to avoid double rounding.
    const bool both_int = type_ != ValueType::kDouble &&
                          other.type_ != ValueType::kDouble;
    if (both_int) {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type_ == ValueType::kString && other.type_ == ValueType::kString) {
    int c = str_.compare(other.str_);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Heterogeneous string/number: stable order by type tag.
  return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
    case ValueType::kTimestamp:
      return std::to_string(std::get<int64_t>(scalar_));
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6f", std::get<double>(scalar_));
      std::string s(buf);
      // Trim trailing zeros but keep one decimal digit.
      while (s.size() > 1 && s.back() == '0' && s[s.size() - 2] != '.') {
        s.pop_back();
      }
      return s;
    }
    case ValueType::kString:
      return str_;
  }
  return "?";
}

StatusOr<Value> Value::CastTo(ValueType target) const {
  if (is_null() || type_ == target) return *this;
  switch (target) {
    case ValueType::kInt:
      if (is_numeric()) return Value::Int(AsInt());
      {
        char* end = nullptr;
        long long v = std::strtoll(str_.c_str(), &end, 10);
        if (end == str_.c_str() || *end != '\0') {
          return Status::InvalidArgument("cannot cast '" + str_ + "' to INT");
        }
        return Value::Int(v);
      }
    case ValueType::kDouble:
      if (is_numeric()) return Value::Double(AsDouble());
      {
        char* end = nullptr;
        double v = std::strtod(str_.c_str(), &end);
        if (end == str_.c_str() || *end != '\0') {
          return Status::InvalidArgument("cannot cast '" + str_ +
                                         "' to DOUBLE");
        }
        return Value::Double(v);
      }
    case ValueType::kTimestamp:
      if (is_numeric()) return Value::Timestamp(AsInt());
      return Status::InvalidArgument("cannot cast string to TIMESTAMP");
    case ValueType::kString:
      return Value::String(ToString());
    case ValueType::kNull:
      return Value::Null();
  }
  return Status::Internal("bad cast target");
}

namespace {

/// splitmix64 finalizer: std::hash<int64_t> is the identity on common
/// standard libraries, which makes composite-key hashes collide on the
/// structured integer grids benchmarks generate (and once collided, two
/// unrelated rows share a lock-table entry). This mixer destroys that
/// linear structure.
inline size_t MixInt(int64_t v) {
  uint64_t x = static_cast<uint64_t>(v);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

size_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt:
    case ValueType::kTimestamp:
      return MixInt(std::get<int64_t>(scalar_));
    case ValueType::kDouble: {
      double d = std::get<double>(scalar_);
      // Hash integral doubles identically to ints so mixed-type group keys
      // (e.g. SUM over ints) collide as expected.
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return MixInt(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case ValueType::kString:
      return std::hash<std::string>()(str_);
  }
  return 0;
}

size_t HashRow(const Row& row) {
  size_t h = 0x2545f4914f6cdd1dULL;
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace olxp
