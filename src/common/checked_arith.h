#ifndef OLXP_COMMON_CHECKED_ARITH_H_
#define OLXP_COMMON_CHECKED_ARITH_H_

#include <cstdint>
#include <limits>
#include <optional>

namespace olxp {

/// Checked int64 arithmetic for the SQL expression engines. The dialect maps
/// every operation C++ leaves undefined — signed overflow in +/-/*, negating
/// INT64_MIN — to SQL NULL, the same answer x % 0 already gives; x % -1 is 0
/// for every x (the raw operator traps on INT64_MIN % -1). The row
/// interpreter and the vectorized kernels both call sql/scalar_ops.h, which
/// builds on these helpers; the aggregate accumulators (AggAccum) call them
/// directly.
inline std::optional<int64_t> CheckedAdd(int64_t x, int64_t y) {
  int64_t r;
  if (__builtin_add_overflow(x, y, &r)) return std::nullopt;
  return r;
}

inline std::optional<int64_t> CheckedSub(int64_t x, int64_t y) {
  int64_t r;
  if (__builtin_sub_overflow(x, y, &r)) return std::nullopt;
  return r;
}

inline std::optional<int64_t> CheckedMul(int64_t x, int64_t y) {
  int64_t r;
  if (__builtin_mul_overflow(x, y, &r)) return std::nullopt;
  return r;
}

inline std::optional<int64_t> CheckedMod(int64_t x, int64_t y) {
  if (y == 0) return std::nullopt;
  if (y == -1) return 0;  // INT64_MIN % -1 traps; the result is 0 for all x
  return x % y;
}

inline std::optional<int64_t> CheckedNeg(int64_t x) {
  if (x == std::numeric_limits<int64_t>::min()) return std::nullopt;
  return -x;
}

}  // namespace olxp

#endif  // OLXP_COMMON_CHECKED_ARITH_H_
