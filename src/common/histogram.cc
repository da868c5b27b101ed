#include "common/histogram.h"

#include <algorithm>
#include <cmath>

namespace olxp {

namespace {
// Log-spaced buckets: value v maps to floor(log(v+1) / log(base)) with a
// base chosen so kBucketCount buckets cover [0, ~9e9us] (~2.5 hours).
constexpr double kBase = 1.045;
const double kLogBase = std::log(kBase);
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBucketCount, 0) {}

int LatencyHistogram::BucketFor(int64_t micros) {
  if (micros <= 0) return 0;
  int idx = static_cast<int>(std::log(static_cast<double>(micros) + 1.0) /
                             kLogBase);
  return std::min(idx, kBucketCount - 1);
}

double LatencyHistogram::BucketLower(int i) {
  if (i == 0) return 0.0;
  return std::pow(kBase, i) - 1.0;
}

double LatencyHistogram::BucketUpper(int i) {
  return std::pow(kBase, i + 1) - 1.0;
}

void LatencyHistogram::Record(int64_t micros) {
  if (micros < 0) micros = 0;
  buckets_[BucketFor(micros)]++;
  if (count_ == 0 || micros < min_) min_ = micros;
  if (micros > max_) max_ = micros;
  count_++;
  sum_ += static_cast<double>(micros);
  sum_sq_ += static_cast<double>(micros) * static_cast<double>(micros);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = max_ = 0;
  sum_ = sum_sq_ = 0;
}

double LatencyHistogram::Mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::StdDev() const {
  if (count_ < 2) return 0.0;
  double mean = Mean();
  double var = sum_sq_ / static_cast<double>(count_) - mean * mean;
  return var > 0 ? std::sqrt(var) : 0.0;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  // Defined answers for every q, including the ones callers get wrong:
  // NaN reports the upper bound (the conservative answer for a latency
  // SLO), out-of-range q clamps, and a degenerate observed range (single
  // sample, or every sample equal) returns that exact value instead of
  // interpolating across a log bucket that is wider than the data.
  if (std::isnan(q)) return static_cast<double>(max_);
  if (min_ == max_) return static_cast<double>(min_);
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return static_cast<double>(min_);
  if (q >= 1.0) return static_cast<double>(max_);
  double target = q * static_cast<double>(count_);
  int64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(seen + buckets_[i]) >= target) {
      // Linear interpolation within the bucket, clamped to observed range.
      double frac = (target - static_cast<double>(seen)) /
                    static_cast<double>(buckets_[i]);
      double lo = std::max(BucketLower(i), static_cast<double>(min_));
      double hi = std::min(BucketUpper(i), static_cast<double>(max_));
      if (hi < lo) hi = lo;
      return lo + frac * (hi - lo);
    }
    seen += buckets_[i];
  }
  return static_cast<double>(max_);
}

}  // namespace olxp
