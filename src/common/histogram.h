#ifndef OLXP_COMMON_HISTOGRAM_H_
#define OLXP_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace olxp {

/// Latency histogram with log-spaced buckets (HdrHistogram-style), plus
/// exact running moments. Records microsecond samples; reports the paper's
/// statistics: min, max, mean, median, p90, p95, p99.9, p99.99, stddev.
/// Not thread-safe; each agent thread owns one and they are Merge()d.
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one latency sample (microseconds; negative clamps to 0).
  void Record(int64_t micros);

  /// Adds all samples of `other` into this histogram.
  void Merge(const LatencyHistogram& other);

  /// Clears all samples.
  void Reset();

  int64_t count() const { return count_; }
  int64_t min() const { return count_ ? min_ : 0; }
  int64_t max() const { return max_; }
  double Mean() const;
  double StdDev() const;

  /// Latency (microseconds) at quantile q; interpolated within the
  /// containing bucket and clamped to the observed [min, max]. Total for
  /// every input: an empty histogram reports 0 at any q, q outside [0,1]
  /// clamps (q = 0 -> min, q = 1 -> max), NaN reports max (the
  /// conservative SLO answer), and a degenerate observed range (single
  /// sample, or all samples equal) returns that exact value.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.50); }
  double P90() const { return Percentile(0.90); }
  double P95() const { return Percentile(0.95); }
  double P999() const { return Percentile(0.999); }
  double P9999() const { return Percentile(0.9999); }

 private:
  static constexpr int kBucketCount = 512;
  /// Bucket index for a sample value (log-spaced, ~1.6% relative error).
  static int BucketFor(int64_t micros);
  /// Lower/upper bound of bucket i in microseconds.
  static double BucketLower(int i);
  static double BucketUpper(int i);

  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
};

}  // namespace olxp

#endif  // OLXP_COMMON_HISTOGRAM_H_
