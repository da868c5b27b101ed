#ifndef OLXP_OBS_METRICS_H_
#define OLXP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/sync.h"

namespace olxp::obs {

/// Monotone counter sharded across cache lines: hot paths (lock grants,
/// morsel claims, WAL appends) bump a per-thread shard with a relaxed add,
/// so concurrent writers never bounce one cache line. Value() sums the
/// shards — a racy-but-monotone read, which is all a snapshot needs.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };

  /// Stable per-thread shard pick (threads hash onto shards once).
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_{};
};

/// Last-writer-wins instantaneous value (queue depth, watermark age, lag).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Mutex-wrapped LatencyHistogram (the common/ histogram is single-owner by
/// design). Registry histograms record at coarse granularity only —
/// statements, fsyncs, vacuum passes — so one uncontended lock per sample
/// is cheaper than striping and keeps percentiles exact.
class Histogram {
 public:
  void Record(int64_t micros) {
    sync::MutexLock lk(mu_);
    hist_.Record(micros);
  }

  LatencyHistogram Snapshot() const {
    sync::MutexLock lk(mu_);
    return hist_;
  }

 private:
  mutable sync::Mutex mu_{sync::LockRank::kObs, "obs.histogram"};
  LatencyHistogram hist_ GUARDED_BY(mu_);
};

/// Point-in-time summary of one histogram (microseconds).
struct HistogramSummary {
  int64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// A consistent-enough point-in-time view of every registered metric.
/// Counters may be mid-increment while snapshotted; each value is
/// individually coherent, which is the contract dashboards need.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
  std::string ToJson() const;

  /// Prometheus text exposition ('.' in names becomes '_'; histograms
  /// export _count/_min/_max/_mean and quantile gauges).
  std::string ToPrometheusText() const;
};

/// Named metric registry: the one ledger of engine events. Each Database
/// owns one, so concurrent instances never mix, and builds every subsystem
/// (lock manager, WAL, vacuum, replicator, worker pool) with it. A
/// subsystem looks its handles up once, in its constructor (returned
/// pointers are stable for the registry's lifetime); hot paths hold the
/// pointer and never touch the name map again. Bench drivers read the same
/// counters, so telemetry and measurement are one system.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable sync::Mutex mu_{sync::LockRank::kObs, "obs.registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

/// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(std::string_view s);

}  // namespace olxp::obs

#endif  // OLXP_OBS_METRICS_H_
