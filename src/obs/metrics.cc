#include "obs/metrics.h"

#include <thread>

#include "common/strings.h"

namespace olxp::obs {

size_t Counter::ShardIndex() {
  // One hash per thread lifetime; the static local is TSan-clean and the
  // modulo keeps distinct threads spread across the 16 shards.
  static thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shard;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  sync::MutexLock lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  sync::MutexLock lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  sync::MutexLock lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  sync::MutexLock lk(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    LatencyHistogram hist = h->Snapshot();
    HistogramSummary s;
    s.count = hist.count();
    s.min = hist.min();
    s.max = hist.max();
    s.mean = hist.Mean();
    s.p50 = hist.Percentile(0.50);
    s.p95 = hist.Percentile(0.95);
    s.p99 = hist.Percentile(0.99);
    snap.histograms[name] = s;
  }
  return snap;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += StrFormat("%s\n    \"%s\": %lld", first ? "" : ",",
                     JsonEscape(name).c_str(), static_cast<long long>(v));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += StrFormat("%s\n    \"%s\": %lld", first ? "" : ",",
                     JsonEscape(name).c_str(), static_cast<long long>(v));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += StrFormat(
        "%s\n    \"%s\": {\"count\": %lld, \"min_us\": %lld, "
        "\"max_us\": %lld, \"mean_us\": %.2f, \"p50_us\": %.2f, "
        "\"p95_us\": %.2f, \"p99_us\": %.2f}",
        first ? "" : ",", JsonEscape(name).c_str(),
        static_cast<long long>(h.count), static_cast<long long>(h.min),
        static_cast<long long>(h.max), h.mean, h.p50, h.p95, h.p99);
    first = false;
  }
  out += first ? "}\n}" : "\n  }\n}";
  return out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
/// names map '.' (and anything else) to '_'.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    const std::string n = PromName(name);
    out += StrFormat("# TYPE %s counter\n%s %lld\n", n.c_str(), n.c_str(),
                     static_cast<long long>(v));
  }
  for (const auto& [name, v] : gauges) {
    const std::string n = PromName(name);
    out += StrFormat("# TYPE %s gauge\n%s %lld\n", n.c_str(), n.c_str(),
                     static_cast<long long>(v));
  }
  for (const auto& [name, h] : histograms) {
    const std::string n = PromName(name);
    out += StrFormat("# TYPE %s summary\n", n.c_str());
    out += StrFormat("%s_count %lld\n", n.c_str(),
                     static_cast<long long>(h.count));
    out += StrFormat("%s_min %lld\n", n.c_str(), static_cast<long long>(h.min));
    out += StrFormat("%s_max %lld\n", n.c_str(), static_cast<long long>(h.max));
    out += StrFormat("%s_mean %.2f\n", n.c_str(), h.mean);
    out += StrFormat("%s{quantile=\"0.5\"} %.2f\n", n.c_str(), h.p50);
    out += StrFormat("%s{quantile=\"0.95\"} %.2f\n", n.c_str(), h.p95);
    out += StrFormat("%s{quantile=\"0.99\"} %.2f\n", n.c_str(), h.p99);
  }
  return out;
}

}  // namespace olxp::obs
