#include "benchfw/driver.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/clock.h"
#include "common/strings.h"
#include "common/sync.h"

namespace olxp::benchfw {

namespace {

/// Worker-local accumulation merged into the shared result at teardown.
struct LocalStats {
  KindStats stats;
};

/// The lock.* counters Fig. 4 reads, at one instant.
struct LockSample {
  int64_t wait_ns = 0;
  int64_t acquires = 0;
  int64_t timeouts = 0;
};

/// State shared by all threads of one agent group.
struct GroupState {
  const AgentConfig* cfg = nullptr;
  const std::vector<TxnProfile>* profiles = nullptr;
  std::vector<double> weights;         // effective weights
  std::atomic<int64_t> arrival_seq{0}; // open-loop arrival counter
};

void WorkerLoop(engine::Database* db, GroupState* group, const RunConfig& cfg,
                int64_t start_us, int64_t measure_start_us, int64_t end_us,
                uint64_t seed, KindStats* out, sync::Mutex* out_mu) {
  auto session = db->CreateSession();
  Rng rng(seed);
  LocalStats local;
  const auto& profiles = *group->profiles;
  const bool open_loop = group->cfg->request_rate > 0;
  const double rate = group->cfg->request_rate;

  // Weighted pick honoring overrides.
  double total_weight = 0;
  for (double w : group->weights) total_weight += w;
  auto pick = [&]() -> int {
    double x = rng.NextDouble() * total_weight;
    for (size_t i = 0; i < group->weights.size(); ++i) {
      x -= group->weights[i];
      if (x <= 0) return static_cast<int>(i);
    }
    return static_cast<int>(group->weights.size()) - 1;
  };

  while (true) {
    int64_t arrival_us;
    if (open_loop) {
      int64_t n = group->arrival_seq.fetch_add(1, std::memory_order_relaxed);
      arrival_us = start_us +
                   static_cast<int64_t>(static_cast<double>(n) * 1e6 / rate);
      if (arrival_us >= end_us) break;
      int64_t now = NowMicros();
      if (arrival_us > now) SleepMicros(arrival_us - now);
    } else {
      arrival_us = NowMicros();
      if (arrival_us >= end_us) break;
    }

    int idx = pick();
    const TxnProfile& profile = profiles[idx];

    // All per-kind counters are bounded to the measure window
    // [measure_start_us, end_us): retries used to count with no upper
    // bound and busy time could include retry work past end_us, inflating
    // the Fig. 4 lock-overhead denominator.
    const bool in_window =
        arrival_us >= measure_start_us && arrival_us < end_us;

    int64_t exec_start = NowMicros();
    Status st = profile.body(*session, rng);
    int attempts = 1;
    while (!st.ok() && st.IsRetryable() && attempts <= cfg.max_retries &&
           NowMicros() < end_us + 200000) {
      if (in_window && NowMicros() < end_us) local.stats.retries++;
      ++attempts;
      st = profile.body(*session, rng);
    }
    int64_t done = NowMicros();

    if (in_window) {
      local.stats.issued++;
      int64_t busy_end = std::min(done, end_us);
      if (busy_end > exec_start) {
        local.stats.busy_nanos += (busy_end - exec_start) * 1000;
      }
      if (st.ok()) {
        local.stats.committed++;
        local.stats.latency.Record(done - arrival_us);
      } else {
        local.stats.errors++;
      }
    }
  }

  sync::MutexLock lk(*out_mu);
  out->latency.Merge(local.stats.latency);
  out->issued += local.stats.issued;
  out->committed += local.stats.committed;
  out->retries += local.stats.retries;
  out->errors += local.stats.errors;
  out->busy_nanos += local.stats.busy_nanos;
}

}  // namespace

StatusOr<RunResult> RunCell(engine::Database& db, const BenchmarkSuite& suite,
                            const std::vector<AgentConfig>& agents,
                            const RunConfig& cfg) {
  RunResult result;
  result.measure_seconds = cfg.measure_seconds;

  std::vector<GroupState> groups(agents.size());
  for (size_t g = 0; g < agents.size(); ++g) {
    groups[g].cfg = &agents[g];
    groups[g].profiles = &suite.ProfilesFor(agents[g].kind);
    const size_t n_profiles = groups[g].profiles->size();
    if (!agents[g].weight_override.empty()) {
      if (agents[g].weight_override.size() != n_profiles) {
        return Status::InvalidArgument(StrFormat(
            "agent %zu (%s): weight_override has %zu entries but the suite "
            "has %zu %s profiles",
            g, AgentKindName(agents[g].kind), agents[g].weight_override.size(),
            n_profiles, AgentKindName(agents[g].kind)));
      }
      groups[g].weights = agents[g].weight_override;
    } else {
      for (const TxnProfile& p : *groups[g].profiles) {
        groups[g].weights.push_back(p.weight);
      }
    }
    double total = 0;
    for (double w : groups[g].weights) {
      if (w < 0) {
        return Status::InvalidArgument(
            StrFormat("agent %zu (%s): negative profile weight %g", g,
                      AgentKindName(agents[g].kind), w));
      }
      total += w;
    }
    if (total <= 0) {
      return Status::InvalidArgument(
          StrFormat("agent %zu (%s): profile weights sum to %g (nothing to "
                    "pick)",
                    g, AgentKindName(agents[g].kind), total));
    }
    result.kinds[agents[g].kind];  // ensure entry exists
  }

  const int64_t start_us = NowMicros() + 2000;  // small lead for thread spawn
  const int64_t measure_start_us =
      start_us + static_cast<int64_t>(cfg.warmup_seconds * 1e6);
  const int64_t end_us =
      measure_start_us + static_cast<int64_t>(cfg.measure_seconds * 1e6);

  // The Fig. 4 lock counters are sampled by a coordinator thread at both
  // edges of the measure window, the same window busy_nanos is clipped to:
  // a wait that ends after end_us (a post-window retry, a body still
  // running) must not land in the lock-overhead numerator.
  obs::MetricsRegistry& metrics = db.metrics();
  const obs::Counter* wait_ns = metrics.GetCounter("lock.wait_ns");
  const obs::Counter* acquires = metrics.GetCounter("lock.acquires");
  const obs::Counter* timeouts = metrics.GetCounter("lock.timeouts");
  LockSample at_start, at_end;
  std::thread coordinator([&] {
    auto sample_at = [&](int64_t when_us, LockSample* out) {
      const int64_t now = NowMicros();
      if (when_us > now) SleepMicros(when_us - now);
      *out = {wait_ns->Value(), acquires->Value(), timeouts->Value()};
    };
    sample_at(measure_start_us, &at_start);
    sample_at(end_us, &at_end);
  });

  sync::Mutex out_mu{sync::LockRank::kClient, "benchfw.stats"};
  std::vector<std::thread> threads;
  uint64_t seed = cfg.seed;
  for (size_t g = 0; g < agents.size(); ++g) {
    for (int t = 0; t < agents[g].threads; ++t) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      threads.emplace_back(WorkerLoop, &db, &groups[g], cfg, start_us,
                           measure_start_us, end_us, seed,
                           &result.kinds[agents[g].kind], &out_mu);
    }
  }
  for (auto& t : threads) t.join();
  coordinator.join();

  result.lock_wait_nanos =
      static_cast<uint64_t>(at_end.wait_ns - at_start.wait_ns);
  result.lock_acquisitions =
      static_cast<uint64_t>(at_end.acquires - at_start.acquires);
  result.lock_timeouts =
      static_cast<uint64_t>(at_end.timeouts - at_start.timeouts);
  for (const auto& [kind, ks] : result.kinds) {
    result.total_busy_nanos += ks.busy_nanos;
  }
  return result;
}

Status SetUp(engine::Database& db, const BenchmarkSuite& suite) {
  auto session = db.CreateSession();
  session->set_charging_enabled(false);
  OLXP_RETURN_NOT_OK(suite.create_schema(*session));
  OLXP_RETURN_NOT_OK(suite.load(db, suite.load_params));
  db.WaitReplicaCaughtUp();
  return Status::OK();
}

}  // namespace olxp::benchfw
