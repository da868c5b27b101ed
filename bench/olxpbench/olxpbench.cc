// olxpbench: four HTAP workloads over the subench and fibench suites,
// measured end to end and per layer (see README.md in this directory).
//
// The binary has its own load loop instead of benchfw::RunCell: every
// session runs with simulated latency charging off (RunCell cannot turn it
// off, so LatencyModel sleeps would dominate every number), intended
// business rollbacks are counted apart from failures, and latency is kept
// per TxnProfile rather than merged per agent class.
//
//   olxpbench --workload=NAME [--seed=N] [--measure=SEC] [--wal-dir=DIR]
//             [--trace=FILE] [--calibrate]
//
// Human-readable metric lines go to stdout; the last stdout line is one JSON
// object with provenance, check results and every metric. Exit codes: 0 =
// all checks passed, 1 = a check failed (result still printed), 2 = usage
// or set-up error (no result).

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/olxpbench/checks.h"
#include "bench/olxpbench/spans.h"
#include "benchfw/workload.h"
#include "benchmarks/fibench/fibench.h"
#include "benchmarks/subench/subench.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "engine/database.h"
#include "engine/session.h"
#include "obs/metrics.h"

namespace olxp::olxpbench {
namespace {

namespace fs = std::filesystem;
using benchfw::BenchmarkSuite;
using benchfw::TxnProfile;

constexpr int kSetupReps = 3;
constexpr double kWarmupSeconds = 2;
/// The measure window is cut into this many equal slices; each end-to-end
/// metric is the median of its per-slice values, so a burst of host noise
/// that hits one slice does not move it.
constexpr int kSlices = 5;
constexpr double kProbeHz = 50;
constexpr int kMaxRetries = 32;
constexpr int kLoadThreads = 4;
constexpr int64_t kProbeTimeoutNs = 5'000'000'000;
constexpr int64_t kProbePollUs = 20;
/// An open-loop generator further behind schedule than this at the end of
/// the window is overloaded: its backlog grows instead of draining.
constexpr double kOverloadBacklogSeconds = 0.25;
/// Span-id owners: 0 = set-up and post-window spans, 1..n = load threads.
constexpr uint64_t kProbeSpanOwner = 1000;

enum class Cls { kOltp, kHybrid, kOlap };

const char* ClsName(Cls c) {
  switch (c) {
    case Cls::kOltp:
      return "oltp";
    case Cls::kHybrid:
      return "hybrid";
    case Cls::kOlap:
      return "olap";
  }
  return "?";
}

/// Load of one agent class. `rate` > 0: one open-loop generator issuing
/// `rate` requests per second, latency timed from each request's due time.
/// Otherwise `clients` closed-loop clients.
struct ClassLoad {
  int clients = 0;
  double rate = 0;
};

struct WorkloadSpec {
  const char* name;
  const char* suite;  ///< "subench" or "fibench"
  int scale;          ///< warehouses (subench) / thousands of customers
  int items;          ///< subench ITEM cardinality
  int exec_threads;
  bool wal;  ///< group-commit WAL (100 us window) in the --wal-dir
  ClassLoad oltp;
  ClassLoad hybrid;
  ClassLoad olap;  ///< the suite's queries, round-robin
};

// Names are fixed: other tools and documents refer to them. Every workload
// also runs one freshness probe at kProbeHz, so no workload has more than
// four load threads (the reference host has four cores).
//
// subench_htap rates are frozen so later changes are compared at the same
// offered load. `--calibrate` measured each class's single-client
// closed-loop capacity once, on a 4-core host: OLTP ~1250/s, hybrid
// ~210/s, OLAP ~300/s. Running together they slow each other: at half
// those rates the generators ran 80 ms late at p99, and at a third the OLAP
// generator was still ~70% busy, so queueing amplified every host hiccup.
// The rates below keep each generator under ~40% busy in the mix.
const WorkloadSpec kWorkloads[] = {
    // Write-heavy row-store path: interpreter, txn, lock manager, WAL and
    // replica apply. No analytical reads, so exec changes should not move it.
    {"subench_oltp", "subench", 4, 10000, 1, true, {3, 0}, {}, {}},
    // Only exec and the column store work, over a replica 4x the OLTP data;
    // the one workload where intra-query lanes can use idle cores.
    {"subench_olap", "subench", 16, 10000, 4, false, {}, {}, {1, 0}},
    // Banking hybrid transactions: full-table real-time aggregates inside
    // read-write SI txns over version chains the OLTP stream keeps growing.
    // Writes without a WAL; its setup_s exposes the loader.
    {"fibench_hybrid", "fibench", 10, 0, 1, false, {1, 0}, {2, 0}, {}},
    // Writes beside reads on the same tables at fixed rates: replica apply
    // churns the blocks the OLAP queries scan.
    {"subench_htap", "subench", 4, 10000, 1, true, {0, 300}, {0, 50},
     {0, 50}},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double measure = 10;
  std::string wal_dir = ".bench_build/wal";
  std::string trace_path;  ///< empty = untraced run
  bool calibrate = false;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o->workload = v;
    } else if (const char* v = value("--seed=")) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--measure=")) {
      o->measure = std::atof(v);
    } else if (const char* v = value("--wal-dir=")) {
      o->wal_dir = v;
    } else if (const char* v = value("--trace=")) {
      o->trace_path = v;
    } else if (a == "--calibrate") {
      o->calibrate = true;
    } else {
      std::fprintf(stderr, "olxpbench: unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return o->measure > 0;
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void SleepUntil(int64_t t_ns) {
  // A real sleep, never SleepMicros: its spin tail would burn the cores the
  // engine is being measured on.
  const int64_t now = NowNanos();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

BenchmarkSuite MakeSuite(const WorkloadSpec& w, uint64_t seed) {
  benchfw::LoadParams p;
  p.scale = w.scale;
  p.items = w.items;
  p.seed = seed;
  p.load_threads = kLoadThreads;
  return std::string(w.suite) == "subench" ? benchmarks::MakeSubenchmark(p)
                                           : benchmarks::MakeFibenchmark(p);
}

engine::EngineProfile MakeProfile(const WorkloadSpec& w,
                                  const std::string& wal_dir) {
  // Separated stores, SI, FKs enforced. The LatencyModel is kept: the
  // router's cost comparison reads it even with charging off.
  engine::EngineProfile p = engine::EngineProfile::TiDbLike();
  // The stochastic row-store override is seeded from a session pointer and
  // cannot repeat from run to run.
  p.olap_row_fraction = 0;
  // Freshness then measures the apply pipeline, not a fixed lag constant.
  p.replication_lag_micros = 0;
  p.exec_threads = w.exec_threads;
  if (w.wal) {
    p.durability = storage::DurabilityMode::kGroup;
    p.group_commit_window_us = 100;
    p.wal_dir = wal_dir;
  }
  return p;
}

std::string FsType(const std::string& path) {
  struct statfs sf {};
  if (statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(sf.f_type));
  return buf;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Bytes the process has allocated and not freed (all malloc arenas plus
/// mmapped chunks): the live data, independent of how the allocator keeps
/// freed pages resident.
double HeapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// CPU time the host has stolen from this VM so far and the total, in
/// jiffies from /proc/stat (zeros where unavailable).
std::pair<double, double> HostStealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PercentileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
}

// ------------------------------- set-up ----------------------------------

struct SetupTimes {
  double schema_ms = 0;
  double load_ms = 0;
  double catchup_ms = 0;
  double heap_mb = 0;  ///< live heap with the data loaded
  double total_s() const { return (schema_ms + load_ms + catchup_ms) / 1e3; }
};

/// Schema + load + replica catch-up on a fresh database, plus the 1-row
/// bench_probe table the freshness probe updates.
Status SetUp(engine::Database& db, const BenchmarkSuite& suite,
             SetupTimes* t, SpanBuffer* spans) {
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  auto span = [&](const char* name, int64_t a, int64_t b) {
    if (spans != nullptr) spans->Add(MakeSpan(name, "setup", a, b));
  };
  const int64_t t0 = NowMicros();
  OLXP_RETURN_NOT_OK(suite.create_schema(*s));
  OLXP_RETURN_NOT_OK(benchmarks::Exec(
      *s, "CREATE TABLE bench_probe (id INT PRIMARY KEY, seq INT)"));
  OLXP_RETURN_NOT_OK(benchmarks::Exec(
      *s, "INSERT INTO bench_probe VALUES (1, 0)"));
  const int64_t t1 = NowMicros();
  OLXP_RETURN_NOT_OK(suite.load(db, suite.load_params));
  const int64_t t2 = NowMicros();
  db.WaitReplicaCaughtUp();
  const int64_t t3 = NowMicros();
  span("setup.schema", t0, t1);
  span("setup.load", t1, t2);
  span("setup.catchup", t2, t3);
  t->schema_ms = static_cast<double>(t1 - t0) / 1e3;
  t->load_ms = static_cast<double>(t2 - t1) / 1e3;
  t->catchup_ms = static_cast<double>(t3 - t2) / 1e3;
  t->heap_mb = HeapMb();
  return Status::OK();
}

// ---------------------------- load generation ----------------------------

struct OpRef {
  Cls cls;
  const TxnProfile* profile;
};

/// Per-profile outcome of the measure window. Times are in nanoseconds.
struct ProfileStats {
  LatencyHistogram lat;         ///< untraced ops: due/arrival -> done
  LatencyHistogram lat_traced;  ///< traced ops (trace mode only)
  int64_t attempted = 0;
  int64_t completed = 0;  ///< committed + business rollbacks
  int64_t rollbacks = 0;  ///< the body's own kAborted outcome
  int64_t retries = 0;
  int64_t failed = 0;   ///< non-retryable errors + exhausted retries
  int64_t commits = 0;  ///< committed read-write ops
  // Service time (start -> done) sums, split for the tracing overhead.
  int64_t traced_ns = 0;
  int64_t traced_n = 0;
  int64_t untraced_ns = 0;
  int64_t untraced_n = 0;

  void Merge(const ProfileStats& o) {
    lat.Merge(o.lat);
    lat_traced.Merge(o.lat_traced);
    attempted += o.attempted;
    completed += o.completed;
    rollbacks += o.rollbacks;
    retries += o.retries;
    failed += o.failed;
    commits += o.commits;
    traced_ns += o.traced_ns;
    traced_n += o.traced_n;
    untraced_ns += o.untraced_ns;
    untraced_n += o.untraced_n;
  }
};

struct Window {
  int64_t start_ns = 0;
  int64_t measure_start_ns = 0;
  int64_t end_ns = 0;

  int64_t slice_start(int k) const {
    return measure_start_ns + (end_ns - measure_start_ns) * k / kSlices;
  }
  /// Slice of a request due at `due_ns` (inside the measure window).
  int SliceOf(int64_t due_ns) const {
    return static_cast<int>(std::min<int64_t>(
        kSlices - 1,
        (due_ns - measure_start_ns) * kSlices / (end_ns - measure_start_ns)));
  }
};

/// What one load thread drives: a slice [first, first+count) of the op
/// list, picked by weight or round-robin, closed or open loop.
struct ClientPlan {
  size_t first = 0;
  size_t count = 0;
  bool round_robin = false;
  double rate = 0;  ///< > 0 = open loop
  uint64_t seed = 0;
};

struct ThreadResult {
  explicit ThreadResult(uint64_t owner) : spans(owner) {}
  /// [slice][op]: ops indexed like the op list, by the slice they were due
  std::vector<std::vector<ProfileStats>> stats;
  int64_t charged_us = 0;  ///< simulated charge, in-window ops
  /// Time spent executing the ops due in each slice (start -> done).
  std::vector<int64_t> busy_ns = std::vector<int64_t>(kSlices, 0);
  LatencyHistogram late;            ///< open loop: start - due (ns)
  int64_t backlog_end = 0;
  bool overloaded = false;
  std::string first_error;
  SpanBuffer spans;
  // Freshness probe only (nanoseconds).
  std::vector<double> ack_to_visible;    ///< commit ack -> visible on replica
  std::vector<double> write_to_visible;  ///< update issued -> visible
  std::vector<double> apply_lag_us;
  int64_t probe_attempted = 0;
  int64_t probe_failed = 0;
  int64_t probe_commits = 0;
};

void ClientLoop(engine::Database* db, const std::vector<OpRef>* ops,
                ClientPlan plan, Window win, bool trace, ThreadResult* out) {
  auto session = db->CreateSession();
  session->set_charging_enabled(false);
  Rng rng(plan.seed);
  std::vector<TxnProfile> weights;  // PickWeighted reads only the weights
  for (size_t i = 0; i < plan.count; ++i) {
    weights.push_back(
        {"", (*ops)[plan.first + i].profile->weight, false, nullptr});
  }
  out->stats.assign(kSlices, std::vector<ProfileStats>(ops->size()));
  int64_t issued_before_end = 0;
  for (int64_t n = 0;; ++n) {
    int64_t due;
    if (plan.rate > 0) {
      due = win.start_ns +
            static_cast<int64_t>(static_cast<double>(n) * 1e9 / plan.rate);
      if (due >= win.end_ns) break;
      SleepUntil(due);
    } else {
      due = NowNanos();
    }
    const int64_t t0 = NowNanos();
    if (t0 >= win.end_ns) break;
    ++issued_before_end;
    const size_t idx =
        plan.first +
        (plan.round_robin
             ? static_cast<size_t>(n) % plan.count
             : static_cast<size_t>(benchfw::PickWeighted(weights, rng)));
    const OpRef& op = (*ops)[idx];
    // Trace mode traces every other op so the untraced half measures the
    // tracing overhead in the same run.
    const bool traced = trace && n % 2 == 0;
    session->set_trace_level(traced ? 1 : 0);
    const int64_t charged0 = session->charged_micros();
    Status st = op.profile->body(*session, rng);
    int retries = 0;
    while (!st.ok() && st.IsRetryable() && retries < kMaxRetries) {
      ++retries;
      st = op.profile->body(*session, rng);
    }
    const int64_t t1 = NowNanos();
    if (due < win.measure_start_ns) continue;  // warmup

    const int slice = win.SliceOf(due);
    ProfileStats& ps = out->stats[slice][idx];
    out->busy_ns[slice] += t1 - t0;
    ps.attempted++;
    ps.retries += retries;
    out->charged_us += session->charged_micros() - charged0;
    if (plan.rate > 0) out->late.Record(t0 - due);
    // kAborted is the body's own business rollback (NewOrder's invalid
    // item, fibench's insufficient funds): a completed request.
    const bool rollback = st.code() == StatusCode::kAborted;
    if (st.ok() || rollback) {
      ps.completed++;
      if (rollback) ps.rollbacks++;
      if (st.ok() && !op.profile->read_only) ps.commits++;
      (traced ? ps.lat_traced : ps.lat).Record(t1 - due);
      (traced ? ps.traced_ns : ps.untraced_ns) += t1 - t0;
      (traced ? ps.traced_n : ps.untraced_n)++;
    } else {
      ps.failed++;
      if (out->first_error.empty()) {
        out->first_error = op.profile->name + ": " + st.ToString();
      }
    }
    if (traced) {
      Span root = MakeSpan("op", "body", t0 / 1000, t1 / 1000);
      root.cls = ClsName(op.cls);
      root.profile = op.profile->name;
      const uint64_t id = out->spans.Add(root);
      if (op.cls == Cls::kOlap) {
        out->spans.AddStatement(id, t0 / 1000, t1 / 1000,
                                session->last_trace());
      }
    }
  }
  if (plan.rate > 0) {
    const auto due_before_end = static_cast<int64_t>(std::ceil(
        static_cast<double>(win.end_ns - win.start_ns) * plan.rate / 1e9));
    out->backlog_end = std::max<int64_t>(0, due_before_end - issued_before_end);
    out->overloaded = static_cast<double>(out->backlog_end) >
                      kOverloadBacklogSeconds * plan.rate;
  }
}

/// Freshness probe: updates the 1-row bench_probe table and commits, then
/// polls the replica until the new value is visible. Freshness is timed
/// from the commit ack. With group commit the replicator usually applies a
/// commit while its committer still waits for the fsync, so the value is
/// often visible at the first poll; update issued -> visible is kept too.
void ProbeLoop(engine::Database* db, Window win, ThreadResult* out) {
  auto s = db->CreateSession();
  s->set_charging_enabled(false);
  obs::Gauge* lag = db->metrics().GetGauge("repl.apply_lag_us");
  for (int64_t n = 0;; ++n) {
    const int64_t due =
        win.start_ns + static_cast<int64_t>(static_cast<double>(n) * 1e9 /
                                            kProbeHz);
    if (due >= win.end_ns) break;
    SleepUntil(due);
    if (NowNanos() >= win.end_ns) break;
    const int64_t seq = n + 1;
    const int64_t t0 = NowNanos();
    auto up = s->Execute("UPDATE bench_probe SET seq = ? WHERE id = 1",
                         {Value::Int(seq)});
    const int64_t t_ack = NowNanos();
    std::string err = up.ok() ? "" : up.status().ToString();
    int64_t t_vis = t_ack;
    while (err.empty()) {
      auto rs = s->Execute("SELECT MAX(seq) FROM bench_probe");
      if (!rs.ok()) {
        err = rs.status().ToString();
      } else if (s->last_route() != engine::RoutedStore::kColumnStore) {
        err = "probe poll did not route to the replica";
      } else if (!rs->rows[0][0].is_null() && rs->rows[0][0].AsInt() >= seq) {
        t_vis = NowNanos();
        break;
      } else if (NowNanos() - t_ack > kProbeTimeoutNs) {
        err = "probe update not visible on the replica after 5 s";
      } else {
        // Back off between polls: a busy poll would take a core from the
        // workload being measured.
        std::this_thread::sleep_for(std::chrono::microseconds(kProbePollUs));
      }
    }
    if (!err.empty() && out->first_error.empty()) {
      out->first_error = "probe: " + err;
    }
    if (due < win.measure_start_ns) continue;
    out->probe_attempted++;
    if (!err.empty()) {
      out->probe_failed++;
      continue;
    }
    out->probe_commits++;
    out->ack_to_visible.push_back(static_cast<double>(t_vis - t_ack));
    out->write_to_visible.push_back(static_cast<double>(t_vis - t0));
    out->apply_lag_us.push_back(static_cast<double>(lag->Value()));
    out->spans.Add(
        MakeSpan("probe.commit", "probe_commit", t0 / 1000, t_ack / 1000));
    out->spans.Add(
        MakeSpan("probe.poll", "probe_poll", t_ack / 1000, t_vis / 1000));
  }
}

struct Snap {
  obs::MetricsSnapshot m;
  double cpu_s = 0;
  std::pair<double, double> steal;  ///< host (steal, total) jiffies
};

Snap TakeSnap(engine::Database& db) {
  Snap s;
  // StatsJson refreshes the pull-published column.* gauges first.
  (void)db.StatsJson();
  s.m = db.metrics().Snapshot();
  s.cpu_s = CpuSeconds();
  s.steal = HostStealJiffies();
  return s;
}

int64_t CounterDelta(const Snap& a, const Snap& b, const std::string& name) {
  auto value = [&](const obs::MetricsSnapshot& m) {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? int64_t{0} : it->second;
  };
  return value(b.m) - value(a.m);
}

/// Sum of the gauges named column.<table><suffix>.
int64_t ColumnGaugeSum(const obs::MetricsSnapshot& m,
                       const std::string& suffix) {
  int64_t sum = 0;
  for (const auto& [name, v] : m.gauges) {
    if (name.rfind("column.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += v;
    }
  }
  return sum;
}

/// Total recorded into histogram `name` between the snapshots.
double HistogramSumDelta(const Snap& a, const Snap& b,
                         const std::string& name) {
  auto sum = [&](const obs::MetricsSnapshot& m) {
    auto it = m.histograms.find(name);
    return it == m.histograms.end()
               ? 0.0
               : static_cast<double>(it->second.count) * it->second.mean;
  };
  return sum(b.m) - sum(a.m);
}

struct WindowResult {
  Window win;
  /// [slice][op], merged over threads; `stats` merges the slices too.
  std::vector<std::vector<ProfileStats>> slices;
  std::vector<ProfileStats> stats;
  std::vector<int64_t> busy_ns = std::vector<int64_t>(kSlices, 0);
  int load_threads = 0;
  /// Process CPU seconds at the start of each slice and at the window end.
  std::vector<double> cpu_s;
  ThreadResult probe{kProbeSpanOwner};
  int64_t charged_us = 0;
  LatencyHistogram late;
  int64_t backlog_end = 0;
  bool overloaded = false;
  std::string first_error;
  Snap before;
  Snap after;
  std::vector<std::unique_ptr<ThreadResult>> threads;
};

std::vector<OpRef> OpList(const BenchmarkSuite& suite) {
  std::vector<OpRef> ops;
  for (const TxnProfile& p : suite.transactions) ops.push_back({Cls::kOltp, &p});
  for (const TxnProfile& p : suite.hybrids) ops.push_back({Cls::kHybrid, &p});
  for (const TxnProfile& p : suite.queries) ops.push_back({Cls::kOlap, &p});
  return ops;
}

/// Spawns every load thread plus the probe, snapshots the registry and CPU
/// time at the window's edges, and merges the per-thread results.
WindowResult RunWindow(engine::Database& db, const std::vector<OpRef>& ops,
                       const WorkloadSpec& w, const Options& opt,
                       bool trace) {
  WindowResult r;
  r.win.start_ns = NowNanos() + 5'000'000;  // lead for thread spawn
  r.win.measure_start_ns =
      r.win.start_ns + static_cast<int64_t>(kWarmupSeconds * 1e9);
  r.win.end_ns =
      r.win.measure_start_ns + static_cast<int64_t>(opt.measure * 1e9);

  std::vector<ClientPlan> plans;
  uint64_t seed_state = opt.seed;
  for (Cls cls : {Cls::kOltp, Cls::kHybrid, Cls::kOlap}) {
    const ClassLoad& load =
        cls == Cls::kOltp ? w.oltp : cls == Cls::kHybrid ? w.hybrid : w.olap;
    ClientPlan plan;
    plan.round_robin = cls == Cls::kOlap;
    plan.rate = load.rate;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].cls != cls) continue;
      if (plan.count == 0) plan.first = i;
      plan.count++;
    }
    const int threads = load.rate > 0 ? 1 : load.clients;
    for (int t = 0; t < threads && plan.count > 0; ++t) {
      plan.seed = SplitMix(&seed_state);
      plans.push_back(plan);
    }
  }

  std::vector<std::thread> threads;
  for (size_t t = 0; t < plans.size(); ++t) {
    r.threads.push_back(std::make_unique<ThreadResult>(t + 1));
    threads.emplace_back(ClientLoop, &db, &ops, plans[t], r.win, trace,
                         r.threads.back().get());
  }
  threads.emplace_back(ProbeLoop, &db, r.win, &r.probe);
  SleepUntil(r.win.measure_start_ns);
  r.before = TakeSnap(db);
  r.cpu_s.push_back(r.before.cpu_s);
  for (int k = 1; k < kSlices; ++k) {
    SleepUntil(r.win.slice_start(k));
    r.cpu_s.push_back(CpuSeconds());
  }
  SleepUntil(r.win.end_ns);
  r.after = TakeSnap(db);
  r.cpu_s.push_back(r.after.cpu_s);
  for (std::thread& t : threads) t.join();

  r.load_threads = static_cast<int>(plans.size());
  r.slices.assign(kSlices, std::vector<ProfileStats>(ops.size()));
  r.stats.resize(ops.size());
  for (const auto& tr : r.threads) {
    for (int k = 0; k < kSlices; ++k) {
      for (size_t i = 0; i < ops.size(); ++i) {
        r.slices[k][i].Merge(tr->stats[k][i]);
        r.stats[i].Merge(tr->stats[k][i]);
      }
      r.busy_ns[k] += tr->busy_ns[k];
    }
    r.charged_us += tr->charged_us;
    r.late.Merge(tr->late);
    r.backlog_end += tr->backlog_end;
    r.overloaded = r.overloaded || tr->overloaded;
    if (r.first_error.empty()) r.first_error = tr->first_error;
  }
  if (r.first_error.empty()) r.first_error = r.probe.first_error;
  return r;
}

// ------------------------------- reporting --------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  ///< the counts a ratio was computed from
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

/// Measurements taken after the window, on the quiesced database.
struct AfterWindow {
  double drain_ms = 0;
  double vacuum_ms = 0;
  double versions_per_row = 0;
};

/// Every metric of one run: end-to-end, per class and per layer.
std::vector<Metric> ComputeMetrics(const std::vector<OpRef>& ops,
                                   const WorkloadSpec& w,
                                   const std::vector<SetupTimes>& setups,
                                   const WindowResult& r,
                                   const AfterWindow& after) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 const std::string& base = "") {
    out.push_back({name, v, unit, base});
  };
  const double secs =
      static_cast<double>(r.win.end_ns - r.win.measure_start_ns) / 1e9;
  const std::string probes =
      std::to_string(r.probe.ack_to_visible.size()) + " probes";

  // Totals over the workload's own ops (the probe is reported apart).
  ProfileStats all;
  std::map<Cls, ProfileStats> per_cls;
  for (size_t i = 0; i < ops.size(); ++i) {
    all.Merge(r.stats[i]);
    per_cls[ops[i].cls].Merge(r.stats[i]);
  }
  const double completed = static_cast<double>(all.completed);
  LatencyHistogram merged;
  for (const ProfileStats& s : r.stats) merged.Merge(s.lat);
  const std::string samples = std::to_string(merged.count()) + " samples";

  // ---- end to end: medians over the window's slices ----
  std::vector<double> setup_s, schema_ms, load_ms, catchup_ms, heap_mb;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total_s());
    schema_ms.push_back(t.schema_ms);
    load_ms.push_back(t.load_ms);
    catchup_ms.push_back(t.catchup_ms);
    heap_mb.push_back(t.heap_mb);
  }
  std::vector<double> rate, geomean, p95, cpu;
  for (int k = 0; k < kSlices; ++k) {
    int64_t done = 0;
    LatencyHistogram h;
    double log_sum = 0;
    int n_profiles = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      const ProfileStats& s = r.slices[k][i];
      done += s.completed;
      h.Merge(s.lat);
      // A profile too rare to have a median in this slice contributes its
      // whole-window median, so every slice averages the same profiles.
      const LatencyHistogram& lat = s.lat.count() >= 3 ? s.lat : r.stats[i].lat;
      if (lat.count() == 0) continue;
      log_sum += std::log(std::max(lat.Median() / 1e6, 1e-6));
      n_profiles++;
    }
    // Ops per second of load-thread busy time, times the load threads: a
    // closed loop's threads are always busy, so this is its throughput; an
    // open-loop generator idles between requests, so this is the rate it
    // could sustain at the service times it observed (its offered rate
    // alone would say nothing about the engine).
    rate.push_back(Ratio(static_cast<double>(done) * r.load_threads * 1e9,
                         static_cast<double>(r.busy_ns[k])));
    geomean.push_back(n_profiles > 0 ? std::exp(log_sum / n_profiles) : 0);
    p95.push_back(h.P95() / 1e6);
    cpu.push_back(Ratio((r.cpu_s[k + 1] - r.cpu_s[k]) * 1e3,
                        static_cast<double>(done)));
  }
  const std::string slices =
      "median of " + std::to_string(kSlices) + " slices";
  add("setup_s", MedianOf(setup_s), "s",
      "median of " + std::to_string(setups.size()) + " set-ups");
  add("ops_per_s", MedianOf(rate), "1/s",
      slices + "; " + std::to_string(all.completed) + " ops");
  add("p50_geomean_ms", MedianOf(geomean), "ms",
      slices + "; geomean of per-profile medians");
  add("p95_ms", MedianOf(p95), "ms", slices + "; " + samples);
  add("cpu_ms_per_op", MedianOf(cpu), "ms", slices);
  add("heap_mb", MedianOf(heap_mb), "MB", "live heap after set-up, median");

  // ---- per class (printed beside the gated metrics) ----
  for (const auto& [cls, s] : per_cls) {
    if (s.attempted == 0) continue;
    const std::string c = ClsName(cls);
    const std::string n = std::to_string(s.lat.count()) + " samples";
    add("class." + c + ".per_s", static_cast<double>(s.completed) / secs,
        "1/s", std::to_string(s.completed) + " ops");
    add("class." + c + ".p50_ms", s.lat.Median() / 1e6, "ms", n);
    add("class." + c + ".p99_ms", s.lat.Percentile(0.99) / 1e6, "ms", n);
  }

  // ---- per layer ----
  add("setup.schema_ms", MedianOf(schema_ms), "ms");
  add("setup.load_ms", MedianOf(load_ms), "ms");
  add("setup.catchup_ms", MedianOf(catchup_ms), "ms");
  add("mem.peak_rss_mb", PeakRssMb(), "MB", "whole process, set-ups included");
  add("lat.p99_ms", merged.Percentile(0.99) / 1e6, "ms", samples);

  const Snap& a = r.before;
  const Snap& b = r.after;
  const int64_t stmts = CounterDelta(a, b, "session.statements");
  const int64_t col_routes =
      CounterDelta(a, b, "router.route.column_vectorized") +
      CounterDelta(a, b, "router.route.column_interpreter");
  add("engine.replica_share", Ratio(col_routes, stmts), "ratio",
      std::to_string(col_routes) + " / " + std::to_string(stmts) +
          " statements (probe included)");
  add("engine.cost_overrides_to_row",
      CounterDelta(a, b, "router.cost_overrides_to_row"), "count");
  add("engine.stmts_per_op", Ratio(stmts, completed), "count",
      std::to_string(stmts) + " statements (probe included) / " +
          std::to_string(all.completed) + " ops");
  add("engine.sim_charged_us_per_op", Ratio(r.charged_us, completed), "us");

  for (size_t i = 0; i < ops.size(); ++i) {
    add("op." + ops[i].profile->name + ".p50_us",
        r.stats[i].lat.Median() / 1e3, "us",
        std::to_string(r.stats[i].lat.count()) + " samples");
  }

  const double olap_ops = static_cast<double>(per_cls[Cls::kOlap].completed);
  add("exec.morsels_per_query",
      Ratio(CounterDelta(a, b, "exec.morsels_dispatched"), olap_ops), "count");
  double busy_ns = 0;
  for (int lane = 0; lane < w.exec_threads && w.exec_threads > 1; ++lane) {
    busy_ns += static_cast<double>(CounterDelta(
        a, b, "exec.pool.lane" + std::to_string(lane) + ".busy_ns"));
  }
  add("exec.lane_busy_share",
      w.exec_threads > 1
          ? Ratio(busy_ns, w.exec_threads * static_cast<double>(
                                                 r.win.end_ns -
                                                 r.win.measure_start_ns))
          : 0,
      "ratio");

  const std::string per_attempt =
      " / " + std::to_string(all.attempted) + " attempted ops";
  add("txn.retry_ratio", Ratio(all.retries, all.attempted), "ratio",
      std::to_string(all.retries) + " retries" + per_attempt);
  add("txn.business_rollback_ratio", Ratio(all.rollbacks, all.attempted),
      "ratio", std::to_string(all.rollbacks) + " rollbacks" + per_attempt);
  const int64_t waits = CounterDelta(a, b, "lock.waits");
  add("lock.waits_per_op", Ratio(waits, completed), "count",
      std::to_string(waits) + " waits");
  add("lock.wait_us_per_op",
      Ratio(CounterDelta(a, b, "lock.wait_ns") / 1e3, completed), "us");
  add("lock.timeouts", CounterDelta(a, b, "lock.timeouts"), "count");

  const int64_t appends = CounterDelta(a, b, "wal.appends");
  const int64_t fsyncs = CounterDelta(a, b, "wal.fsyncs");
  add("wal.bytes_per_commit",
      Ratio(CounterDelta(a, b, "wal.bytes_written"), appends), "B",
      std::to_string(appends) + " appends");
  add("wal.commits_per_fsync", Ratio(appends, fsyncs), "count",
      std::to_string(appends) + " appends / " + std::to_string(fsyncs) +
          " fsyncs");

  const int64_t applied = CounterDelta(a, b, "repl.records_applied");
  const int64_t batches = CounterDelta(a, b, "repl.apply_batches");
  add("repl.records_per_batch", Ratio(applied, batches), "count",
      std::to_string(applied) + " records / " + std::to_string(batches) +
          " batches");
  add("repl.apply_lag_us", MedianOf(r.probe.apply_lag_us), "us",
      std::to_string(r.probe.apply_lag_us.size()) + " probe samples");
  add("repl.drain_ms", after.drain_ms, "ms");

  const int64_t enc = ColumnGaugeSum(b.m, ".bytes_encoded");
  const int64_t raw = ColumnGaugeSum(b.m, ".bytes_raw");
  add("column.encoded_ratio", Ratio(enc, raw), "ratio",
      std::to_string(enc) + " / " + std::to_string(raw) + " bytes");
  const int64_t skipped = ColumnGaugeSum(b.m, ".blocks_skipped") -
                          ColumnGaugeSum(a.m, ".blocks_skipped");
  const int64_t scanned = ColumnGaugeSum(b.m, ".blocks_scanned") -
                          ColumnGaugeSum(a.m, ".blocks_scanned");
  add("column.block_skip_ratio", Ratio(skipped, skipped + scanned), "ratio",
      std::to_string(skipped) + " skipped / " +
          std::to_string(skipped + scanned) + " blocks");

  add("row.versions_per_row", after.versions_per_row, "count");
  const int64_t commits = all.commits + r.probe.probe_commits;
  add("vacuum.versions_reclaimed_per_commit",
      Ratio(CounterDelta(a, b, "vacuum.versions_reclaimed"), commits),
      "count", std::to_string(commits) + " commits (probe included)");
  add("vacuum.sync_pass_ms", after.vacuum_ms, "ms");

  add("gen.late_p99_ms", r.late.Percentile(0.99) / 1e6, "ms",
      std::to_string(r.late.count()) + " requests");
  add("gen.backlog_end", static_cast<double>(r.backlog_end), "count");
  add("gen.overloaded", r.overloaded ? 1 : 0, "flag");

  add("fresh.p50_ms", MedianOf(r.probe.ack_to_visible) / 1e6, "ms", probes);
  add("fresh.p95_ms", PercentileOf(r.probe.ack_to_visible, 0.95) / 1e6, "ms",
      probes);
  add("fresh.write_to_visible_p50_ms",
      MedianOf(r.probe.write_to_visible) / 1e6, "ms", probes);

  // Tracing overhead: traced vs untraced service time of the same profiles
  // in the same run (0 in untraced runs).
  double extra = 0, base = 0;
  for (const ProfileStats& s : r.stats) {
    if (s.traced_n == 0 || s.untraced_n == 0) continue;
    const double tm = static_cast<double>(s.traced_ns) / s.traced_n;
    const double um = static_cast<double>(s.untraced_ns) / s.untraced_n;
    extra += static_cast<double>(s.traced_n) * (tm - um);
    base += static_cast<double>(s.traced_n) * um;
  }
  add("trace.overhead_pct", Ratio(extra * 100, base), "%");
  // Not the engine's: CPU time the host took from this VM during the
  // window, to tell a slow engine from a busy host.
  add("host.steal_pct",
      Ratio(100 * (b.steal.first - a.steal.first),
            b.steal.second - a.steal.second),
      "%");
  return out;
}

std::string Provenance(const WorkloadSpec& w, const Options& opt) {
  auto load = [](const ClassLoad& l) {
    return l.rate > 0 ? "{\"open_loop_per_s\":" + Num(l.rate) + "}"
                      : "{\"closed_loop_clients\":" +
                            std::to_string(l.clients) + "}";
  };
  std::string p = "{";
  p += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  p += ",\"compiler\":" + JsonStr(OLXPBENCH_COMPILER);
  p += ",\"build_type\":" + JsonStr(OLXPBENCH_BUILD_TYPE);
  p += ",\"seed\":" + std::to_string(opt.seed);
  p += ",\"wal_fs\":" + JsonStr(w.wal ? FsType(opt.wal_dir) : "none");
  p += ",\"config\":{\"workload\":" + JsonStr(w.name);
  p += ",\"suite\":" + JsonStr(w.suite);
  p += ",\"scale\":" + std::to_string(w.scale);
  p += ",\"items\":" + std::to_string(w.items);
  p += ",\"exec_threads\":" + std::to_string(w.exec_threads);
  p += ",\"durability\":" + JsonStr(w.wal ? "group/100us" : "off");
  p += ",\"oltp\":" + load(w.oltp);
  p += ",\"hybrid\":" + load(w.hybrid);
  p += ",\"olap\":" + load(w.olap);
  p += ",\"probe_hz\":" + Num(kProbeHz);
  p += ",\"warmup_s\":" + Num(kWarmupSeconds);
  p += ",\"measure_s\":" + Num(opt.measure);
  p += ",\"setup_reps\":" + std::to_string(kSetupReps);
  p += ",\"max_retries\":" + std::to_string(kMaxRetries);
  p += ",\"load_threads\":" + std::to_string(kLoadThreads);
  p += ",\"profile\":\"tidb-like olap_row_fraction=0 "
       "replication_lag_us=0 charging=off\"";
  p += ",\"traced\":" + std::string(opt.trace_path.empty() ? "false" : "true");
  p += "}}";
  return p;
}

// --------------------------------- main -----------------------------------

/// Prints each class's single-client closed-loop capacity on this host for
/// the workload's generator classes (the basis of subench_htap's rates).
void Calibrate(engine::Database& db, const std::vector<OpRef>& ops,
               const WorkloadSpec& w, const Options& opt) {
  for (Cls cls : {Cls::kOltp, Cls::kHybrid, Cls::kOlap}) {
    WorkloadSpec alone = w;
    alone.oltp = cls == Cls::kOltp ? ClassLoad{1, 0} : ClassLoad{};
    alone.hybrid = cls == Cls::kHybrid ? ClassLoad{1, 0} : ClassLoad{};
    alone.olap = cls == Cls::kOlap ? ClassLoad{1, 0} : ClassLoad{};
    WindowResult r = RunWindow(db, ops, alone, opt, false);
    int64_t done = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].cls == cls) done += r.stats[i].completed;
    }
    const double cap =
        static_cast<double>(done) * 1e9 /
        static_cast<double>(r.win.end_ns - r.win.measure_start_ns);
    std::printf("calibrate %s %s: single-client capacity %.1f/s\n", w.name,
                ClsName(cls), cap);
  }
}

std::vector<CheckResult> RunChecks(engine::Database& db,
                                   const BenchmarkSuite& suite,
                                   const WorkloadSpec& w,
                                   const WindowResult& r) {
  std::vector<CheckResult> checks;
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  checks.push_back(CheckReplicaRowCounts(db, *s));
  checks.push_back(CheckQueryParity(db, suite));
  if (std::string(w.suite) == "subench") {
    checks.push_back(CheckSubenchConsistency(*s));
  } else {
    checks.push_back(
        CheckFibenchConsistency(*s, static_cast<int64_t>(w.scale) * 1000));
  }
  const int64_t interp =
      CounterDelta(r.before, r.after, "router.route.column_interpreter");
  checks.push_back({"no_replica_interpreter", interp == 0,
                    std::to_string(interp) +
                        " replica statements ran on the interpreter"});
  checks.push_back({"probe", r.probe.first_error.empty(),
                    r.probe.first_error.empty()
                        ? std::to_string(r.probe.probe_commits) +
                              " probes visible on the replica"
                        : r.probe.first_error});
  return checks;
}

void PrintReport(const WorkloadSpec& w, const Options& opt,
                 const std::vector<Metric>& metrics,
                 const std::vector<CheckResult>& checks,
                 const WindowResult& r, bool correct, int64_t attempted,
                 int64_t failed) {
  const std::string tag = std::string("olxpbench[") + w.name +
                          " seed=" + std::to_string(opt.seed) + "]";
  for (const Metric& m : metrics) {
    const std::string base = m.base.empty() ? "" : "(" + m.base + ")";
    std::printf("%s %-36s %16.6f %-6s %s\n", tag.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), base.c_str());
  }
  std::printf("%s attempted %lld, failed %lld%s%s\n", tag.c_str(),
              static_cast<long long>(attempted),
              static_cast<long long>(failed),
              r.first_error.empty() ? "" : "; first error: ",
              r.first_error.c_str());
  if (r.overloaded) {
    std::printf("%s OVERLOADED: open-loop backlog of %lld requests at window "
                "end; latencies are invalid\n",
                tag.c_str(), static_cast<long long>(r.backlog_end));
  }
  for (const CheckResult& c : checks) {
    std::printf("%s check %-24s %s  %s\n", tag.c_str(), c.name.c_str(),
                c.ok ? "ok  " : "FAIL", c.detail.c_str());
  }

  std::string j = "{\"workload\":" + JsonStr(w.name);
  j += ",\"provenance\":" + Provenance(w, opt);
  j += ",\"correct\":" + std::string(correct ? "true" : "false");
  j += ",\"attempted\":" + std::to_string(attempted);
  j += ",\"failed\":" + std::to_string(failed);
  j += ",\"overloaded\":" + std::string(r.overloaded ? "true" : "false");
  j += ",\"first_error\":" + JsonStr(r.first_error);
  j += ",\"checks\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    j += std::string(i ? "," : "") + "{\"name\":" + JsonStr(checks[i].name) +
         ",\"ok\":" + (checks[i].ok ? "true" : "false") +
         ",\"detail\":" + JsonStr(checks[i].detail) + "}";
  }
  j += "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    j += std::string(i ? "," : "") + JsonStr(metrics[i].name) +
         ":{\"value\":" + Num(metrics[i].value) +
         ",\"unit\":" + JsonStr(metrics[i].unit) +
         ",\"base\":" + JsonStr(metrics[i].base) + "}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) return 2;
  const WorkloadSpec* w = FindWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "olxpbench: unknown --workload=%s; one of:",
                 opt.workload.c_str());
    for (const WorkloadSpec& k : kWorkloads) std::fprintf(stderr, " %s", k.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Numbers from another configuration would not compare.
  if (std::getenv("OLXP_EXEC_THREADS") != nullptr) {
    std::fprintf(stderr,
                 "olxpbench: OLXP_EXEC_THREADS is set; it would override "
                 "each workload's exec_threads\n");
    return 2;
  }
  if (std::string(OLXPBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "olxpbench: build type is %s, not Release\n",
                 OLXPBENCH_BUILD_TYPE);
    return 2;
  }
  const bool trace = !opt.trace_path.empty();

  BenchmarkSuite suite = MakeSuite(*w, opt.seed);
  const std::vector<OpRef> ops = OpList(suite);
  SpanBuffer run_spans(0);
  std::vector<SetupTimes> setups;
  std::unique_ptr<engine::Database> db;
  std::string wal_dir;
  auto drop_db = [&] {
    db.reset();
    std::error_code ec;
    if (!wal_dir.empty()) fs::remove_all(wal_dir, ec);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    drop_db();
    wal_dir = opt.wal_dir + "/rep" + std::to_string(rep);
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
    db = std::make_unique<engine::Database>(MakeProfile(*w, wal_dir));
    SetupTimes t;
    Status st = db->recovery_status();
    if (st.ok()) st = SetUp(*db, suite, &t, trace ? &run_spans : nullptr);
    if (!st.ok()) {
      std::fprintf(stderr, "olxpbench: set-up failed: %s\n",
                   st.ToString().c_str());
      drop_db();
      return 2;
    }
    setups.push_back(t);
  }
  if (opt.calibrate) {
    Calibrate(*db, ops, *w, opt);
    drop_db();
    return 0;
  }

  WindowResult r = RunWindow(*db, ops, *w, opt, trace);
  AfterWindow after;
  const int64_t drain_t0 = NowMicros();
  db->WaitReplicaCaughtUp();
  const int64_t drain_t1 = NowMicros();
  double versions = 0, rows = 0;
  for (int id : db->row_store().TableIds()) {
    const storage::MvccTable* t = db->row_store().table(id);
    versions += static_cast<double>(t->TotalVersionCount());
    rows += static_cast<double>(t->ApproxRowCount());
  }
  const int64_t vacuum_t0 = NowMicros();
  (void)db->RunVacuum();  // timed only; what it reclaims is not reported
  const int64_t vacuum_t1 = NowMicros();
  after.drain_ms = static_cast<double>(drain_t1 - drain_t0) / 1e3;
  after.vacuum_ms = static_cast<double>(vacuum_t1 - vacuum_t0) / 1e3;
  after.versions_per_row = Ratio(versions, rows);
  run_spans.Add(MakeSpan("window.drain", "replicator", drain_t0, drain_t1));
  run_spans.Add(MakeSpan("window.vacuum", "vacuum", vacuum_t0, vacuum_t1));

  const std::vector<Metric> metrics =
      ComputeMetrics(ops, *w, setups, r, after);
  const std::vector<CheckResult> checks = RunChecks(*db, suite, *w, r);

  if (trace) {
    std::vector<const SpanBuffer*> buffers = {&run_spans, &r.probe.spans};
    for (const auto& t : r.threads) buffers.push_back(&t->spans);
    // Registry totals over the window that spans cannot split out of the
    // op bodies: layers.py prints them beside the span self times.
    const std::vector<std::pair<std::string, double>> counters = {
        {"lock.wait_us",
         static_cast<double>(
             CounterDelta(r.before, r.after, "lock.wait_ns")) /
             1e3},
        {"wal.fsync_us",
         HistogramSumDelta(r.before, r.after, "wal.fsync_us")},
        {"session.statement_us",
         HistogramSumDelta(r.before, r.after, "session.statement_us")},
    };
    if (!WriteSpans(opt.trace_path, w->name, buffers, counters)) {
      std::fprintf(stderr, "olxpbench: cannot write %s\n",
                   opt.trace_path.c_str());
      drop_db();
      return 2;
    }
  }
  drop_db();

  int64_t attempted = r.probe.probe_attempted;
  int64_t failed = r.probe.probe_failed;
  for (const ProfileStats& s : r.stats) {
    attempted += s.attempted;
    failed += s.failed;
  }
  bool correct = true;
  for (const CheckResult& c : checks) correct = correct && c.ok;
  PrintReport(*w, opt, metrics, checks, r, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace olxp::olxpbench

int main(int argc, char** argv) { return olxp::olxpbench::Main(argc, argv); }
