#ifndef OLXP_EXEC_MORSEL_H_
#define OLXP_EXEC_MORSEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"

/// Morsel-driven intra-query parallelism (HyPer-style): a query's scan range
/// is split into fixed-size morsels that execution lanes claim from a shared
/// atomic cursor, so a fast lane "steals" whatever a slow lane has not
/// claimed yet and no static partitioning can strand work. One WorkerPool is
/// owned by engine::Database and shared by every session's queries; the
/// calling session thread always participates as lane 0, so a saturated pool
/// degrades to serial execution instead of deadlocking.

namespace olxp::exec {

/// Persistent pool of `lanes - 1` worker threads (lane 0 is the caller).
/// Thread-safe: concurrent Run() calls from different sessions interleave
/// on the same workers.
class WorkerPool {
 public:
  /// `lanes` <= 1 spawns no threads (Run degrades to an inline call).
  /// `metrics` receives the exec.pool.* counters and per-lane busy time and
  /// must outlive the pool.
  WorkerPool(int lanes, obs::MetricsRegistry& metrics);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Maximum lanes a Run() can engage (configured exec_threads).
  int lanes() const { return lanes_; }

  /// Invokes fn(lane) for every lane in [0, n): lane 0 inline on the
  /// calling thread, the rest on pool workers as they become free. Blocks
  /// until every lane has returned. `fn` must be safe to call concurrently
  /// from `n` threads and must not throw.
  void Run(int n, const std::function<void(int)>& fn) EXCLUDES(mu_);

  /// Joins every worker; subsequent Run() calls execute inline. Idempotent.
  /// ~Database calls this before stopping the vacuum and replicator so no
  /// in-flight morsel can touch storage that is being torn down.
  void Shutdown() EXCLUDES(mu_);

 private:
  struct Job {
    const std::function<void(int)>* fn;
    int lane;
    std::atomic<int>* remaining;  ///< lanes of this Run still outstanding
  };

  void WorkerLoop();
  /// Runs lane `lane` of `fn` on the calling thread, adding its wall time
  /// to the lane's busy counter.
  void RunLane(const std::function<void(int)>& fn, int lane);

  const int lanes_;
  obs::Counter* const m_runs_;
  obs::Counter* const m_jobs_;
  obs::Gauge* const m_queue_depth_;
  /// lane_busy_ns_[k] is lane k's cumulative job execution time (lane 0 =
  /// the calling session thread's share of parallel Runs).
  const std::vector<obs::Counter*> lane_busy_ns_;
  /// Entered by Run() with a scan pin (TableLatch) held, hence the rank.
  sync::Mutex mu_{sync::LockRank::kWorkerPool, "workerpool"};
  sync::CondVar work_cv_;  ///< workers wait for jobs here
  sync::CondVar done_cv_;  ///< Run() callers wait for lanes here
  std::deque<Job> jobs_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);
};

/// Partitions the slot range [0, total_rows) of one pinned table into
/// morsels of `morsel_rows` slots claimed via an atomic cursor. Morsel
/// ordinals are dense and ordered by base slot, so per-morsel partial
/// results merged in ordinal order reproduce the one-lane scan order exactly
/// regardless of which lane processed which morsel.
class MorselDispatcher {
 public:
  MorselDispatcher(size_t total_rows, size_t morsel_rows);

  struct Morsel {
    size_t ordinal = 0;  ///< dense index, ordered by base
    size_t base = 0;     ///< first slot
    size_t rows = 0;     ///< slots in this morsel (last one may be short)
  };

  /// Claims the next unclaimed morsel; false when exhausted or cancelled.
  bool Next(Morsel* out);

  /// The morsel with dense index `ordinal` (< morsel_count()), for a second
  /// pass over morsels a first fan-out already claimed.
  Morsel At(size_t ordinal) const;

  /// Makes every subsequent Next() return false (error propagation).
  /// Morsels already claimed run to completion.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  size_t morsel_count() const { return count_; }
  size_t morsel_rows() const { return morsel_rows_; }
  /// Morsels Next() has handed out: every one unless the scan was
  /// cancelled.
  size_t claimed() const {
    return std::min(cursor_.load(std::memory_order_relaxed), count_);
  }

 private:
  const size_t total_;
  const size_t morsel_rows_;
  const size_t count_;
  std::atomic<size_t> cursor_{0};
  std::atomic<bool> cancelled_{false};
};

}  // namespace olxp::exec

#endif  // OLXP_EXEC_MORSEL_H_
