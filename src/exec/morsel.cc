#include "exec/morsel.h"

#include <algorithm>
#include <string>

#include "common/clock.h"

namespace olxp::exec {

WorkerPool::WorkerPool(int lanes) : lanes_(std::max(1, lanes)) {
  workers_.reserve(static_cast<size_t>(lanes_ - 1));
  for (int i = 0; i < lanes_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::set_metrics(obs::MetricsRegistry* metrics) {
  // Registry lookups happen BEFORE taking mu_: the registry mutex ranks
  // below the pool mutex (workers hold mu_ far more often than anyone
  // touches the registry), so looking up under mu_ would invert the lock
  // order. Only the member stores need the pool lock.
  obs::Counter* runs = nullptr;
  obs::Counter* jobs = nullptr;
  obs::Gauge* queue_depth = nullptr;
  std::vector<obs::Counter*> lane_busy;
  if (metrics != nullptr) {
    runs = metrics->GetCounter("exec.pool.runs");
    jobs = metrics->GetCounter("exec.pool.jobs");
    queue_depth = metrics->GetGauge("exec.pool.queue_depth");
    lane_busy.resize(static_cast<size_t>(lanes_));
    for (int lane = 0; lane < lanes_; ++lane) {
      lane_busy[static_cast<size_t>(lane)] = metrics->GetCounter(
          "exec.pool.lane" + std::to_string(lane) + ".busy_ns");
    }
  }
  sync::MutexLock lk(mu_);
  m_runs_ = runs;
  m_jobs_ = jobs;
  m_queue_depth_ = queue_depth;
  lane_busy_ns_ = std::move(lane_busy);
}

void WorkerPool::Shutdown() {
  // Swap the threads out under the lock: Run() reads workers_.empty() under
  // mu_ to decide whether lanes can be dispatched at all, and the join loop
  // below must not touch the guarded vector unlocked (joining with mu_ held
  // would deadlock against workers draining the queue).
  std::vector<std::thread> joined;
  {
    sync::MutexLock lk(mu_);
    stop_ = true;
    joined.swap(workers_);
  }
  work_cv_.NotifyAll();
  for (std::thread& t : joined) {
    if (t.joinable()) t.join();
  }
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    Job job;
    {
      sync::MutexLock lk(mu_);
      // Explicit wait loop (not the predicate overload): the condition
      // reads stop_/jobs_, which are GUARDED_BY(mu_), and a predicate
      // lambda would be analyzed as a separate unannotated function.
      while (!stop_ && jobs_.empty()) work_cv_.Wait(lk);
      if (jobs_.empty()) return;  // stop_ with a drained queue
      job = jobs_.front();
      jobs_.pop_front();
      if (m_queue_depth_ != nullptr) {
        m_queue_depth_->Set(static_cast<int64_t>(jobs_.size()));
      }
    }
    if (m_jobs_ != nullptr) {
      m_jobs_->Add(1);
      const int64_t t0 = NowNanos();
      (*job.fn)(job.lane);
      lane_busy_ns_[static_cast<size_t>(job.lane)]->Add(NowNanos() - t0);
    } else {
      (*job.fn)(job.lane);
    }
    // fetch_sub under the lock so the Run() waiter cannot observe the
    // counter hit zero and destroy its stack state while this thread is
    // between the decrement and the notify.
    {
      sync::MutexLock lk(mu_);
      job.remaining->fetch_sub(1, std::memory_order_acq_rel);
    }
    done_cv_.NotifyAll();
  }
}

void WorkerPool::Run(int n, const std::function<void(int)>& fn) {
  n = std::min(n, lanes_);
  std::atomic<int> remaining(0);
  if (n > 1) {
    {
      sync::MutexLock lk(mu_);
      // A stopped (or never-threaded) pool dispatches nothing; lane 0
      // below still runs the whole job inline, so callers always make
      // progress. Both flags are read under mu_ — Shutdown mutates them.
      if (!stop_ && !workers_.empty()) {
        remaining.store(n - 1, std::memory_order_relaxed);
        for (int lane = 1; lane < n; ++lane) {
          jobs_.push_back(Job{&fn, lane, &remaining});
        }
        if (m_queue_depth_ != nullptr) {
          m_queue_depth_->Set(static_cast<int64_t>(jobs_.size()));
        }
      }
    }
    if (remaining.load(std::memory_order_relaxed) > 0) work_cv_.NotifyAll();
  }
  if (m_runs_ != nullptr) {
    m_runs_->Add(1);
    const int64_t t0 = NowNanos();
    fn(0);  // never under mu_: the job may run for a whole query
    lane_busy_ns_[0]->Add(NowNanos() - t0);
  } else {
    fn(0);  // never under mu_: the job may run for a whole query
  }
  if (remaining.load(std::memory_order_acquire) == 0) return;
  sync::MutexLock lk(mu_);
  while (remaining.load(std::memory_order_acquire) != 0) done_cv_.Wait(lk);
}

MorselDispatcher::MorselDispatcher(size_t total_rows, size_t morsel_rows)
    : total_(total_rows),
      morsel_rows_(std::max<size_t>(1, morsel_rows)),
      count_(total_rows == 0 ? 0 : (total_rows + morsel_rows_ - 1) /
                                       morsel_rows_) {}

bool MorselDispatcher::Next(Morsel* out) {
  if (cancelled_.load(std::memory_order_acquire)) return false;
  size_t ordinal = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (ordinal >= count_) return false;
  *out = At(ordinal);
  return true;
}

MorselDispatcher::Morsel MorselDispatcher::At(size_t ordinal) const {
  Morsel m;
  m.ordinal = ordinal;
  m.base = ordinal * morsel_rows_;
  m.rows = std::min(morsel_rows_, total_ - m.base);
  return m;
}

}  // namespace olxp::exec
