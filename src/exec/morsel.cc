#include "exec/morsel.h"

#include <algorithm>
#include <string>

#include "common/clock.h"

namespace olxp::exec {

namespace {

std::vector<obs::Counter*> LaneBusyCounters(int lanes,
                                            obs::MetricsRegistry& metrics) {
  std::vector<obs::Counter*> out;
  out.reserve(static_cast<size_t>(lanes));
  for (int lane = 0; lane < lanes; ++lane) {
    out.push_back(metrics.GetCounter("exec.pool.lane" + std::to_string(lane) +
                                     ".busy_ns"));
  }
  return out;
}

}  // namespace

WorkerPool::WorkerPool(int lanes, obs::MetricsRegistry& metrics)
    : lanes_(std::max(1, lanes)),
      m_runs_(metrics.GetCounter("exec.pool.runs")),
      m_jobs_(metrics.GetCounter("exec.pool.jobs")),
      m_queue_depth_(metrics.GetGauge("exec.pool.queue_depth")),
      lane_busy_ns_(LaneBusyCounters(lanes_, metrics)) {
  workers_.reserve(static_cast<size_t>(lanes_ - 1));
  for (int i = 0; i < lanes_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

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
      m_queue_depth_->Set(static_cast<int64_t>(jobs_.size()));
    }
    m_jobs_->Add(1);
    RunLane(*job.fn, job.lane);
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
        m_queue_depth_->Set(static_cast<int64_t>(jobs_.size()));
      }
    }
    if (remaining.load(std::memory_order_relaxed) > 0) work_cv_.NotifyAll();
  }
  m_runs_->Add(1);
  RunLane(fn, 0);  // never under mu_: the job may run for a whole query
  if (remaining.load(std::memory_order_acquire) == 0) return;
  sync::MutexLock lk(mu_);
  while (remaining.load(std::memory_order_acquire) != 0) done_cv_.Wait(lk);
}

void WorkerPool::RunLane(const std::function<void(int)>& fn, int lane) {
  const int64_t t0 = NowNanos();
  fn(lane);
  lane_busy_ns_[static_cast<size_t>(lane)]->Add(NowNanos() - t0);
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
