#include "storage/replicator.h"

#include <limits>

#include "common/clock.h"

namespace olxp::storage {

Replicator::Replicator(CommitLog* log, ColumnStore* store, int64_t lag_micros,
                       int64_t poll_micros)
    : log_(log),
      store_(store),
      lag_micros_(lag_micros),
      poll_micros_(poll_micros) {}

Replicator::~Replicator() {
  Stop();
  if (registry_ != nullptr && frontier_handle_ != 0) {
    registry_->Release(frontier_handle_);
  }
}

void Replicator::set_snapshot_registry(SnapshotRegistry* registry) {
  sync::MutexLock lk(apply_mu_);
  if (registry_ != nullptr && frontier_handle_ != 0) {
    registry_->Release(frontier_handle_);
    frontier_handle_ = 0;
  }
  registry_ = registry;
  if (registry_ != nullptr) {
    frontier_handle_ = registry_->Register(SnapshotRegistry::kUnpinned);
  }
}

void Replicator::set_metrics(obs::MetricsRegistry* metrics) {
  sync::MutexLock lk(apply_mu_);
  if (metrics == nullptr) {
    m_applied_ = nullptr;
    m_apply_batches_ = nullptr;
    m_frontier_seq_ = nullptr;
    m_pending_ = nullptr;
    m_apply_lag_us_ = nullptr;
    return;
  }
  m_applied_ = metrics->GetCounter("repl.records_applied");
  m_apply_batches_ = metrics->GetCounter("repl.apply_batches");
  m_frontier_seq_ = metrics->GetGauge("repl.apply_frontier_seq");
  m_pending_ = metrics->GetGauge("repl.pending_records");
  m_apply_lag_us_ = metrics->GetGauge("repl.apply_lag_us");
}

void Replicator::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { Run(); });
}

void Replicator::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  if (thread_.joinable()) thread_.join();
  // Final bounded drain: the thread may have been sleeping between polls
  // when the flag flipped, leaving records that were already due (older
  // than the lag) unapplied. Without this, a commit immediately before
  // Stop() is silently missing from the replica that tests then read.
  ApplyUpTo(NowMicros() - lag_micros_);
}

void Replicator::Run() {
  while (running_.load(std::memory_order_relaxed)) {
    ApplyUpTo(NowMicros() - lag_micros_);
    // A real OS sleep, not SleepMicros: the poll interval is scheduling
    // slack, not a simulated device latency, and the spin-wait tail would
    // otherwise burn a full core for the life of the database.
    std::this_thread::sleep_for(std::chrono::microseconds(poll_micros_));
  }
}

void Replicator::ApplyUpTo(int64_t max_wall_us) {
  sync::MutexLock lk(apply_mu_);
  std::vector<CommitRecord> batch;
  uint64_t next = log_->Fetch(next_seq_.load(std::memory_order_relaxed),
                              max_wall_us, &batch);
  for (const CommitRecord& rec : batch) {
    store_->ApplyCommit(rec);
  }
  next_seq_.store(next, std::memory_order_release);
  log_->Trim(next);
  if (m_applied_ != nullptr && !batch.empty()) {
    m_applied_->Add(static_cast<int64_t>(batch.size()));
    m_apply_batches_->Add(1);
    // Replica freshness: age of the newest commit just shipped. With
    // synthetic wall times (commit_wall_us == 0) the lag is meaningless,
    // so skip rather than publish a huge bogus value.
    const int64_t newest_wall = batch.back().commit_wall_us;
    if (newest_wall > 0) {
      const int64_t lag = NowMicros() - newest_wall;
      m_apply_lag_us_->Set(lag > 0 ? lag : 0);
    }
  }
  if (m_frontier_seq_ != nullptr) {
    m_frontier_seq_->Set(static_cast<int64_t>(next));
    const uint64_t appended = log_->size();
    m_pending_->Set(static_cast<int64_t>(appended > next ? appended - next : 0));
  }
  if (registry_ != nullptr && frontier_handle_ != 0) {
    // Pin the vacuum watermark at the oldest commit still awaiting apply
    // (records inside the lag window); unpin when fully caught up.
    uint64_t pending = log_->OldestPendingCommitTs(next);
    registry_->Update(frontier_handle_,
                      pending == 0 ? SnapshotRegistry::kUnpinned : pending);
  }
}

void Replicator::CatchUp() {
  ApplyUpTo(std::numeric_limits<int64_t>::max());
}

}  // namespace olxp::storage
