#include "storage/vacuum.h"

#include "common/clock.h"

namespace olxp::storage {

Vacuum::Vacuum(RowStore* store, SnapshotRegistry* registry,
               const TimestampOracle* oracle, VacuumConfig config,
               obs::MetricsRegistry& metrics)
    : store_(store),
      registry_(registry),
      oracle_(oracle),
      config_(config),
      m_passes_(metrics.GetCounter("vacuum.passes")),
      m_versions_(metrics.GetCounter("vacuum.versions_reclaimed")),
      m_tombstones_(metrics.GetCounter("vacuum.tombstones_reclaimed")),
      m_index_entries_(metrics.GetCounter("vacuum.index_entries_reclaimed")),
      m_pass_us_(metrics.GetHistogram("vacuum.pass_us")),
      m_watermark_(metrics.GetGauge("vacuum.watermark")),
      m_watermark_age_(metrics.GetGauge("vacuum.watermark_age_ts")),
      m_active_snapshots_(metrics.GetGauge("vacuum.active_snapshots")) {}

Vacuum::~Vacuum() { Stop(); }

void Vacuum::Start() {
  if (config_.interval_us <= 0) return;
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { Run(); });
}

void Vacuum::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  {
    // Flag-flip and notify under wake_mu_: notifying outside the mutex can
    // land between the waiter's predicate check and its block, losing the
    // wakeup and stalling Stop() for a whole interval.
    sync::MutexLock lk(wake_mu_);
  }
  wake_cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void Vacuum::Run() {
  while (running_.load(std::memory_order_relaxed)) {
    RunOnce();
    // Real OS sleep (scheduling slack, not simulated latency), interruptible
    // so Stop() never waits out a long interval.
    sync::MutexLock lk(wake_mu_);
    // The predicate only reads the atomic running_ flag (nothing guarded),
    // so the predicate overload is safe under the analysis.
    wake_cv_.WaitFor(lk, std::chrono::microseconds(config_.interval_us),
                     [this] {
                       return !running_.load(std::memory_order_relaxed);
                     });
  }
}

VacuumStats Vacuum::RunOnce() {
  sync::MutexLock pass_lk(pass_mu_);
  const int64_t pass_start_us = NowMicros();
  VacuumStats pass;
  for (int id : store_->TableIds()) {
    MvccTable* t = store_->table(id);
    if (t == nullptr) continue;
    // Recompute per table: a long pass over many tables would otherwise
    // hold reclamation back to a watermark that has since advanced. Using a
    // smaller (older) watermark is always safe; a fresher one reclaims more.
    const uint64_t watermark = registry_->Watermark(*oracle_);
    last_watermark_.store(watermark, std::memory_order_release);
    if (watermark == 0) continue;
    pass += t->VacuumBelow(watermark, config_.batch_rows);
  }
  m_passes_->Add(1);
  m_versions_->Add(static_cast<int64_t>(pass.versions_removed));
  m_tombstones_->Add(static_cast<int64_t>(pass.chains_removed));
  m_index_entries_->Add(static_cast<int64_t>(pass.index_entries_removed));
  m_pass_us_->Record(NowMicros() - pass_start_us);
  // Watermark age in logical-timestamp distance: how far reclamation
  // trails the newest published commit (0 = fully caught up).
  const uint64_t watermark = last_watermark_.load(std::memory_order_relaxed);
  const uint64_t current = oracle_->Current();
  m_watermark_->Set(static_cast<int64_t>(watermark));
  m_watermark_age_->Set(
      static_cast<int64_t>(current > watermark ? current - watermark : 0));
  m_active_snapshots_->Set(static_cast<int64_t>(registry_->ActiveCount()));
  return pass;
}

}  // namespace olxp::storage
