#ifndef OLXP_STORAGE_VACUUM_H_
#define OLXP_STORAGE_VACUUM_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>

#include "common/sync.h"
#include "obs/metrics.h"
#include "storage/oracle.h"
#include "storage/row_store.h"

namespace olxp::storage {

/// Registry of every live snapshot in the engine: open transactions,
/// the checkpoint writer's image timestamp, and the replicator's apply
/// frontier. The vacuum computes its reclamation watermark as the minimum
/// over all registered snapshots (and the oracle's published counter), so a
/// version visible to ANY live reader is never reclaimed.
///
/// The acquire-vs-watermark race matters: a transaction that reads the
/// oracle and only then registers could observe the counter at c while a
/// concurrent watermark computation (not yet seeing the registration) uses
/// a newer counter value > c. Acquire() therefore reads the oracle UNDER
/// the registry mutex — the same mutex Watermark() holds — so every
/// watermark is <= every snapshot registered after it was computed.
class SnapshotRegistry {
 public:
  using Handle = uint64_t;            ///< 0 = invalid / never registered
  static constexpr uint64_t kUnpinned = ~0ull;  ///< entry holds no snapshot

  /// Atomically reads the oracle's current timestamp and registers it as a
  /// live snapshot. Returns the handle; the snapshot ts lands in `*ts`.
  Handle Acquire(const TimestampOracle& oracle, uint64_t* ts) {
    sync::MutexLock lk(mu_);
    *ts = oracle.Current();
    Handle h = next_handle_++;
    active_.emplace(h, *ts);
    return h;
  }

  /// Registers an externally chosen snapshot (checkpoint writer: its image
  /// timestamp is a reserved commit ts that is not yet published, which is
  /// safe because it is above every watermark computable before publish).
  Handle Register(uint64_t ts) {
    sync::MutexLock lk(mu_);
    Handle h = next_handle_++;
    active_.emplace(h, ts);
    return h;
  }

  /// Moves an entry to a new snapshot (replicator frontier). kUnpinned
  /// makes the entry stop constraining the watermark without releasing it.
  void Update(Handle h, uint64_t ts) {
    sync::MutexLock lk(mu_);
    auto it = active_.find(h);
    if (it != active_.end()) it->second = ts;
  }

  void Release(Handle h) {
    sync::MutexLock lk(mu_);
    active_.erase(h);
  }

  /// The reclamation watermark: min over live snapshots, bounded by the
  /// oracle's published counter (with no snapshots open, everything
  /// committed so far is safe to truncate down to its newest version).
  uint64_t Watermark(const TimestampOracle& oracle) const {
    sync::MutexLock lk(mu_);
    uint64_t w = oracle.Current();
    for (const auto& [h, ts] : active_) {
      if (ts != kUnpinned && ts < w) w = ts;
    }
    return w;
  }

  /// Live registered snapshots (diagnostics).
  size_t ActiveCount() const {
    sync::MutexLock lk(mu_);
    size_t n = 0;
    for (const auto& [h, ts] : active_) {
      if (ts != kUnpinned) ++n;
    }
    return n;
  }

 private:
  mutable sync::Mutex mu_{sync::LockRank::kSnapshotRegistry, "snapshots"};
  std::unordered_map<Handle, uint64_t> active_ GUARDED_BY(mu_);
  Handle next_handle_ GUARDED_BY(mu_) = 1;
};

/// Vacuum knobs (EngineProfile mirrors these as vacuum_interval_us /
/// vacuum_batch_rows).
struct VacuumConfig {
  /// Background pass period. <= 0 disables the thread; RunOnce() still
  /// works for synchronous callers (bench cells, tests).
  int64_t interval_us = 50000;
  /// Rows examined per exclusive-lock chunk. Bounds how long one vacuum
  /// chunk holds a table's latch against committers.
  size_t batch_rows = 512;
};

/// Background MVCC garbage collector. Each pass computes the active-
/// snapshot watermark and walks every table in lock-bounded chunks,
/// truncating version chains below the watermark, erasing chains whose
/// newest sub-watermark version is a tombstone (with nothing newer), and
/// purging the secondary-index entries those versions backed: the
/// continuous, snapshot-safe collection real HTAP engines run.
///
/// What the passes reclaim is counted only into the vacuum.* counters of
/// the registry the vacuum is built with (passes, versions, tombstoned
/// chains, index entries), next to the pass-duration histogram and the
/// watermark gauges.
class Vacuum {
 public:
  /// `metrics` must outlive the vacuum.
  Vacuum(RowStore* store, SnapshotRegistry* registry,
         const TimestampOracle* oracle, VacuumConfig config,
         obs::MetricsRegistry& metrics);
  ~Vacuum();

  Vacuum(const Vacuum&) = delete;
  Vacuum& operator=(const Vacuum&) = delete;

  /// Starts the background thread (no-op when interval_us <= 0; idempotent).
  void Start();
  /// Stops and joins the background thread (idempotent).
  void Stop();

  /// Runs one synchronous full pass over every table and returns what it
  /// reclaimed. Safe concurrently with the background thread (serialized).
  VacuumStats RunOnce();

  /// Watermark used by the most recent pass (0 before the first pass).
  uint64_t last_watermark() const {
    return last_watermark_.load(std::memory_order_acquire);
  }

 private:
  void Run();

  RowStore* store_;
  SnapshotRegistry* registry_;
  const TimestampOracle* oracle_;
  const VacuumConfig config_;

  /// Serializes RunOnce between thread and callers. Held across table
  /// latches and the snapshot registry, hence the outer rank.
  sync::Mutex pass_mu_{sync::LockRank::kVacuumPass, "vacuum.pass"};

  std::atomic<uint64_t> last_watermark_{0};

  sync::Mutex wake_mu_{sync::LockRank::kVacuumState, "vacuum.wake"};
  sync::CondVar wake_cv_;  ///< interruptible inter-pass sleep
  std::atomic<bool> running_{false};
  std::thread thread_;

  obs::Counter* const m_passes_;
  obs::Counter* const m_versions_;
  obs::Counter* const m_tombstones_;
  obs::Counter* const m_index_entries_;
  obs::Histogram* const m_pass_us_;
  obs::Gauge* const m_watermark_;
  obs::Gauge* const m_watermark_age_;
  obs::Gauge* const m_active_snapshots_;
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_VACUUM_H_
