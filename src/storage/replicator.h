#ifndef OLXP_STORAGE_REPLICATOR_H_
#define OLXP_STORAGE_REPLICATOR_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/sync.h"
#include "obs/metrics.h"
#include "storage/column_store.h"
#include "storage/vacuum.h"
#include "storage/wal.h"

namespace olxp::storage {

/// Background log-shipping pipeline: tails the CommitLog and applies
/// committed mutations to the ColumnStore after a configurable propagation
/// delay, reproducing TiDB's asynchronous TiKV->TiFlash replication. The
/// delay is the freshness lag an analytical snapshot observes.
class Replicator {
 public:
  /// `lag_micros`: minimum age of a commit before it becomes visible in the
  /// column store. `poll_micros`: tail polling interval.
  Replicator(CommitLog* log, ColumnStore* store, int64_t lag_micros,
             int64_t poll_micros = 200);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Starts the shipping thread (idempotent).
  void Start();

  /// Stops the shipping thread (idempotent), then performs one final
  /// bounded apply of every record already older than the lag, so a replica
  /// read after Stop() observes all commits that were due at stop time.
  /// Records still inside the lag window stay unapplied (use CatchUp() to
  /// force them).
  void Stop();

  /// Blocks until every record committed before this call is applied,
  /// ignoring the lag (loader/test barrier).
  void CatchUp();

  /// Registers this pipeline's apply frontier as a live snapshot: while
  /// commits sit in the log unapplied, the vacuum watermark stays at or
  /// below the oldest pending commit ts (unpinned when fully caught up).
  /// Call before Start(); pass nullptr to detach.
  void set_snapshot_registry(SnapshotRegistry* registry);

  /// Attaches a metrics sink (repl.* counters/gauges). Call before
  /// Start(); the registry must outlive the replicator.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Records applied so far.
  uint64_t applied_count() const {
    return next_seq_.load(std::memory_order_acquire);
  }

 private:
  void Run();
  /// Applies everything with commit wall time <= max_wall_us.
  void ApplyUpTo(int64_t max_wall_us);

  CommitLog* log_;
  ColumnStore* store_;
  /// apply_mu_ serializes ApplyUpTo between the shipping thread and
  /// CatchUp, and guards the registry/metrics wiring the apply path reads.
  sync::Mutex apply_mu_{sync::LockRank::kReplicatorApply, "replicator.apply"};
  SnapshotRegistry* registry_ GUARDED_BY(apply_mu_) = nullptr;
  SnapshotRegistry::Handle frontier_handle_ GUARDED_BY(apply_mu_) = 0;
  const int64_t lag_micros_;
  const int64_t poll_micros_;

  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_seq_{0};
  std::thread thread_;

  // Cached metric handles (null until set_metrics).
  obs::Counter* m_applied_ GUARDED_BY(apply_mu_) = nullptr;
  obs::Counter* m_apply_batches_ GUARDED_BY(apply_mu_) = nullptr;
  obs::Gauge* m_frontier_seq_ GUARDED_BY(apply_mu_) = nullptr;
  obs::Gauge* m_pending_ GUARDED_BY(apply_mu_) = nullptr;
  obs::Gauge* m_apply_lag_us_ GUARDED_BY(apply_mu_) = nullptr;
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_REPLICATOR_H_
