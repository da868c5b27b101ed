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
  /// `metrics` receives the repl.* counters and gauges and must outlive the
  /// replicator. `lag_micros`: minimum age of a commit before it becomes
  /// visible in the column store. `poll_micros`: tail polling interval.
  Replicator(CommitLog* log, ColumnStore* store, obs::MetricsRegistry& metrics,
             int64_t lag_micros, int64_t poll_micros = 200);
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

 private:
  void Run();
  /// Applies everything with commit wall time <= max_wall_us.
  void ApplyUpTo(int64_t max_wall_us);

  CommitLog* log_;
  ColumnStore* store_;
  /// apply_mu_ serializes ApplyUpTo between the shipping thread and
  /// CatchUp, and guards the apply cursor and the registry wiring the apply
  /// path reads.
  sync::Mutex apply_mu_{sync::LockRank::kReplicatorApply, "replicator.apply"};
  SnapshotRegistry* registry_ GUARDED_BY(apply_mu_) = nullptr;
  SnapshotRegistry::Handle frontier_handle_ GUARDED_BY(apply_mu_) = 0;
  uint64_t next_seq_ GUARDED_BY(apply_mu_) = 0;
  const int64_t lag_micros_;
  const int64_t poll_micros_;

  obs::Counter* const m_applied_;
  obs::Counter* const m_apply_batches_;
  obs::Gauge* const m_frontier_seq_;
  obs::Gauge* const m_pending_;
  obs::Gauge* const m_apply_lag_us_;

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_REPLICATOR_H_
