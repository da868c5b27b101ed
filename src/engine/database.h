#ifndef OLXP_ENGINE_DATABASE_H_
#define OLXP_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/sync.h"
#include "engine/profile.h"
#include "exec/morsel.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "sql/storage_iface.h"
#include "storage/column_store.h"
#include "storage/lock_manager.h"
#include "storage/oracle.h"
#include "storage/replicator.h"
#include "storage/row_store.h"
#include "storage/vacuum.h"
#include "storage/wal.h"
#include "txn/transaction.h"

namespace olxp::engine {

class Session;

/// An embedded HTAP database instance configured by an EngineProfile.
/// Owns the full substrate: row store, lock manager, timestamp oracle,
/// commit log, columnar replica, replication pipeline, transaction manager,
/// and (when the profile enables durability) the disk-backed WAL. Each
/// store has one executor: Sessions run row-store statements on the sql/
/// interpreter and replica statements on the vectorized engine (exec/).
/// Thread-safe: many Sessions execute concurrently against one Database.
///
/// Opening a Database whose profile points `wal_dir` at a directory with
/// WAL state recovers it: the newest checkpoint loads first, remaining
/// segments replay on top (original commit timestamps preserved, oracle
/// re-seeded), and the columnar replica rebuilds through the Replicator
/// pipeline. Check recovery_status() after construction.
class Database : public sql::Catalog {
 public:
  explicit Database(EngineProfile profile);
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const EngineProfile& profile() const { return profile_; }

  /// Opens a new session (one per client thread).
  std::unique_ptr<Session> CreateSession();

  // --- sql::Catalog ---
  StatusOr<int> TableId(std::string_view name) const override;
  const storage::TableSchema& GetSchema(int table_id) const override;

  /// DDL entry used by Sessions: creates the row table plus (for separated
  /// architectures) its columnar replica, and resolves FK references.
  Status CreateTableEverywhere(storage::TableSchema schema);

  /// Adds a secondary index to a live table (backfills).
  Status CreateIndexOn(std::string_view table_name, storage::IndexDef def);

  /// Blocks until the columnar replica has applied everything committed so
  /// far (loader barrier before measurements).
  void WaitReplicaCaughtUp();

  /// Runs one synchronous MVCC vacuum pass (watermark-safe: respects every
  /// open snapshot) and returns what it reclaimed. The background vacuum
  /// thread runs the same pass every profile().vacuum_interval_us.
  storage::VacuumStats RunVacuum();

  /// Snapshots every table (schemas + committed rows with their commit
  /// timestamps) into the WAL directory and deletes segments the snapshot
  /// fully covers, bounding disk during long runs. Safe under concurrent
  /// commits. Fails when the profile has durability off.
  Status Checkpoint();

  /// Outcome of WAL recovery at construction (OK when durability is off or
  /// the directory was empty). A Database whose recovery failed is empty
  /// but usable; callers that need the data must check this.
  const Status& recovery_status() const { return recovery_status_; }

  // --- substrate accessors (benchmarks, tests, stats) ---
  storage::RowStore& row_store() { return row_store_; }
  storage::ColumnStore& column_store() { return column_store_; }
  storage::LockManager& lock_manager() { return lock_manager_; }
  storage::TimestampOracle& oracle() { return oracle_; }
  storage::Replicator& replicator() { return *replicator_; }
  txn::TransactionManager& txn_manager() { return *txn_manager_; }
  storage::SnapshotRegistry& snapshots() { return snapshots_; }
  storage::Vacuum& vacuum() { return *vacuum_; }
  /// Durable segment writer; nullptr when durability is off.
  storage::WalWriter* wal() { return wal_.get(); }
  /// Shared worker pool for morsel-driven parallel vectorized execution;
  /// nullptr when profile().exec_threads <= 1 (serial path).
  exec::WorkerPool* exec_pool() { return exec_pool_.get(); }

  /// Process-visible metrics for this database instance: every subsystem
  /// (WAL, vacuum, replicator, lock manager, worker pool, router, session
  /// statement timing) publishes counters/gauges/histograms here.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Ring of recent statements that crossed the profile's
  /// slow_query_threshold_us (empty when the threshold is 0).
  obs::SlowQueryLog& slow_query_log() { return slow_log_; }

  /// One JSON document with everything an operator polls: the full metrics
  /// snapshot (counters/gauges/histogram summaries) plus the slow-query
  /// ring. Stable top-level keys: "metrics", "slow_queries",
  /// "slow_query_total".
  std::string StatsJson();

  /// Prometheus text exposition of the metrics registry (refreshes the
  /// pull-published columnar storage gauges first).
  std::string MetricsText();

  /// Monotone counter bumped by every successful DDL (CREATE TABLE /
  /// CREATE INDEX). Sessions stamp cached prepared statements with it and
  /// recompile on mismatch, so a plan prepared before an index existed
  /// never keeps routing/seeking against its stale shape.
  uint64_t schema_version() const {
    return schema_version_.load(std::memory_order_acquire);
  }

  /// Adjusts the simulated cluster size (Fig. 10 scaling bench).
  void set_cluster_nodes(int nodes) { profile_.cluster.num_nodes = nodes; }

  /// Reconfigures intra-query parallelism at runtime: replaces the worker
  /// pool (n <= 1 removes it, restoring the serial path). For tests and
  /// bench ablations only — callers must quiesce in-flight statements
  /// first.
  void set_exec_threads(int n);

  /// Sets the chunked-scan latch-drop granularity on every table (0 = hold
  /// the latch for the whole sweep). The fig1/fig4 ablations flip this
  /// between cells to measure the §V-B interference path before/after.
  void set_scan_chunk_rows(size_t rows);

 private:
  /// Loads the checkpoint and replays WAL segments from profile_.wal_dir,
  /// then opens the segment writer for new commits.
  Status RecoverFromWal();

  /// Declared before every subsystem so it is destroyed last: WAL flushes,
  /// final vacuum passes and replicator drains may still record into it
  /// while the rest of the substrate tears down.
  obs::MetricsRegistry metrics_;
  EngineProfile profile_;
  /// Declared after profile_ (sized from it), before the subsystems that
  /// feed it.
  obs::SlowQueryLog slow_log_;
  storage::RowStore row_store_;
  storage::ColumnStore column_store_;
  storage::LockManager lock_manager_;
  storage::TimestampOracle oracle_;
  storage::CommitLog commit_log_;
  /// Live-snapshot registry feeding the vacuum watermark; must outlive the
  /// replicator, transaction manager, and vacuum, all of which hold it.
  storage::SnapshotRegistry snapshots_;
  std::unique_ptr<storage::Replicator> replicator_;
  std::unique_ptr<txn::TransactionManager> txn_manager_;
  /// Stopped in ~Database before the stores it sweeps are torn down.
  std::unique_ptr<storage::Vacuum> vacuum_;
  /// Morsel-execution worker pool; shut down FIRST in ~Database (before
  /// the vacuum and replicator) so no in-flight morsel reads a table the
  /// sweepers are tearing down behind it.
  std::unique_ptr<exec::WorkerPool> exec_pool_;
  std::atomic<uint64_t> schema_version_{0};
  /// Sessions opened so far (the next session's ordinal).
  std::atomic<uint64_t> next_session_ordinal_{0};
  /// Declared last: destroyed first, flushing its tail while the rest of
  /// the substrate is still alive. No transaction runs during destruction.
  std::unique_ptr<storage::WalWriter> wal_;
  /// Serializes Checkpoint() callers; outermost rank — a checkpoint pins
  /// the commit scope, the snapshot registry, table latches and the WAL.
  sync::Mutex checkpoint_mu_{sync::LockRank::kCheckpoint, "db.checkpoint"};
  Status recovery_status_;
};

}  // namespace olxp::engine

#endif  // OLXP_ENGINE_DATABASE_H_
