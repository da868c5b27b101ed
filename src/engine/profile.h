#ifndef OLXP_ENGINE_PROFILE_H_
#define OLXP_ENGINE_PROFILE_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "txn/transaction.h"

namespace olxp::exec {
struct VecExecStats;
}  // namespace olxp::exec

namespace olxp::engine {

/// Which physical stores exist and how OLAP is routed.
enum class StoreArchitecture {
  kUnified,    ///< one store; OLAP scans run on the transactional row store
               ///< (MemSQL-style)
  kSeparated,  ///< row store + columnar replica fed by async replication;
               ///< large reads route to the replica (TiDB-style)
};

/// Simulated device/network costs charged per storage operation. These make
/// the embedded engine behave like the paper's clusters at a calibrated,
/// laptop-friendly scale: shapes (ratios, crossovers) are the reproduction
/// target, not absolute values.
struct LatencyModel {
  int64_t row_seek_ns = 2000;        ///< point/index seek on the row store
  int64_t row_scan_row_ns = 150;     ///< per row visited scanning row store
  /// Per row visited by a STANDALONE analytical statement on the row store.
  /// Row-format analytical scans are far more expensive than OLTP-sized
  /// range reads ("scanning row-format tables in TiKV is stochastic and
  /// expensive", §VI-B1): batched random KV reads rather than sequential
  /// block reads.
  int64_t row_analytic_scan_row_ns = 2000;
  /// Per row visited by a replica scan (the vectorized engine, the
  /// replica's only executor: batch-amortized, no per-row materialization
  /// or interpreter dispatch).
  int64_t col_vector_row_ns = 8;
  /// Per row materialized into a vectorized-join hash table (build side).
  int64_t col_join_build_row_ns = 12;
  /// Per joined tuple emitted by a vectorized hash-join probe stage.
  int64_t col_join_row_ns = 16;
  int64_t write_ns = 1000;           ///< per buffered write at commit
  int64_t commit_base_ns = 30000;    ///< commit round trip (quorum, log)
  int64_t statement_overhead_ns = 5000;  ///< dispatch/SQL-layer hop
  /// Buffer-pressure model: point/range operations on a table are slowed
  /// by (1 + factor * concurrent_analytical_scans_on_that_table). Scans
  /// slow each other too, but sublinearly (bandwidth sharing):
  /// (1 + 0.15 * factor * other_scans).
  double scan_contention = 0.5;
  /// Per-extra-lane efficiency of morsel-driven parallel execution: a
  /// vectorized statement that engaged L lanes has its driving scan and
  /// probe divided by 1 + parallel_efficiency * (L - 1) (sub-linear
  /// scaling: dispatch, partial-state merge and memory bandwidth are
  /// shared).
  double parallel_efficiency = 0.7;
};

/// The two pricing functions of the per-row rates above, one per store.
/// Each is called twice per cost-routed statement: by the router on
/// estimated counts, and on the counts execution actually reports (the
/// charge, and the router.cost_residual_pct sample). No other code reads
/// these rates.
///
/// Simulated ns of the replica work in `stats` (exec::VecExecStats): the
/// driving scan and its probe divide by the parallel speedup of the lanes
/// they engaged; hash-join builds, their sweeps included, run serially.
double ReplicaCostNs(const exec::VecExecStats& stats, const LatencyModel& m);
/// Simulated ns of a standalone analytical read on the row store: `seeks`
/// index or pk seeks plus `rows` rows visited at the analytic rate.
double RowReadCostNs(double seeks, double rows, const LatencyModel& m);

/// Cluster-size scaling model for Fig. 10: coordination costs grow with the
/// number of nodes relative to the 4-node baseline.
struct ClusterModel {
  int num_nodes = 4;
  int base_nodes = 4;
  double commit_scale_per_doubling = 0.35;  ///< commit RTT growth
  double read_scale_per_doubling = 0.15;    ///< read/dispatch growth

  double CommitFactor() const {
    return 1.0 + commit_scale_per_doubling *
                     std::log2(static_cast<double>(num_nodes) / base_nodes);
  }
  double ReadFactor() const {
    return 1.0 + read_scale_per_doubling *
                     std::log2(static_cast<double>(num_nodes) / base_nodes);
  }
};

/// A system-under-test personality: storage architecture + isolation +
/// latency model + cluster model. Three factory presets emulate the paper's
/// SUTs; every knob stays user-configurable for ablations.
struct EngineProfile {
  std::string name = "memsql-like";
  StoreArchitecture architecture = StoreArchitecture::kUnified;
  txn::IsolationLevel isolation = txn::IsolationLevel::kReadCommitted;
  LatencyModel latency;
  ClusterModel cluster;
  /// Propagation delay row store -> replica (kSeparated only).
  int64_t replication_lag_micros = 20000;
  /// Probability that a stand-alone analytical SELECT executes on the row
  /// store despite a replica existing (the cost-based optimizer picking
  /// TiKV over TiFlash; §V-B1 notes scans "can occur in the row store of
  /// TiKV or the column store of TiFlash"). Ignored for kUnified.
  double olap_row_fraction = 0.0;
  /// Cost multiplier for analytical-shaped SELECTs (aggregates or joins)
  /// executed INSIDE an explicit transaction. Models the paper's MemSQL
  /// finding: vertical partitioning makes the relationship queries of
  /// hybrid transactions generate many join operations, inflating hybrid
  /// waiting time (§VI-A1). Separated-store engines suffer less (the row
  /// store at least holds rows contiguously).
  double txn_analytical_scan_penalty = 1.0;
  /// Columnar replica block encoding: sealed blocks compress each column
  /// (string dictionary, integer RLE / bit-packing, flat arrays) and carry
  /// min/max zone maps. Off keeps sealed blocks as boxed raw values — scan
  /// results and block skipping are identical either way (zone maps are
  /// always built); the exec parity suite sweeps both settings.
  bool columnar_encoding = true;
  /// Stand-alone analytical SELECTs routed to the replica run on the
  /// vectorized columnar engine (src/exec/), its only executor; a plan the
  /// engine cannot lower (a non-equi join) or refuses at run time runs on
  /// the row store instead.
  ///
  /// Deterministic cost-based routing: an index-backed single-table SELECT
  /// runs on the row store when its estimated cost beats a full replica
  /// sweep (the replica keeps no ordered index). Complements the stochastic
  /// olap_row_fraction model above.
  bool cost_based_routing = true;
  /// Intra-query parallelism for the vectorized columnar engine: execution
  /// lanes (including the calling session thread) that claim morsels of a
  /// pinned replica scan. 0 or 1 keeps the current serial path; values > 1
  /// make engine::Database own a shared exec::WorkerPool of
  /// exec_threads - 1 workers. The OLXP_EXEC_THREADS environment variable
  /// overrides this at Database construction (CI runs the whole test suite
  /// with a pool this way).
  int exec_threads = 1;
  /// Slots per claimed morsel (work-stealing granularity). Rounded up to a
  /// whole number of vector chunks; smaller = better load balance, larger =
  /// less dispatch overhead.
  size_t morsel_rows = 4096;
  /// The paper ships two schema variants because MemSQL lacks FK support;
  /// profiles therefore choose whether FKs are enforced.
  bool enforce_foreign_keys = false;
  /// Per-session prepared-statement cache bound (LRU eviction). Ad-hoc SQL
  /// with inlined literals would otherwise grow a long-lived session's
  /// cache without limit. 0 disables the bound (unbounded cache).
  size_t prepared_statement_cache_capacity = 256;
  /// Row-lock wait deadline before a retryable LockTimeout abort.
  int64_t lock_timeout_micros = 100000;
  /// Background MVCC vacuum pass period. The vacuum thread computes the
  /// active-snapshot watermark (open transactions, checkpoint writer,
  /// replicator apply frontier) and reclaims version chains, dead
  /// tombstone rows, and stale secondary-index entries below it — the
  /// continuous garbage collection a sustained hybrid run needs to keep
  /// memory bounded. <= 0 disables the thread (Database::RunVacuum() still
  /// runs synchronous passes).
  int64_t vacuum_interval_us = 50000;
  /// Rows each vacuum chunk examines under one exclusive table latch
  /// before dropping it (bounds committer stalls behind the vacuum).
  size_t vacuum_batch_rows = 512;
  /// Minimum wall-clock age of MVCC history before the vacuum may reclaim
  /// it, independent of live snapshots (0 = reclaim as soon as unneeded).
  int64_t gc_history_us = 0;
  /// Rows a table scan visits per shared-latch chunk before dropping the
  /// latch so committers can interleave (the §V-B interference path:
  /// a whole-sweep latch hold stalls every InstallVersion behind an
  /// analytical scan). 0 = hold the latch for the whole sweep (the
  /// pre-chunking behaviour, kept for before/after ablations).
  size_t scan_chunk_rows = 1024;
  /// Commit durability: kOff keeps the redo log in memory only (the seed
  /// behaviour — a restart loses the database); the other modes persist
  /// every commit to WAL segments under `wal_dir` and recover from them
  /// when a Database opens on that directory. kGroup batches concurrent
  /// commits under one fsync (the paper's SUTs all group-commit their
  /// raft/redo logs); kSync is the naive fsync-per-commit baseline; kAsync
  /// writes behind without waiting. Requires a non-empty wal_dir.
  storage::DurabilityMode durability = storage::DurabilityMode::kOff;
  /// Group-commit batching window: how long the log flusher holds a batch
  /// open for stragglers before the covering fsync.
  int64_t group_commit_window_us = 100;
  /// WAL segment + checkpoint directory. Opening a Database with a
  /// durability mode on and this set to a directory containing WAL state
  /// recovers it (crash recovery); empty disables the durable log.
  std::string wal_dir;
  /// Segment rotation threshold; Checkpoint() deletes fully-covered
  /// segments so disk stays bounded during long runs.
  uint64_t wal_segment_bytes = 16ull << 20;
  /// Per-query tracing (EXPLAIN ANALYZE capture). 0 = off (no timing calls
  /// on the execution hot path); >= 1 captures per-operator row counts and
  /// wall times for every statement into Session::last_trace(). Sessions
  /// can override per-connection via Session::set_trace_level(). The
  /// `EXPLAIN ANALYZE <stmt>` prefix always traces, regardless of level.
  int trace_level = 0;
  /// Statements whose wall clock meets this threshold land in the
  /// database's slow-query ring (Database::slow_query_log(), surfaced by
  /// StatsJson()). 0 disables the log.
  int64_t slow_query_threshold_us = 0;
  /// Entries the slow-query ring retains (oldest evicted first).
  size_t slow_query_log_capacity = 64;

  /// In-memory unified store, read-committed, no FK support — MemSQL-style.
  static EngineProfile MemSqlLike();
  /// SSD row store + columnar replica + async replication, snapshot
  /// isolation (repeatable read) — TiDB-style.
  static EngineProfile TiDbLike();
  /// Shared-nothing unified store with SI and steeper coordination
  /// scaling — OceanBase-style (used by the Fig. 10 bench only).
  static EngineProfile OceanBaseLike();

  /// Preset lookup by name ("memsql-like", "tidb-like", "oceanbase-like").
  static StatusOr<EngineProfile> ByName(std::string_view name);
};

}  // namespace olxp::engine

#endif  // OLXP_ENGINE_PROFILE_H_
