#ifndef OLXP_EXEC_VECTORIZED_H_
#define OLXP_EXEC_VECTORIZED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "sql/executor.h"
#include "sql/storage_iface.h"
#include "storage/column_store.h"

/// Vectorized columnar execution engine. Analytical SELECTs lowered from
/// the bound plan run here column-at-a-time over the replica's raw column
/// vectors: chunked scan -> vectorized filters -> hash joins (build from
/// the smaller side, probe batch-at-a-time) -> projection / hash
/// aggregation -> order / limit, skipping the interpreter's per-row Row
/// materialization and expression walks. It is the only executor on the
/// replica: the engine::Session router sends a statement there only when
/// PlanShape::vectorizable holds, and anything else (non-equi joins, or a
/// run-time refusal such as a mixed-type CASE) runs on the row store.
/// Uncorrelated subqueries run first, through this engine, before any
/// table is pinned: a scalar subquery becomes a literal and an IN
/// subquery a hashed member set.
///
/// Every replica sweep (the single-table scan, the join stream and each
/// hash-join build) runs through one morsel-driven scan driver: execution
/// lanes claim fixed-size morsels of the pinned table and run the scan ->
/// filter -> sink (or hash-join probe) pipeline independently. The lanes
/// come from the WorkerPool (profile knob exec_threads). One lane is the
/// serial scan: it claims every morsel in scan order into one sink state
/// and stops at the chunk where an early-stop LIMIT is met. Early-stop
/// plans and hash-join builds always take one lane. More lanes combine
/// their work one of two ways, so output rows, group creation order and
/// group-representative tuples reproduce the one-lane scan bit for bit:
///  - per-morsel partials: each morsel fills its own partial state and the
///    partials merge in morsel order on the calling thread (projections,
///    global and low-cardinality aggregates, every hash-join plan);
///  - radix-partitioned (single-table GROUP BY whose first morsel makes
///    more than one group per 8 selected rows): lanes split each chunk's
///    selected rows by key partition, then claim partitions and aggregate
///    each in scan order, so every group sees its rows in scan order.
/// The shared build table is immutable during the probe fan-out.

namespace olxp::exec {

class WorkerPool;

/// Rows per scan chunk: large enough to amortize dispatch, small enough to
/// keep a chunk's working vectors cache-resident.
inline constexpr size_t kVecChunkRows = 1024;

/// Static plan summary consumed by the engine's cost-based router.
struct PlanShape {
  /// The vectorized engine can lower the plan: every non-driver table is
  /// linked to the tables joined before it by an equi-join conjunct
  /// (hash-joinable), and every subquery's plan is vectorizable in turn.
  bool vectorizable = false;
  /// The row store serves the plan by seeks: the driving step has an
  /// index-backed access path, and so does every join step after it. The
  /// replica keeps no ordered index and sweeps instead, so only these
  /// shapes are worth a cost comparison.
  bool seek_driven = false;
  /// Tables read by the plan, in join order (empty for non-SELECTs).
  std::vector<int> table_ids;
};

PlanShape InspectPlan(const sql::CompiledStatement& stmt);

/// Access accounting for the latency model: what execution reports, or
/// what EstimateReplicaWork predicts. engine::ReplicaCostNs prices either.
struct VecExecStats {
  int64_t rows_scanned = 0;  ///< live rows visited on the replica (all scans)
  /// Subset of rows_scanned visited by the DRIVING scan (the single-table
  /// sweep or the join's stream side) — the part the morsel fan-out
  /// overlaps across lanes. The remainder (hash-join build-side sweeps)
  /// runs on one lane and is charged undivided.
  int64_t rows_scanned_driver = 0;
  int64_t rows_built = 0;    ///< rows materialized into join hash tables
  int64_t rows_joined = 0;   ///< joined tuples emitted by probe stages
  /// Execution lanes the driving scan actually engaged. The
  /// latency model divides the driving scan and probe by the effective
  /// parallel speedup derived from this.
  int lanes_used = 1;
  /// Chunk-sized blocks the driving scan read vs. skipped outright via
  /// zone maps (sealed blocks whose min/max refute a filter conjunct).
  int64_t blocks_scanned = 0;
  int64_t blocks_skipped = 0;
};

/// Execution-environment knobs (the plan-independent half of the profile).
struct VecExecOptions {
  /// Worker pool whose lanes claim the morsels of every scan; the engine
  /// passes its Database's. nullptr runs every scan on one lane, inline,
  /// as WorkerPool(1) does. Plans whose scan can stop early (LIMIT without
  /// ORDER BY / DISTINCT / aggregation) take one lane regardless — early
  /// exit beats a full parallel sweep.
  WorkerPool* pool = nullptr;
  /// Slots per claimed morsel; rounded up to a multiple of kVecChunkRows so
  /// every lane count evaluates the same chunks (chunk boundaries are
  /// visible to per-chunk vector typing).
  size_t morsel_rows = 4096;
  /// EXPLAIN ANALYZE capture: when non-null, per-operator row counts and
  /// wall times are appended (summed over lanes). Timing
  /// calls are fully skipped when null, so the untraced hot path pays only
  /// a predictable branch per chunk.
  obs::QueryTrace* trace = nullptr;
  /// Optional counter bumped once per morsel a lane claimed, build sweeps
  /// included (exec.morsels_dispatched).
  obs::Counter* morsel_counter = nullptr;
  /// Optional counter bumped once per execution whose GROUP BY took the
  /// radix-partitioned combine (exec.agg.partitioned).
  obs::Counter* partitioned_counter = nullptr;
};

/// Executes a vectorizable SELECT against the columnar replica. The result
/// is identical to the row-store interpreter's at the same snapshot (the
/// parity suite in tests/exec_test.cc enforces this, at every exec_threads
/// setting). Returns Unsupported for constructs detected only at
/// lowering/evaluation time and NotFound when a table has no replica; the
/// session then re-runs the statement on the row store.
StatusOr<sql::ResultSet> ExecuteVectorized(const sql::CompiledStatement& stmt,
                                           std::span<const Value> params,
                                           const storage::ColumnStore& store,
                                           const VecExecOptions& opts,
                                           VecExecStats* stats);

/// The work ExecuteVectorized would bill for this statement, estimated
/// without running it, through the helpers execution itself calls: the
/// same stream side for a join, the same lane clamp for the fan-out, and
/// the zone-map skip mask of the pinned driving table. rows_scanned_driver
/// counts the live rows of the chunks the mask keeps; build sides count
/// every live row, all of them built (no build-side filter or NULL key is
/// assumed to drop any); one joined tuple is assumed per streamed row. A
/// plan whose scan stops early at LIMIT is estimated as the full sweep,
/// and subqueries are not estimated. Returns zeros for a statement
/// the replica cannot run.
VecExecStats EstimateReplicaWork(const sql::CompiledStatement& stmt,
                                 std::span<const Value> params,
                                 const storage::ColumnStore& store,
                                 const VecExecOptions& opts);

}  // namespace olxp::exec

#endif  // OLXP_EXEC_VECTORIZED_H_
