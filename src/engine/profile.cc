#include "engine/profile.h"

#include "common/strings.h"

namespace olxp::engine {

EngineProfile EngineProfile::MemSqlLike() {
  EngineProfile p;
  p.name = "memsql-like";
  p.architecture = StoreArchitecture::kUnified;
  p.isolation = txn::IsolationLevel::kReadCommitted;
  // Memory-resident: cheap seeks/scans, local commit. OLAP shares the row
  // store, so scan contention bites hard (the paper's interference story).
  p.latency.row_seek_ns = 4000;
  p.latency.row_scan_row_ns = 400;
  p.latency.row_analytic_scan_row_ns = 12000;
  p.latency.write_ns = 800;
  p.latency.commit_base_ns = 200000;   // 2PC aggregator -> leaves
  p.latency.statement_overhead_ns = 20000;  // aggregator network hop
  p.latency.scan_contention = 2.5;
  p.cluster.commit_scale_per_doubling = 0.30;
  p.cluster.read_scale_per_doubling = 0.15;
  p.txn_analytical_scan_penalty = 45.0;  // vertical-table joins in hybrids
  p.lock_timeout_micros = 15000;  // fast timeout-based deadlock breaking
  p.enforce_foreign_keys = false;  // MemSQL has no FK support
  return p;
}

EngineProfile EngineProfile::TiDbLike() {
  EngineProfile p;
  p.name = "tidb-like";
  p.architecture = StoreArchitecture::kSeparated;
  p.isolation = txn::IsolationLevel::kSnapshotIsolation;  // repeatable read
  // SSD-resident TiKV: expensive random seeks; raft-quorum commits across
  // the network; TiFlash replica scans are cheap per row and do not touch
  // row-store locks.
  p.latency.row_seek_ns = 55000;
  p.latency.row_scan_row_ns = 2500;
  p.latency.row_analytic_scan_row_ns = 60000;
  p.latency.col_vector_row_ns = 1800;  // TiFlash-style batch execution
  p.latency.col_join_build_row_ns = 2200;  // hash-table insert per build row
  p.latency.col_join_row_ns = 2600;        // per joined tuple materialized
  p.latency.write_ns = 2500;
  p.latency.commit_base_ns = 450000;
  p.latency.statement_overhead_ns = 35000;
  p.latency.scan_contention = 5.0;
  p.txn_analytical_scan_penalty = 2.4;
  p.cluster.commit_scale_per_doubling = 0.55;
  p.cluster.read_scale_per_doubling = 0.35;
  p.replication_lag_micros = 20000;
  p.olap_row_fraction = 0.65;
  p.enforce_foreign_keys = true;
  return p;
}

EngineProfile EngineProfile::OceanBaseLike() {
  EngineProfile p;
  p.name = "oceanbase-like";
  p.architecture = StoreArchitecture::kUnified;
  p.isolation = txn::IsolationLevel::kSnapshotIsolation;
  p.latency.row_seek_ns = 45000;
  p.latency.row_scan_row_ns = 2000;
  p.latency.row_analytic_scan_row_ns = 40000;
  p.latency.write_ns = 2200;
  p.latency.commit_base_ns = 380000;
  p.latency.statement_overhead_ns = 30000;
  p.latency.scan_contention = 4.0;
  p.txn_analytical_scan_penalty = 3.0;
  // Shared-nothing without a decoupled analytical store scales worse under
  // mixed load (Fig. 10 contrast).
  p.cluster.commit_scale_per_doubling = 0.75;
  p.cluster.read_scale_per_doubling = 0.5;
  p.lock_timeout_micros = 20000;
  p.enforce_foreign_keys = true;
  return p;
}

StatusOr<EngineProfile> EngineProfile::ByName(std::string_view name) {
  std::string n = ToLower(name);
  if (n == "memsql-like" || n == "memsql") return MemSqlLike();
  if (n == "tidb-like" || n == "tidb") return TiDbLike();
  if (n == "oceanbase-like" || n == "oceanbase") return OceanBaseLike();
  return Status::InvalidArgument("unknown engine profile: " +
                                 std::string(name));
}

}  // namespace olxp::engine
