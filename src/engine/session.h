#ifndef OLXP_ENGINE_SESSION_H_
#define OLXP_ENGINE_SESSION_H_

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "exec/vectorized.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "sql/executor.h"
#include "txn/transaction.h"

namespace olxp::engine {

class Database;

/// Where a statement executed (for diagnostics and tests).
enum class RoutedStore { kRowStore, kColumnStore };

/// Per-statement access accounting feeding the latency model.
struct AccessStats {
  int64_t row_seeks = 0;
  int64_t row_rows = 0;   ///< rows visited on the row store
  int64_t writes = 0;
  /// Contention-weighted cost units: raw counts inflated by the number of
  /// analytical scans concurrently sweeping the same table (buffer/latch
  /// pressure model). The latency model charges these, not the raw counts.
  double seek_cost = 0;
  double row_cost = 0;
};

/// A client connection: prepared-statement cache, optional open transaction,
/// store routing, and simulated-latency charging. One session per thread;
/// not thread-safe (like a JDBC connection).
///
/// Routing reproduces the paper's engines: a statement inside an explicit
/// transaction is pinned to the row store (the engine "can only choose one
/// store for a hybrid transaction"); stand-alone analytical SELECTs route to
/// the columnar replica on separated architectures.
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses (cached), compiles (cached), routes and executes one statement.
  /// Auto-commits when no transaction is open. Retryable failures
  /// (Conflict/LockTimeout) abort any open transaction.
  ///
  /// `EXPLAIN ANALYZE <stmt>` executes the inner statement normally (same
  /// routing, same side effects) and returns the per-operator trace as a
  /// one-column result set instead of the statement's rows; the raw capture
  /// stays available via last_trace().
  StatusOr<sql::ResultSet> Execute(const std::string& sql,
                                   std::span<const Value> params = {});

  /// Convenience without params.
  StatusOr<sql::ResultSet> Execute(const std::string& sql,
                                   std::initializer_list<Value> params) {
    return Execute(sql, std::span<const Value>(params.begin(), params.end()));
  }

  /// Explicit transaction control (used by OLTP and hybrid agents).
  Status Begin();
  Status Commit();
  Status Rollback();
  bool InTransaction() const { return txn_ != nullptr; }

  /// Store that served the most recent statement. The replica's only
  /// executor is the vectorized engine; the row store's is the interpreter.
  RoutedStore last_route() const { return last_route_; }

  /// Replication watermark the most recent column-store statement executed
  /// "as of" (0 if no statement has routed to the replica yet).
  uint64_t last_snapshot_ts() const { return last_snapshot_ts_; }

  /// Total simulated microseconds charged to this session so far.
  int64_t charged_micros() const { return charged_micros_; }

  /// Per-connection tracing override (initialized from the profile's
  /// trace_level). Level >= 1 captures a QueryTrace for every statement;
  /// 0 disables capture (no timing calls on the execution path).
  void set_trace_level(int level) { trace_level_ = level; }
  int trace_level() const { return trace_level_; }

  /// Capture for the most recent traced statement (empty — no ops — when
  /// tracing was off for the last statement).
  const obs::QueryTrace& last_trace() const { return last_trace_; }

  /// Prepared statements currently cached (bounded by the profile's
  /// prepared_statement_cache_capacity; diagnostics and tests).
  size_t prepared_cache_size() const { return cache_.size(); }

  /// When false, the session skips SleepMicros charging (unit tests run at
  /// full speed; benches keep it on).
  void set_charging_enabled(bool on) { charging_enabled_ = on; }

  Database* database() { return db_; }

  /// Internal: charges simulated time immediately. Used by the storage
  /// wrappers so a scan's simulated duration elapses while its per-table
  /// pressure marker is still held (making interference observable).
  void InlineCharge(int64_t micros);

  /// Internal: accumulates deferred simulated time; one sleep per
  /// transaction (or auto-commit statement) instead of one per statement —
  /// OS sleep granularity would otherwise tax cheap statements far more
  /// than expensive ones.
  void DeferCharge(int64_t micros);
  /// Sleeps off the accumulated deferred charge.
  void FlushCharge();

 private:
  friend class Database;
  /// `ordinal` numbers the sessions of one Database in open order; it seeds
  /// the stochastic router, so a statement stream routes the same way from
  /// run to run.
  Session(Database* db, uint64_t ordinal);

  struct Prepared {
    std::unique_ptr<sql::CompiledStatement> compiled;
    /// Router inputs derived once at prepare time (immutable per plan).
    exec::PlanShape shape;
    /// Database::schema_version() the plan was compiled against. A cache
    /// hit with a stale version recompiles: DDL (e.g. CREATE INDEX) can
    /// change both the chosen access path and the PlanShape the router
    /// costs against.
    uint64_t schema_version = 0;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_it;
  };

  StatusOr<const Prepared*> Prepare(const std::string& sql);

  /// The routing + execution body of Execute (everything but the statement
  /// wall clock, trace bookkeeping and slow-query admission, which the
  /// public wrapper owns). `trace` is null when tracing is off.
  StatusOr<sql::ResultSet> ExecuteRouted(const std::string& sql,
                                         std::span<const Value> params,
                                         obs::QueryTrace* trace);

  /// Charges the simulated cost of the statement just executed.
  void ChargeStatement(const AccessStats& stats);
  void ChargeCommit(int64_t writes);

  Database* db_;
  uint64_t route_rng_state_;  ///< cheap LCG for the OLAP routing fraction
  std::unique_ptr<txn::Transaction> txn_;
  /// Prepared-statement cache with LRU eviction (lru_ front = most recent);
  /// bounded by profile().prepared_statement_cache_capacity.
  std::unordered_map<std::string, Prepared> cache_;
  std::list<std::string> lru_;
  RoutedStore last_route_ = RoutedStore::kRowStore;
  uint64_t last_snapshot_ts_ = 0;
  int64_t charged_micros_ = 0;
  int64_t pending_charge_micros_ = 0;
  int64_t txn_writes_ = 0;  ///< writes buffered in the open transaction
  bool charging_enabled_ = true;
  int trace_level_ = 0;  ///< seeded from profile().trace_level at open
  obs::QueryTrace last_trace_;
  // Metric handles resolved once at session open (stable pointers into the
  // database's registry; hot paths never touch the name map).
  obs::Counter* m_statements_ = nullptr;
  obs::Counter* m_route_col_vec_ = nullptr;
  obs::Counter* m_route_row_ = nullptr;
  obs::Counter* m_replica_unsupported_ = nullptr;
  obs::Counter* m_cost_override_ = nullptr;
  obs::Counter* m_stoch_override_ = nullptr;
  obs::Counter* m_morsels_ = nullptr;
  obs::Counter* m_agg_partitioned_ = nullptr;
  obs::Counter* m_slow_ = nullptr;
  obs::Histogram* m_statement_us_ = nullptr;
  obs::Histogram* m_residual_pct_ = nullptr;
};

}  // namespace olxp::engine

#endif  // OLXP_ENGINE_SESSION_H_
