#include "engine/session.h"

#include <cassert>
#include <cctype>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/clock.h"
#include "engine/database.h"
#include "exec/vectorized.h"
#include "sql/parser.h"

namespace olxp::engine {

namespace {

/// StorageIface over the transactional row store. Forwards reads/writes to
/// a Transaction and accounts access costs. FK enforcement happens here when
/// the profile asks for it.
class TxnStorage : public sql::StorageIface {
 public:
  /// `standalone_analytical`: the statement is an analytical-shaped SELECT
  /// running outside any explicit transaction (a true OLAP statement that
  /// the optimizer sent to the row store). Its reads use the expensive
  /// analytic per-row rate and hold per-table pressure markers for their
  /// whole simulated duration. `scan_penalty` applies instead when the
  /// statement is an analytical-shaped SELECT INSIDE a transaction (the
  /// hybrid real-time query; §VI-A1 vertical-partitioning effect).
  TxnStorage(Database* db, txn::Transaction* txn, AccessStats* stats,
             Session* session, bool standalone_analytical,
             double scan_penalty)
      : db_(db),
        txn_(txn),
        stats_(stats),
        session_(session),
        standalone_analytical_(standalone_analytical),
        scan_penalty_(scan_penalty) {}

  StatusOr<int> TableId(std::string_view name) const override {
    return db_->TableId(name);
  }
  const storage::TableSchema& GetSchema(int table_id) const override {
    return db_->GetSchema(table_id);
  }

  Status ScanTable(int table_id, const RowCallback& cb) override {
    ScanMarker marker(this, table_id);
    int64_t visited = 0;
    Status st = txn_->Scan(table_id, cb, &visited);
    stats_->row_rows += visited;
    const LatencyModel& m = db_->profile().latency;
    const double ns =
        standalone_analytical_
            ? RowReadCostNs(0, static_cast<double>(visited), m)
            : static_cast<double>(visited) *
                  (static_cast<double>(m.row_scan_row_ns) * scan_penalty_);
    // Charge the scan's simulated duration while the pressure marker is
    // held so concurrent operations on this table observe it. Scans slow
    // each other sublinearly (bandwidth sharing).
    session_->InlineCharge(
        static_cast<int64_t>(ns * marker.SelfPressure() / 1000.0));
    return st;
  }

  Status ScanPkRange(int table_id, const Row& lo, const Row& hi,
                     const RowCallback& cb) override {
    int64_t visited = 0;
    Status st = txn_->ScanPkRange(table_id, lo, hi, cb, &visited);
    ChargeRead(table_id, 1, visited);
    return st;
  }

  Status IndexLookup(int table_id, int index_id, const Row& key,
                     std::vector<Row>* out) override {
    int64_t visited = 0;
    Status st = txn_->IndexLookup(table_id, index_id, key, out, &visited);
    ChargeRead(table_id, 1, visited);
    return st;
  }

  StatusOr<std::optional<Row>> GetByPk(int table_id, const Row& pk) override {
    ChargeRead(table_id, 1, 1);
    return txn_->Get(table_id, pk);
  }

  StatusOr<std::optional<Row>> LockAndGet(int table_id,
                                          const Row& pk) override {
    ChargeRead(table_id, 1, 1);
    return txn_->LockAndGet(table_id, pk);
  }

  Status Insert(int table_id, Row row) override {
    if (db_->profile().enforce_foreign_keys) {
      OLXP_RETURN_NOT_OK(CheckForeignKeys(table_id, row));
    }
    ChargeWrite(table_id);
    return txn_->Insert(table_id, std::move(row));
  }
  Status Update(int table_id, Row row) override {
    ChargeWrite(table_id);
    return txn_->Update(table_id, std::move(row));
  }
  Status Delete(int table_id, const Row& pk) override {
    ChargeWrite(table_id);
    return txn_->Delete(table_id, pk);
  }

  Status CreateTable(storage::TableSchema schema) override {
    return db_->CreateTableEverywhere(std::move(schema));
  }
  Status CreateIndex(std::string_view table_name,
                     storage::IndexDef def) override {
    return db_->CreateIndexOn(table_name, std::move(def));
  }

 private:
  /// RAII pressure marker on one table (row-store side).
  class ScanMarker {
   public:
    ScanMarker(TxnStorage* owner, int table_id) : owner_(owner) {
      table_ = owner_->db_->row_store().table(table_id);
      if (table_ != nullptr) {
        others_ = table_->active_scans().fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    ~ScanMarker() {
      if (table_ != nullptr) {
        table_->active_scans().fetch_sub(1, std::memory_order_relaxed);
      }
    }
    /// Sublinear scan-on-scan slowdown (bandwidth sharing). Applies to
    /// standalone analytical scans only; in-transaction real-time reads
    /// are small aggregates that do not saturate scan bandwidth.
    double SelfPressure() const {
      if (!owner_->standalone_analytical_) return 1.0;
      double f = owner_->db_->profile().latency.scan_contention;
      return 1.0 + 0.15 * f * others_;
    }

   private:
    TxnStorage* owner_;
    storage::MvccTable* table_ = nullptr;
    int others_ = 0;
  };

  /// Pressure multiplier OLTP-sized operations observe from analytical
  /// scans sweeping the same table.
  double Pressure(int table_id) const {
    const storage::MvccTable* t = db_->row_store().table(table_id);
    int scans = t == nullptr ? 0 : t->active_scan_count();
    return 1.0 + db_->profile().latency.scan_contention * scans;
  }

  /// Writes into a table under analytical scan pressure pay extra latch /
  /// MVCC-install cost (a seek-equivalent per pressure unit).
  void ChargeWrite(int table_id) {
    stats_->writes += 1;
    double pressure = Pressure(table_id);
    if (pressure > 1.0) stats_->seek_cost += pressure - 1.0;
  }

  /// Accounts one seek + `rows` visited. Standalone analytical statements
  /// charge inline under a pressure marker at the analytic rate; OLTP
  /// statements accumulate weighted costs charged at statement end.
  void ChargeRead(int table_id, int64_t seeks, int64_t rows) {
    const LatencyModel& m = db_->profile().latency;
    stats_->row_seeks += seeks;
    stats_->row_rows += rows;
    if (standalone_analytical_) {
      ScanMarker marker(this, table_id);
      const double ns = RowReadCostNs(static_cast<double>(seeks),
                                      static_cast<double>(rows), m);
      session_->InlineCharge(
          static_cast<int64_t>(ns * marker.SelfPressure() / 1000.0));
      return;
    }
    double pressure = Pressure(table_id);
    stats_->seek_cost += static_cast<double>(seeks) * pressure;
    stats_->row_cost +=
        static_cast<double>(rows) * pressure * scan_penalty_;
  }

  Status CheckForeignKeys(int table_id, const Row& row) {
    const storage::TableSchema& schema = db_->GetSchema(table_id);
    for (const storage::ForeignKeyDef& fk : schema.foreign_keys()) {
      auto rid = db_->TableId(fk.ref_table);
      if (!rid.ok()) continue;  // resolved at DDL; defensive
      Row key;
      key.reserve(fk.column_idx.size());
      bool any_null = false;
      for (int c : fk.column_idx) {
        if (row[c].is_null()) {
          any_null = true;
          break;
        }
        key.push_back(row[c]);
      }
      if (any_null) continue;  // NULL FK values are not checked
      stats_->row_seeks += 1;
      stats_->seek_cost += 1;
      auto parent = txn_->Get(*rid, key);
      if (!parent.ok()) return parent.status();
      if (!parent->has_value()) {
        return Status::InvalidArgument("foreign key violation: " +
                                       schema.name() + " -> " + fk.ref_table);
      }
    }
    return Status::OK();
  }

  Database* db_;
  txn::Transaction* txn_;
  AccessStats* stats_;
  Session* session_;
  bool standalone_analytical_;
  double scan_penalty_;
};

/// Matches (case-insensitively) an `EXPLAIN ANALYZE ` prefix and returns the
/// inner statement text, or false when the SQL is a plain statement.
bool StripExplainAnalyze(const std::string& sql, std::string* inner) {
  auto skip_spaces = [&](size_t i) {
    while (i < sql.size() &&
           std::isspace(static_cast<unsigned char>(sql[i]))) {
      ++i;
    }
    return i;
  };
  auto match_word = [&](size_t i, std::string_view word) -> size_t {
    if (sql.size() - i < word.size()) return std::string::npos;
    for (size_t k = 0; k < word.size(); ++k) {
      if (std::toupper(static_cast<unsigned char>(sql[i + k])) != word[k]) {
        return std::string::npos;
      }
    }
    const size_t end = i + word.size();
    // Must be followed by whitespace (EXPLAINANALYZE is not a keyword).
    if (end >= sql.size() ||
        !std::isspace(static_cast<unsigned char>(sql[end]))) {
      return std::string::npos;
    }
    return end;
  };
  size_t i = skip_spaces(0);
  i = match_word(i, "EXPLAIN");
  if (i == std::string::npos) return false;
  i = match_word(skip_spaces(i), "ANALYZE");
  if (i == std::string::npos) return false;
  i = skip_spaces(i);
  if (i >= sql.size()) return false;  // nothing to explain
  *inner = sql.substr(i);
  return true;
}

/// Renders a completed capture as the one-column result set EXPLAIN ANALYZE
/// returns (one row per rendered line).
sql::ResultSet RenderTrace(const obs::QueryTrace& trace) {
  sql::ResultSet rs;
  rs.column_names = {"EXPLAIN ANALYZE"};
  const std::string text = trace.ToString();
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) {
      rs.rows.push_back({Value::String(text.substr(start, end - start))});
    }
    start = end + 1;
  }
  return rs;
}

}  // namespace

Session::Session(Database* db, uint64_t ordinal)
    : db_(db),
      route_rng_state_(0x9e3779b97f4a7c15ULL * (ordinal + 1)),
      trace_level_(db->profile().trace_level) {
  obs::MetricsRegistry& m = db->metrics();
  m_statements_ = m.GetCounter("session.statements");
  m_route_col_vec_ = m.GetCounter("router.route.column_vectorized");
  m_route_row_ = m.GetCounter("router.route.row");
  m_replica_unsupported_ = m.GetCounter("router.replica_unsupported_to_row");
  m_cost_override_ = m.GetCounter("router.cost_overrides_to_row");
  m_stoch_override_ = m.GetCounter("router.stochastic_overrides_to_row");
  m_morsels_ = m.GetCounter("exec.morsels_dispatched");
  m_agg_partitioned_ = m.GetCounter("exec.agg.partitioned");
  m_slow_ = m.GetCounter("session.slow_queries");
  m_statement_us_ = m.GetHistogram("session.statement_us");
  m_residual_pct_ = m.GetHistogram("router.cost_residual_pct");
}

Session::~Session() {
  // Abort's Status is unreportable from a destructor; the abort path itself
  // is infallible on the storage side (locks and snapshot always release).
  if (txn_) (void)txn_->Abort();
}

StatusOr<const Session::Prepared*> Session::Prepare(
    const std::string& sql_text) {
  auto it = cache_.find(sql_text);
  if (it != cache_.end()) {
    if (it->second.schema_version == db_->schema_version()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return &it->second;
    }
    // DDL landed since this plan compiled: drop it and re-prepare below so
    // neither the access path nor the router's PlanShape goes stale.
    lru_.erase(it->second.lru_it);
    cache_.erase(it);
  }
  // Stamp before compiling: DDL racing the compile leaves the entry with an
  // older version, forcing a recompile on the next hit instead of silently
  // serving a half-fresh plan.
  const uint64_t version = db_->schema_version();
  auto parsed = sql::Parse(sql_text);
  if (!parsed.ok()) return parsed.status();
  auto compiled = sql::Compile(*parsed, *db_);
  if (!compiled.ok()) return compiled.status();
  Prepared p;
  p.compiled = std::move(compiled).value();
  p.shape = exec::InspectPlan(*p.compiled);
  p.schema_version = version;
  // Bounded cache: evict least-recently-used plans before inserting so
  // ad-hoc SQL (inlined literals) cannot grow a long-lived session without
  // limit. The new entry is inserted after eviction and is never evicted
  // here, so the returned pointer stays valid for the whole Execute.
  const size_t cap = db_->profile().prepared_statement_cache_capacity;
  if (cap > 0) {
    while (cache_.size() >= cap && !lru_.empty()) {
      cache_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  lru_.push_front(sql_text);
  p.lru_it = lru_.begin();
  return &cache_.emplace(sql_text, std::move(p)).first->second;
}

StatusOr<sql::ResultSet> Session::Execute(const std::string& sql_text,
                                          std::span<const Value> params) {
  std::string inner;
  const bool explain = StripExplainAnalyze(sql_text, &inner);
  const std::string& effective = explain ? inner : sql_text;
  const bool tracing = explain || trace_level_ > 0;
  obs::QueryTrace* trace = nullptr;
  if (tracing) {
    last_trace_.Clear();
    last_trace_.sql = effective;
    last_trace_.level = std::max(trace_level_, 1);
    trace = &last_trace_;
  }
  const int64_t wall_t0 = NowMicros();
  const int64_t charged_before = charged_micros_;

  // A statement that fails to prepare reaches no store: it is counted and
  // timed, but under no route and with no route label.
  auto prepared = Prepare(effective);
  auto rs = prepared.ok() ? ExecuteRouted(**prepared, params, trace)
                          : StatusOr<sql::ResultSet>(prepared.status());

  const int64_t wall_us = NowMicros() - wall_t0;
  m_statements_->Add(1);
  m_statement_us_->Record(wall_us);
  const int64_t actual_us = charged_micros_ - charged_before;
  const char* route = "";
  if (prepared.ok()) {
    const bool on_replica = last_route_ == RoutedStore::kColumnStore;
    (on_replica ? m_route_col_vec_ : m_route_row_)->Add(1);
    route = on_replica ? "column/vectorized" : "row/interpreter";
  }
  if (tracing) {
    last_trace_.route = route;
    last_trace_.total_us = wall_us;
  }
  const int64_t threshold = db_->profile().slow_query_threshold_us;
  if (threshold > 0 && wall_us >= threshold) {
    obs::SlowQueryEntry entry;
    entry.sql = effective;
    entry.route = route;
    entry.wall_us = wall_us;
    entry.charged_us = actual_us;
    db_->slow_query_log().Add(std::move(entry));
    m_slow_->Add(1);
  }
  if (explain && rs.ok()) return RenderTrace(last_trace_);
  return rs;
}

StatusOr<sql::ResultSet> Session::ExecuteRouted(const Prepared& prepared,
                                                std::span<const Value> params,
                                                obs::QueryTrace* trace) {
  const sql::CompiledStatement& stmt = *prepared.compiled;
  const exec::PlanShape& shape = prepared.shape;

  AccessStats stats;
  const bool in_txn = txn_ != nullptr;
  bool route_to_column =
      !in_txn && stmt.IsSelect() && !stmt.IsPointRead() &&
      db_->profile().architecture == StoreArchitecture::kSeparated;
  if (route_to_column && db_->profile().olap_row_fraction > 0) {
    // Cost-based optimizer model: a fraction of analytical statements run
    // on the row store even when a columnar replica exists.
    route_rng_state_ = route_rng_state_ * 6364136223846793005ULL +
                       1442695040888963407ULL;
    double u = static_cast<double>(route_rng_state_ >> 11) *
               (1.0 / 9007199254740992.0);
    if (u < db_->profile().olap_row_fraction) {
      route_to_column = false;
      m_stoch_override_->Add(1);
    }
  }
  if (route_to_column && !shape.vectorizable) {
    // The replica has one executor: a plan it cannot lower (a non-equi
    // join) runs on the row store. Checked after the draw, so the draws a
    // statement stream consumes do not depend on plan shapes.
    route_to_column = false;
    m_replica_unsupported_->Add(1);
  }

  // Each side of the cost comparison is priced by the function that bills
  // its execution, on estimated counts here and on actual counts after the
  // run. The residual between the two samples router.cost_residual_pct.
  const LatencyModel& m = db_->profile().latency;
  const auto record_residual = [this](double predicted_ns, double actual_ns) {
    m_residual_pct_->Record(static_cast<int64_t>(
        std::abs(actual_ns - predicted_ns) * 100.0 /
        std::max(predicted_ns, 1.0)));
  };
  exec::VecExecOptions vopts;
  vopts.pool = db_->exec_pool();
  vopts.morsel_rows = db_->profile().morsel_rows;
  bool cost_compared = false;
  exec::VecExecStats replica_est;
  double row_seeks_est = 0;
  double row_rows_est = 0;
  if (route_to_column && shape.seek_driven) {
    // The row store probes about 1% of the driving table through its index
    // and joins by one seek per probe into each later table; the replica
    // sweeps (and hashes) instead, skipping only zone-refuted blocks.
    constexpr double kIndexedSelectivity = 0.01;
    const storage::ColumnTable* driver =
        db_->column_store().table(shape.table_ids[0]);
    const double driver_rows =
        driver != nullptr ? static_cast<double>(driver->LiveRowCount()) : 0;
    row_rows_est = std::max(1.0, driver_rows * kIndexedSelectivity);
    row_seeks_est =
        1 + row_rows_est * static_cast<double>(shape.table_ids.size() - 1);
    replica_est = exec::EstimateReplicaWork(stmt, params, db_->column_store(),
                                            vopts);
    cost_compared = true;
    if (RowReadCostNs(row_seeks_est, row_rows_est, m) <
        ReplicaCostNs(replica_est, m)) {
      route_to_column = false;
      m_cost_override_->Add(1);
    }
  }

  if (route_to_column) {
    // Vectorized columnar execution "as of" the replication watermark.
    auto& counter = db_->column_store().active_scans();
    const int concurrent = counter.fetch_add(1, std::memory_order_relaxed);
    const uint64_t snapshot_ts = db_->column_store().replicated_ts();
    exec::VecExecStats vstats;
    vopts.trace = trace;
    vopts.morsel_counter = m_morsels_;
    vopts.partitioned_counter = m_agg_partitioned_;
    auto rs = exec::ExecuteVectorized(stmt, params, db_->column_store(), vopts,
                                      &vstats);
    counter.fetch_sub(1, std::memory_order_relaxed);
    if (rs.ok()) {
      last_route_ = RoutedStore::kColumnStore;
      last_snapshot_ts_ = snapshot_ts;
      const double ns = ReplicaCostNs(vstats, m);
      if (cost_compared) record_residual(ReplicaCostNs(replica_est, m), ns);
      // Concurrent replica scans slow each other sublinearly (bandwidth
      // sharing).
      double pressure = 1.0;
      if (concurrent > 0) pressure += 0.15 * m.scan_contention * concurrent;
      InlineCharge(static_cast<int64_t>(ns * pressure / 1000.0));
      ChargeStatement(stats);
      FlushCharge();
      return rs;
    }
    // The engine refused the statement at run time (a mixed-type CASE, a
    // table without a replica): it re-runs on the row store, which also
    // reports a genuine statement error with the interpreter's
    // diagnostics. The aborted attempt charged nothing; drop the partial
    // ops it traced.
    m_replica_unsupported_->Add(1);
    cost_compared = false;  // the prediction was for the replica side
    if (trace != nullptr) {
      trace->ops.clear();
      trace->lanes = 1;
      trace->morsels = 0;
    }
  }

  last_route_ = RoutedStore::kRowStore;
  // Auto-commit wrapper when no transaction is open.
  std::unique_ptr<txn::Transaction> auto_txn;
  txn::Transaction* txn = txn_.get();
  if (!in_txn) {
    auto_txn = db_->txn_manager().Begin(db_->profile().isolation);
    txn = auto_txn.get();
  }

  const bool analytical = stmt.IsAnalyticalShape();
  const double scan_penalty =
      (in_txn && analytical) ? db_->profile().txn_analytical_scan_penalty
                             : 1.0;
  TxnStorage storage(db_, txn, &stats, this,
                     /*standalone_analytical=*/!in_txn && analytical,
                     scan_penalty);
  auto rs = sql::Execute(stmt, params, &storage, trace);
  ChargeStatement(stats);

  if (!rs.ok()) {
    // Abort whichever transaction was in flight; explicit transactions are
    // dead after a failure (Rollback becomes a no-op). The statement's own
    // error is what the caller sees; the abort Status carries nothing new.
    if (in_txn) {
      (void)txn_->Abort();
      txn_.reset();
      txn_writes_ = 0;
    } else {
      (void)auto_txn->Abort();
    }
    FlushCharge();
    return rs.status();
  }
  if (cost_compared) {
    record_residual(RowReadCostNs(row_seeks_est, row_rows_est, m),
                    RowReadCostNs(static_cast<double>(stats.row_seeks),
                                  static_cast<double>(stats.row_rows), m));
  }

  if (in_txn) {
    txn_writes_ += stats.writes;
    return rs;
  }
  Status commit = auto_txn->Commit();
  if (!commit.ok()) {
    FlushCharge();
    return commit;
  }
  if (stats.writes > 0) ChargeCommit(stats.writes);
  FlushCharge();
  return rs;
}

Status Session::Begin() {
  if (txn_) return Status::InvalidArgument("transaction already open");
  txn_ = db_->txn_manager().Begin(db_->profile().isolation);
  txn_writes_ = 0;
  return Status::OK();
}

Status Session::Commit() {
  if (!txn_) return Status::InvalidArgument("no open transaction");
  Status st = txn_->Commit();
  if (st.ok() && txn_writes_ > 0) ChargeCommit(txn_writes_);
  txn_.reset();
  txn_writes_ = 0;
  FlushCharge();
  return st;
}

Status Session::Rollback() {
  if (!txn_) {
    FlushCharge();
    return Status::OK();  // failed statements already aborted
  }
  Status st = txn_->Abort();
  txn_.reset();
  txn_writes_ = 0;
  FlushCharge();
  return st;
}

void Session::InlineCharge(int64_t micros) {
  if (micros <= 0) return;
  charged_micros_ += micros;
  if (charging_enabled_) SleepMicros(micros);
}

void Session::DeferCharge(int64_t micros) {
  if (micros <= 0) return;
  charged_micros_ += micros;
  pending_charge_micros_ += micros;
}

void Session::FlushCharge() {
  if (pending_charge_micros_ <= 0) return;
  int64_t micros = pending_charge_micros_;
  pending_charge_micros_ = 0;
  if (charging_enabled_) SleepMicros(micros);
}

void Session::ChargeStatement(const AccessStats& stats) {
  const LatencyModel& m = db_->profile().latency;
  const ClusterModel& c = db_->profile().cluster;
  double ns = static_cast<double>(m.statement_overhead_ns) * c.ReadFactor();
  // Row-store costs use the contention-weighted units accumulated per
  // operation (per-table buffer/latch pressure).
  ns += stats.seek_cost * static_cast<double>(m.row_seek_ns);
  ns += stats.row_cost * static_cast<double>(m.row_scan_row_ns);
  // Column-store scan costs and row-store full-scan costs were charged
  // inline (while their pressure markers were held); only seeks, range
  // scans and index probes remain here.
  DeferCharge(static_cast<int64_t>(ns / 1000.0));
}

void Session::ChargeCommit(int64_t writes) {
  const LatencyModel& m = db_->profile().latency;
  const ClusterModel& c = db_->profile().cluster;
  double ns = static_cast<double>(m.commit_base_ns) * c.CommitFactor();
  ns += static_cast<double>(writes) * m.write_ns;
  DeferCharge(static_cast<int64_t>(ns / 1000.0));
}

}  // namespace olxp::engine
