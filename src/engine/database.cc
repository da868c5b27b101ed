#include "engine/database.h"

#include <cassert>
#include <cstdlib>
#include <utility>

#include "engine/session.h"

namespace olxp::engine {

namespace {
/// Replica-rebuild feed granularity: recovered rows re-enter the Replicator
/// pipeline in records of this many ops (one giant record per table would
/// hold the commit-log lock across the whole table).
constexpr size_t kRecoveryOpsPerRecord = 4096;
}  // namespace

Database::Database(EngineProfile profile)
    : profile_(std::move(profile)),
      slow_log_(profile_.slow_query_log_capacity),
      lock_manager_(metrics_) {
  // CI (and operators) force intra-query parallelism onto every instance
  // without touching call sites: the TSan job runs the whole suite with
  // OLXP_EXEC_THREADS=4 so the pool, dispatcher and partial-state merges
  // are race-checked by the existing tests.
  if (const char* env = std::getenv("OLXP_EXEC_THREADS")) {
    int n = std::atoi(env);
    if (n > 0) profile_.exec_threads = n;
  }
  set_exec_threads(profile_.exec_threads);
  replicator_ = std::make_unique<storage::Replicator>(
      &commit_log_, &column_store_, metrics_, profile_.replication_lag_micros);
  txn_manager_ = std::make_unique<txn::TransactionManager>(
      &row_store_, &lock_manager_, &oracle_, &commit_log_,
      profile_.lock_timeout_micros, &snapshots_);
  if (profile_.architecture == StoreArchitecture::kUnified) {
    // No replica tails the log: dropping records (while still feeding the
    // WAL) keeps a long-running unified engine's memory bounded.
    commit_log_.set_retain_records(false);
  }
  const bool durable = profile_.durability != storage::DurabilityMode::kOff &&
                       !profile_.wal_dir.empty();
  if (durable) {
    recovery_status_ = RecoverFromWal();
  }
  if (profile_.architecture == StoreArchitecture::kSeparated) {
    // Pin the vacuum watermark at the replication apply frontier before
    // shipping starts, so the registry never reports "caught up" while
    // recovered records still sit in the log.
    replicator_->set_snapshot_registry(&snapshots_);
    replicator_->Start();
    // Make recovered commits visible on the replica before the first query
    // (they are already past any replication lag — they predate the crash).
    if (durable && recovery_status_.ok()) replicator_->CatchUp();
  }
  storage::VacuumConfig vcfg;
  vcfg.interval_us = profile_.vacuum_interval_us;
  vcfg.batch_rows = profile_.vacuum_batch_rows;
  vacuum_ = std::make_unique<storage::Vacuum>(&row_store_, &snapshots_,
                                              &oracle_, vcfg, metrics_);
  vacuum_->Start();
}

Database::~Database() {
  // Teardown order is load-bearing. The exec pool goes first: a morsel in
  // flight holds a replica table's shared latch and reads its raw column
  // vectors, so every lane must have drained before the replicator (which
  // mutates those vectors) or the vacuum (which sweeps the row store) is
  // stopped and the stores destruct. Then the sweepers stop before any
  // substrate they walk is torn down.
  exec_pool_->Shutdown();
  if (vacuum_) vacuum_->Stop();
  if (replicator_) replicator_->Stop();
}

void Database::set_exec_threads(int n) {
  if (exec_pool_) exec_pool_->Shutdown();
  profile_.exec_threads = n;
  exec_pool_ = std::make_unique<exec::WorkerPool>(n, metrics_);
}

std::unique_ptr<Session> Database::CreateSession() {
  return std::unique_ptr<Session>(new Session(
      this, next_session_ordinal_.fetch_add(1, std::memory_order_relaxed)));
}

StatusOr<int> Database::TableId(std::string_view name) const {
  return row_store_.TableId(name);
}

const storage::TableSchema& Database::GetSchema(int table_id) const {
  const storage::MvccTable* t = row_store_.table(table_id);
  assert(t != nullptr);
  return t->schema();
}

Status Database::CreateTableEverywhere(storage::TableSchema schema) {
  // Resolve FK referenced-column positions against live tables.
  for (auto& fk : *schema.mutable_foreign_keys()) {
    auto rid = row_store_.TableId(fk.ref_table);
    if (!rid.ok()) {
      return Status::InvalidArgument("foreign key references unknown table " +
                                     fk.ref_table);
    }
    // Reference the target's primary key (the only supported form).
    fk.ref_column_idx = row_store_.table(*rid)->schema().pk_columns();
  }
  auto tid = row_store_.CreateTable(schema);
  if (!tid.ok()) return tid.status();
  if (profile_.architecture == StoreArchitecture::kSeparated) {
    column_store_.AddTable(*tid, schema);
  }
  // wal_ is null while recovery replays DDL frames, so replay never re-logs.
  if (wal_ != nullptr) {
    wal_->AppendCreateTable(*tid, schema);
    OLXP_RETURN_NOT_OK(wal_->last_error());
  }
  schema_version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Database::CreateIndexOn(std::string_view table_name,
                               storage::IndexDef def) {
  auto tid = row_store_.TableId(table_name);
  if (!tid.ok()) return tid.status();
  storage::IndexDef logged = def;
  OLXP_RETURN_NOT_OK(row_store_.table(*tid)->AddIndex(std::move(def)));
  if (wal_ != nullptr) {
    wal_->AppendCreateIndex(std::string(table_name), logged);
    OLXP_RETURN_NOT_OK(wal_->last_error());
  }
  schema_version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

void Database::WaitReplicaCaughtUp() {
  if (profile_.architecture == StoreArchitecture::kSeparated) {
    replicator_->CatchUp();
  }
}

storage::VacuumStats Database::RunVacuum() { return vacuum_->RunOnce(); }

obs::MetricsSnapshot Database::RefreshedSnapshot() {
  // Storage gauges (per-table footprint and block-skip telemetry) are
  // pull-published: refresh them right before snapshotting.
  column_store_.PublishMetrics(&metrics_);
  // Lock-hierarchy coverage: distinct acquired-after pairs the debug
  // witness has observed (0 in Release builds, where the witness compiles
  // out entirely).
  metrics_.GetGauge("lockorder.edges_observed")
      ->Set(sync::lockorder::EdgesObserved());
  return metrics_.Snapshot();
}

std::string Database::StatsJson() {
  std::string out = "{\"metrics\":";
  out += RefreshedSnapshot().ToJson();
  out += ",\"slow_query_total\":";
  out += std::to_string(slow_log_.total_recorded());
  out += ",\"slow_queries\":[";
  bool first = true;
  for (const obs::SlowQueryEntry& e : slow_log_.Entries()) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"sql\":\"" + obs::JsonEscape(e.sql) + '"';
    out += ",\"route\":\"" + obs::JsonEscape(e.route) + '"';
    out += ",\"wall_us\":" + std::to_string(e.wall_us);
    out += ",\"charged_us\":" + std::to_string(e.charged_us) + '}';
  }
  out += "]}";
  return out;
}

std::string Database::MetricsText() {
  return RefreshedSnapshot().ToPrometheusText();
}

Status Database::RecoverFromWal() {
  const std::string& dir = profile_.wal_dir;
  const bool separated = profile_.architecture == StoreArchitecture::kSeparated;
  uint64_t replay_from = 1;  // first segment frame the checkpoint misses
  uint64_t max_ts = 0;
  uint64_t max_seq = 0;

  auto ckpt = storage::ReadCheckpoint(dir);
  if (ckpt.ok()) {
    replay_from = ckpt->wal_next_seq;
    max_ts = ckpt->oracle_ts;
    for (storage::CheckpointTable& t : ckpt->tables) {
      OLXP_RETURN_NOT_OK(CreateTableEverywhere(t.schema));
      auto tid = row_store_.TableId(t.schema.name());
      if (!tid.ok() || *tid != t.table_id) {
        return Status::Internal("checkpoint table id mismatch for " +
                                t.schema.name());
      }
      storage::MvccTable* table = row_store_.table(*tid);
      storage::CommitRecord feed;
      feed.commit_ts = ckpt->oracle_ts;
      feed.commit_wall_us = 0;  // long past any replication lag
      for (auto& [ts, row] : t.rows) {
        Row pk = table->schema().ExtractPrimaryKey(row);
        if (ts > max_ts) max_ts = ts;
        if (separated) {
          storage::LogOp op;
          op.kind = storage::LogOp::Kind::kUpsert;
          op.table_id = *tid;
          op.pk = pk;
          op.data = row;
          feed.ops.push_back(std::move(op));
          if (feed.ops.size() >= kRecoveryOpsPerRecord) {
            commit_log_.Append(std::move(feed));
            feed = storage::CommitRecord();
            feed.commit_ts = ckpt->oracle_ts;
            feed.commit_wall_us = 0;
          }
        }
        OLXP_RETURN_NOT_OK(
            table->InstallVersion(pk, ts, /*deleted=*/false, std::move(row)));
      }
      if (!feed.ops.empty()) commit_log_.Append(std::move(feed));
    }
  } else if (ckpt.status().code() != StatusCode::kNotFound) {
    return ckpt.status();
  }

  Status replay = storage::ReplayWal(
      dir, replay_from,
      [&](storage::WalFrame&& frame) -> Status {
        switch (frame.type) {
          case storage::WalFrame::Type::kCreateTable: {
            Status st = CreateTableEverywhere(std::move(frame.schema));
            // Tolerate a DDL frame that raced an in-flight checkpoint and
            // landed in both the image and the surviving segments.
            if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
            return st;
          }
          case storage::WalFrame::Type::kCreateIndex: {
            Status st = CreateIndexOn(frame.table_name, std::move(frame.index));
            if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
            return st;
          }
          case storage::WalFrame::Type::kCommit: {
            for (storage::LogOp& op : frame.commit.ops) {
              storage::MvccTable* t = row_store_.table(op.table_id);
              if (t == nullptr) {
                return Status::Internal("WAL commit references unknown table " +
                                        std::to_string(op.table_id));
              }
              // A CRC-valid frame can still carry rows that don't fit the
              // table; installing them would plant out-of-arity tuples that
              // blow up much later, under a scan. Reject at the source.
              const storage::TableSchema& schema = t->schema();
              if (op.pk.size() != schema.pk_columns().size()) {
                return Status::Internal(
                    "WAL commit pk arity mismatch for table " +
                    std::to_string(op.table_id));
              }
              if (op.kind == storage::LogOp::Kind::kUpsert &&
                  op.data.size() != schema.columns().size()) {
                return Status::Internal(
                    "WAL commit row arity mismatch for table " +
                    std::to_string(op.table_id));
              }
              OLXP_RETURN_NOT_OK(t->InstallVersion(
                  op.pk, frame.commit.commit_ts,
                  op.kind == storage::LogOp::Kind::kDelete, op.data));
            }
            if (frame.commit.commit_ts > max_ts) {
              max_ts = frame.commit.commit_ts;
            }
            // The recorded wall time came from a previous process's steady
            // clock; zero it so the replicator sees the record as due now.
            frame.commit.commit_wall_us = 0;
            commit_log_.Append(std::move(frame.commit));
            return Status::OK();
          }
        }
        return Status::Internal("unknown WAL frame type");
      },
      &max_seq);
  OLXP_RETURN_NOT_OK(replay);

  oracle_.SeedTo(max_ts);

  storage::WalOptions wopts;
  wopts.dir = dir;
  wopts.mode = profile_.durability;
  wopts.group_commit_window_us = profile_.group_commit_window_us;
  wopts.segment_bytes = profile_.wal_segment_bytes;
  OLXP_ASSIGN_OR_RETURN(
      wal_, storage::WalWriter::Open(
                wopts, std::max(max_seq + 1, replay_from), metrics_));
  commit_log_.AttachWal(wal_.get());
  return Status::OK();
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "checkpoint requires durability on and a wal_dir");
  }
  // One checkpoint at a time: two racing writers would interleave into the
  // same checkpoint.tmp and then delete the segments backing the good
  // image. Commits are not meaningfully blocked by a running checkpoint:
  // they only cross the short CommitScope below and the per-chunk reader
  // locks of ForEachCommitted.
  sync::MutexLock ckpt_lk(checkpoint_mu_);
  storage::CheckpointImage image;
  storage::SnapshotRegistry::Handle snapshot_handle = 0;
  {
    // Holding the commit mutex pins (snapshot ts, WAL seq) to the same
    // point in commit order: every commit at or below oracle_ts has both
    // installed its versions and appended its WAL frame below wal_next_seq.
    storage::TimestampOracle::CommitScope scope(&oracle_);
    image.oracle_ts = scope.commit_ts();
    image.wal_next_seq = wal_->next_seq();
    // Register the image timestamp as a live snapshot BEFORE it publishes:
    // the vacuum must not reclaim versions the ForEachCommitted sweep below
    // still needs. (Registering inside the scope is race-free — every
    // watermark computable before the publish is < oracle_ts.)
    snapshot_handle = snapshots_.Register(image.oracle_ts);
  }
  // Watermark awareness both ways: the registration above holds the vacuum
  // horizon at or below the image ts, and a checkpoint must never snapshot
  // below history the vacuum already reclaimed.
  if (image.oracle_ts < vacuum_->last_watermark()) {
    snapshots_.Release(snapshot_handle);
    return Status::Internal("checkpoint ts below the vacuum watermark");
  }
  for (int id : row_store_.TableIds()) {
    const storage::MvccTable* t = row_store_.table(id);
    storage::CheckpointTable ct;
    ct.table_id = id;
    ct.schema = t->schema();
    t->ForEachCommitted(image.oracle_ts,
                        [&](const Row& pk, uint64_t ts, const Row& data) {
                          (void)pk;
                          ct.rows.emplace_back(ts, data);
                          return true;
                        });
    image.tables.push_back(std::move(ct));
  }
  snapshots_.Release(snapshot_handle);  // chains copied; vacuum may proceed
  OLXP_RETURN_NOT_OK(storage::WriteCheckpoint(profile_.wal_dir, image));
  OLXP_RETURN_NOT_OK(wal_->Flush());
  wal_->DeleteSegmentsBefore(image.wal_next_seq);
  return Status::OK();
}

}  // namespace olxp::engine
