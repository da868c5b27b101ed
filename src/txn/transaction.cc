#include "txn/transaction.h"

#include <algorithm>
#include <cassert>

#include "common/clock.h"

namespace olxp::txn {

const char* IsolationLevelName(IsolationLevel lvl) {
  switch (lvl) {
    case IsolationLevel::kReadCommitted:
      return "read-committed";
    case IsolationLevel::kSnapshotIsolation:
      return "snapshot-isolation";
  }
  return "?";
}

Transaction::Transaction(uint64_t id, IsolationLevel isolation,
                         uint64_t start_ts, storage::RowStore* store,
                         storage::LockManager* locks,
                         storage::TimestampOracle* oracle,
                         storage::CommitLog* log,
                         int64_t lock_timeout_micros,
                         storage::SnapshotRegistry* snapshots,
                         storage::SnapshotRegistry::Handle snapshot_handle)
    : id_(id),
      isolation_(isolation),
      start_ts_(start_ts),
      store_(store),
      locks_(locks),
      oracle_(oracle),
      log_(log),
      lock_timeout_micros_(lock_timeout_micros),
      snapshots_(snapshots),
      snapshot_handle_(snapshot_handle) {}

Transaction::~Transaction() {
  if (state_ == TxnState::kActive) {
    (void)Abort();  // Status unreportable from a destructor
  }
  ReleaseSnapshot();  // Abort/Commit already did; idempotent backstop
}

void Transaction::ReleaseSnapshot() {
  if (snapshots_ != nullptr && snapshot_handle_ != 0) {
    snapshots_->Release(snapshot_handle_);
    snapshot_handle_ = 0;
  }
}

uint64_t Transaction::StatementSnapshot() const {
  return isolation_ == IsolationLevel::kSnapshotIsolation ? start_ts_
                                                          : oracle_->Current();
}

StatusOr<std::optional<Row>> Transaction::Get(int table_id, const Row& pk) {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  auto ws = write_sets_.find(table_id);
  if (ws != write_sets_.end()) {
    auto it = ws->second.find(pk);
    if (it != ws->second.end()) {
      if (it->second.deleted) return std::optional<Row>();
      return std::optional<Row>(it->second.data);
    }
  }
  storage::MvccTable* t = store_->table(table_id);
  if (t == nullptr) return Status::NotFound("bad table id");
  return t->Get(pk, StatementSnapshot());
}

Status Transaction::MergedScan(
    storage::MvccTable* t,
    const std::function<bool(const Row&)>& key_filter,
    const std::function<int64_t(const storage::RowCallback&)>& scan,
    const storage::RowCallback& cb, int64_t* rows_visited) {
  const WriteMap* ws = nullptr;
  auto wit = write_sets_.find(t->table_id());
  if (wit != write_sets_.end()) ws = &wit->second;

  // Merge the write set (a KeyLess-ordered map) into the storage scan so
  // the caller sees one primary-key-ordered stream: buffered inserts used
  // to be appended after the scan, breaking the PK-order contract.
  storage::KeyLess less;
  auto pending = ws != nullptr ? ws->begin() : WriteMap::const_iterator();
  bool keep_going = true;
  int64_t ws_visited = 0;
  // Emits pending writes strictly before `bound` (all of them when null).
  auto emit_pending_before = [&](const Row* bound) {
    while (ws != nullptr && pending != ws->end() &&
           (bound == nullptr || less(pending->first, *bound))) {
      const PendingWrite& w = pending->second;
      if (key_filter != nullptr && !key_filter(pending->first)) {
        ++pending;
        continue;
      }
      ++ws_visited;
      ++pending;
      if (w.deleted) continue;
      if (!cb(w.data)) {
        keep_going = false;
        return;
      }
    }
  };

  int64_t visited = scan([&](const Row& row) {
    if (ws == nullptr) {
      keep_going = cb(row);
      return keep_going;
    }
    Row pk = t->schema().ExtractPrimaryKey(row);
    emit_pending_before(&pk);
    if (!keep_going) return false;
    if (pending != ws->end() && !less(pk, pending->first)) {
      // Equal key: our buffered write supersedes the stored image. (The
      // storage row already passed the scan's own bounds, so the equal
      // write-set key needs no key_filter check.)
      ++ws_visited;
      const PendingWrite& w = pending->second;
      ++pending;
      if (w.deleted) return true;
      keep_going = cb(w.data);
      return keep_going;
    }
    keep_going = cb(row);
    return keep_going;
  });
  if (keep_going) emit_pending_before(nullptr);
  if (rows_visited != nullptr) *rows_visited = visited + ws_visited;
  return Status::OK();
}

Status Transaction::Scan(int table_id, const storage::RowCallback& cb,
                         int64_t* rows_visited) {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  storage::MvccTable* t = store_->table(table_id);
  if (t == nullptr) return Status::NotFound("bad table id");
  return MergedScan(
      t, nullptr,
      [&](const storage::RowCallback& merged) {
        return t->Scan(StatementSnapshot(), merged);
      },
      cb, rows_visited);
}

Status Transaction::ScanPkRange(int table_id, const Row& lo, const Row& hi,
                                const storage::RowCallback& cb,
                                int64_t* rows_visited) {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  storage::MvccTable* t = store_->table(table_id);
  if (t == nullptr) return Status::NotFound("bad table id");
  // In-range test with prefix semantics matching ScanPkRange, applied to
  // write-set keys (storage rows are bounded by the scan itself) so a
  // range read inside the transaction sees its own inserts in PK position.
  auto in_range = [&](const Row& pk) {
    return storage::ComparePrefix(pk, lo.size(), lo) >= 0 &&
           storage::ComparePrefix(pk, hi.size(), hi) <= 0;
  };
  return MergedScan(
      t, in_range,
      [&](const storage::RowCallback& merged) {
        return t->ScanPkRange(lo, hi, StatementSnapshot(), merged);
      },
      cb, rows_visited);
}

Status Transaction::IndexLookup(int table_id, int index_id, const Row& key,
                                std::vector<Row>* out,
                                int64_t* rows_visited) {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  storage::MvccTable* t = store_->table(table_id);
  if (t == nullptr) return Status::NotFound("bad table id");
  std::vector<Row> stored;
  int64_t visited =
      t->IndexLookup(index_id, key, StatementSnapshot(), &stored);

  const WriteMap* ws = nullptr;
  auto wit = write_sets_.find(table_id);
  if (wit != write_sets_.end()) ws = &wit->second;
  const storage::IndexDef& def = t->schema().indexes()[index_id];

  for (Row& row : stored) {
    if (ws != nullptr) {
      Row pk = t->schema().ExtractPrimaryKey(row);
      if (ws->count(pk)) continue;  // superseded below
    }
    out->push_back(std::move(row));
  }
  if (ws != nullptr) {
    for (const auto& [pk, w] : *ws) {
      if (w.deleted) continue;
      Row ikey = t->schema().ExtractIndexKey(def, w.data);
      ++visited;
      if (storage::PrefixEq(ikey, key.size(), key)) out->push_back(w.data);
    }
  }
  if (rows_visited != nullptr) *rows_visited = visited;
  return Status::OK();
}

StatusOr<std::optional<Row>> Transaction::LockAndGet(int table_id,
                                                     const Row& pk) {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  storage::MvccTable* t = store_->table(table_id);
  if (t == nullptr) return Status::NotFound("bad table id");
  OLXP_RETURN_NOT_OK(LockAndValidate(table_id, pk));
  auto ws = write_sets_.find(table_id);
  if (ws != write_sets_.end()) {
    auto it = ws->second.find(pk);
    if (it != ws->second.end()) {
      if (it->second.deleted) return std::optional<Row>();
      return std::optional<Row>(it->second.data);
    }
  }
  // Freshest committed version: we hold the lock, so nothing newer can
  // land while this statement runs.
  return t->Get(pk, oracle_->Current());
}

Status Transaction::LockAndValidate(int table_id, const Row& pk) {
  Status lock = locks_->Acquire(id_, table_id, pk, lock_timeout_micros_);
  if (!lock.ok()) {
    if (lock.code() == StatusCode::kLockTimeout) {
      storage::MvccTable* t = store_->table(table_id);
      std::string key_str;
      for (const Value& v : pk) key_str += v.ToString() + ",";
      return Status::LockTimeout(
          (t != nullptr ? t->schema().name() : "?") + " key=(" + key_str +
          ") txn=" + std::to_string(id_) + " [" + lock.message() + "]");
    }
    return lock;
  }
  held_locks_.emplace_back(table_id, pk);
  if (isolation_ == IsolationLevel::kSnapshotIsolation) {
    // First-committer-wins: abort if someone committed this row after our
    // snapshot was taken.
    storage::MvccTable* t = store_->table(table_id);
    if (t != nullptr && t->LatestCommitTs(pk) > start_ts_) {
      return Status::Conflict("write-write conflict on " +
                              t->schema().name());
    }
  }
  return Status::OK();
}

Status Transaction::Insert(int table_id, Row row) {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  storage::MvccTable* t = store_->table(table_id);
  if (t == nullptr) return Status::NotFound("bad table id");
  auto normalized = t->schema().NormalizeRow(row);
  if (!normalized.ok()) return normalized.status();
  Row pk = t->schema().ExtractPrimaryKey(*normalized);
  OLXP_RETURN_NOT_OK(LockAndValidate(table_id, pk));

  WriteMap& ws = write_sets_[table_id];
  auto wit = ws.find(pk);
  if (wit != ws.end()) {
    if (!wit->second.deleted) {
      return Status::AlreadyExists("duplicate key in " + t->schema().name());
    }
  } else if (t->Get(pk, StatementSnapshot()).has_value()) {
    return Status::AlreadyExists("duplicate key in " + t->schema().name());
  }
  ws[pk] = PendingWrite{false, std::move(*normalized)};
  return Status::OK();
}

Status Transaction::Update(int table_id, Row row) {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  storage::MvccTable* t = store_->table(table_id);
  if (t == nullptr) return Status::NotFound("bad table id");
  auto normalized = t->schema().NormalizeRow(row);
  if (!normalized.ok()) return normalized.status();
  Row pk = t->schema().ExtractPrimaryKey(*normalized);
  OLXP_RETURN_NOT_OK(LockAndValidate(table_id, pk));

  WriteMap& ws = write_sets_[table_id];
  auto wit = ws.find(pk);
  bool exists = wit != ws.end()
                    ? !wit->second.deleted
                    : t->Get(pk, StatementSnapshot()).has_value();
  if (!exists) return Status::NotFound("update of absent row");
  ws[pk] = PendingWrite{false, std::move(*normalized)};
  return Status::OK();
}

Status Transaction::Delete(int table_id, const Row& pk) {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  storage::MvccTable* t = store_->table(table_id);
  if (t == nullptr) return Status::NotFound("bad table id");
  OLXP_RETURN_NOT_OK(LockAndValidate(table_id, pk));

  WriteMap& ws = write_sets_[table_id];
  auto wit = ws.find(pk);
  bool exists = wit != ws.end()
                    ? !wit->second.deleted
                    : t->Get(pk, StatementSnapshot()).has_value();
  if (!exists) return Status::NotFound("delete of absent row");
  ws[pk] = PendingWrite{true, Row{}};
  return Status::OK();
}

Status Transaction::Commit() {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  if (write_sets_.empty()) {
    state_ = TxnState::kCommitted;
    ReleaseAllLocks();
    ReleaseSnapshot();
    return Status::OK();
  }
  uint64_t durable_ticket = 0;
  Status validate = Status::OK();
  {
    // Two-phase commit publish: versions install with a reserved timestamp
    // that no open snapshot can observe until the scope ends (see
    // TimestampOracle). The critical section also serializes the redo-log
    // append with the publish so the log stays in commit order. Row locks
    // MUST outlive the publish: releasing them earlier lets a waiting
    // read-committed writer read the pre-publish value and lose our update.
    // Conversely, lock RELEASE must wait for the scope to end: the oracle's
    // commit mutex ranks above the lock-manager shards, so releasing inside
    // the scope would invert the lock order (and needlessly extend the
    // publish critical section).
    storage::TimestampOracle::CommitScope scope(oracle_);
    const uint64_t commit_ts = scope.commit_ts();
    // Validate EVERY chain head against commit_ts before installing
    // ANYTHING: failing mid-loop would leave a torn commit (rows already
    // installed and visible, nothing logged or replicated). We hold all
    // row locks and chains only grow under those locks, so a head that
    // passes here cannot move before its install below.
    for (auto& [table_id, ws] : write_sets_) {
      storage::MvccTable* t = store_->table(table_id);
      assert(t != nullptr);
      for (auto& [pk, w] : ws) {
        (void)w;
        if (t->LatestCommitTs(pk) > commit_ts) {
          validate = Status::Internal("non-monotone commit ts on " +
                                      t->schema().name());
          break;
        }
      }
      if (!validate.ok()) break;
    }
    if (validate.ok()) {
      storage::CommitRecord rec;
      rec.commit_ts = commit_ts;
      rec.commit_wall_us = NowMicros();
      for (auto& [table_id, ws] : write_sets_) {
        storage::MvccTable* t = store_->table(table_id);
        for (auto& [pk, w] : ws) {
          // Cannot fail: the chain heads were validated above and are
          // pinned by our row locks. The check stays for non-commit
          // callers (recovery, loaders); a failure here would be a
          // locking bug.
          Status install = t->InstallVersion(pk, commit_ts, w.deleted,
                                             w.data);
          assert(install.ok());
          (void)install;
          storage::LogOp op;
          op.kind = w.deleted ? storage::LogOp::Kind::kDelete
                              : storage::LogOp::Kind::kUpsert;
          op.table_id = table_id;
          op.pk = pk;
          op.data = std::move(w.data);
          rec.ops.push_back(std::move(op));
        }
      }
      if (log_ != nullptr) durable_ticket = log_->Append(std::move(rec));
    }
  }  // timestamp published (or reservation retired) here
  write_sets_.clear();
  if (!validate.ok()) {
    state_ = TxnState::kAborted;
    ReleaseAllLocks();
    ReleaseSnapshot();
    return validate;
  }
  state_ = TxnState::kCommitted;
  ReleaseAllLocks();
  ReleaseSnapshot();
  // Group commit: block for the covering fsync only after the publish and
  // the lock release, so concurrent committers pile into the same batch
  // instead of serializing behind our wait. The transaction does not report
  // success until its record is durable; a crash before the fsync loses a
  // commit that nobody was told succeeded. Caveat (shared with every
  // early-lock-release group-commit design): between the publish and the
  // fsync the versions are already visible, so a concurrent reader can
  // observe a commit that a crash then erases — readers needing
  // durable-only data must externally await the writer's acknowledgment.
  // A WAL I/O failure surfaces here as a non-OK status: the versions stay
  // visible in memory, but the caller must not treat the commit as durable.
  if (log_ != nullptr) {
    return log_->WaitDurable(durable_ticket);
  }
  return Status::OK();
}

Status Transaction::Abort() {
  if (state_ != TxnState::kActive) return Status::Aborted("txn not active");
  write_sets_.clear();
  state_ = TxnState::kAborted;
  ReleaseAllLocks();
  ReleaseSnapshot();
  return Status::OK();
}

size_t Transaction::WriteSetSize() const {
  size_t n = 0;
  for (const auto& [tid, ws] : write_sets_) n += ws.size();
  return n;
}

void Transaction::ReleaseAllLocks() {
  // Release in reverse acquisition order.
  for (auto it = held_locks_.rbegin(); it != held_locks_.rend(); ++it) {
    locks_->Release(id_, it->first, it->second);
  }
  held_locks_.clear();
}

TransactionManager::TransactionManager(storage::RowStore* store,
                                       storage::LockManager* locks,
                                       storage::TimestampOracle* oracle,
                                       storage::CommitLog* log,
                                       int64_t lock_timeout_micros,
                                       storage::SnapshotRegistry* snapshots)
    : store_(store),
      locks_(locks),
      oracle_(oracle),
      log_(log),
      lock_timeout_micros_(lock_timeout_micros),
      snapshots_(snapshots) {}

std::unique_ptr<Transaction> TransactionManager::Begin(
    IsolationLevel isolation) {
  uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  // The registry assigns the start timestamp when present: reading the
  // oracle and registering under one mutex closes the race where a vacuum
  // watermark computed between the two steps advances past a snapshot that
  // is about to become live.
  uint64_t start_ts;
  storage::SnapshotRegistry::Handle handle = 0;
  if (snapshots_ != nullptr) {
    handle = snapshots_->Acquire(*oracle_, &start_ts);
  } else {
    start_ts = oracle_->Current();
  }
  return std::make_unique<Transaction>(id, isolation, start_ts, store_,
                                       locks_, oracle_, log_,
                                       lock_timeout_micros_, snapshots_,
                                       handle);
}

}  // namespace olxp::txn
