#ifndef OLXP_TXN_TRANSACTION_H_
#define OLXP_TXN_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/lock_manager.h"
#include "storage/oracle.h"
#include "storage/row_store.h"
#include "storage/vacuum.h"
#include "storage/wal.h"

namespace olxp::txn {

/// Isolation levels offered by the engine. The paper's SUTs run
/// repeatable-read (TiDB, implemented there as snapshot isolation) and
/// read-committed (MemSQL); we expose exactly those two semantics.
enum class IsolationLevel {
  kReadCommitted,     ///< each statement sees the latest committed state
  kSnapshotIsolation, ///< txn-wide snapshot + first-committer-wins writes
};

const char* IsolationLevelName(IsolationLevel lvl);

enum class TxnState { kActive, kCommitted, kAborted };

/// A transaction: buffered write set + held row locks + snapshot timestamps.
/// Reads merge the write set over the storage snapshot (read-own-writes).
/// Created via TransactionManager::Begin().
class Transaction {
 public:
  /// `snapshots`/`snapshot_handle`: registration of `start_ts` as a live
  /// snapshot in the engine's registry (nullable/0 when the engine runs no
  /// vacuum). The transaction releases it when it leaves the active state,
  /// letting the vacuum watermark advance past its snapshot.
  Transaction(uint64_t id, IsolationLevel isolation, uint64_t start_ts,
              storage::RowStore* store, storage::LockManager* locks,
              storage::TimestampOracle* oracle, storage::CommitLog* log,
              int64_t lock_timeout_micros,
              storage::SnapshotRegistry* snapshots = nullptr,
              storage::SnapshotRegistry::Handle snapshot_handle = 0);
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  uint64_t start_ts() const { return start_ts_; }
  IsolationLevel isolation() const { return isolation_; }
  TxnState state() const { return state_; }

  /// Snapshot timestamp for a *new statement*: the txn snapshot under SI,
  /// the latest committed timestamp under read-committed.
  uint64_t StatementSnapshot() const;

  /// Point read by primary key (merges the write set).
  StatusOr<std::optional<Row>> Get(int table_id, const Row& pk);

  /// Acquires the write lock on `pk` (with SI first-committer-wins
  /// validation) and returns the current row under the lock: this txn's own
  /// buffered write if any, else the newest committed version. The
  /// foundation of atomic read-modify-write UPDATEs.
  StatusOr<std::optional<Row>> LockAndGet(int table_id, const Row& pk);

  /// Scans visible rows of a table in primary-key order, write set merged
  /// in key position (updated rows replace stored images; buffered inserts
  /// interleave at their PK slot; buffered deletes are skipped).
  Status Scan(int table_id, const storage::RowCallback& cb,
              int64_t* rows_visited = nullptr);

  /// Primary-key range scan with write-set merge in key order, [lo, hi]
  /// inclusive (prefixes allowed).
  Status ScanPkRange(int table_id, const Row& lo, const Row& hi,
                     const storage::RowCallback& cb,
                     int64_t* rows_visited = nullptr);

  /// Secondary-index lookup with write-set merge.
  Status IndexLookup(int table_id, int index_id, const Row& key,
                     std::vector<Row>* out, int64_t* rows_visited = nullptr);

  /// Inserts a full row; AlreadyExists if a visible duplicate primary key
  /// exists (or one is buffered).
  Status Insert(int table_id, Row row);

  /// Replaces the row at its primary key with `row` (pk must not change).
  /// NotFound when no visible row.
  Status Update(int table_id, Row row);

  /// Deletes by primary key. NotFound when no visible row.
  Status Delete(int table_id, const Row& pk);

  /// Commits: installs all buffered versions at a fresh commit timestamp,
  /// appends the redo record, releases locks.
  Status Commit();

  /// Drops the write set and releases locks.
  Status Abort();

  /// Number of buffered writes (test/diagnostic).
  size_t WriteSetSize() const;

 private:
  struct PendingWrite {
    bool deleted = false;
    Row data;
  };
  using WriteMap = std::map<Row, PendingWrite, storage::KeyLess>;

  /// Shared ordered-merge core of Scan/ScanPkRange: runs `scan` (which
  /// must deliver storage rows in primary-key order) and interleaves this
  /// transaction's write set at its key positions — equal keys supersede
  /// the stored image, buffered deletes drop it. `key_filter` (nullable)
  /// restricts which write-set keys participate (range scans pass their
  /// bounds check; storage rows are pre-filtered by the scan itself).
  Status MergedScan(
      storage::MvccTable* t,
      const std::function<bool(const Row&)>& key_filter,
      const std::function<int64_t(const storage::RowCallback&)>& scan,
      const storage::RowCallback& cb, int64_t* rows_visited);

  /// Acquires the row lock and performs SI first-committer-wins validation.
  Status LockAndValidate(int table_id, const Row& pk);

  void ReleaseAllLocks();

  /// Unregisters start_ts from the snapshot registry (idempotent). Called
  /// on every transition out of the active state.
  void ReleaseSnapshot();

  const uint64_t id_;
  const IsolationLevel isolation_;
  const uint64_t start_ts_;
  storage::RowStore* store_;
  storage::LockManager* locks_;
  storage::TimestampOracle* oracle_;
  storage::CommitLog* log_;
  const int64_t lock_timeout_micros_;
  storage::SnapshotRegistry* snapshots_;
  storage::SnapshotRegistry::Handle snapshot_handle_;

  TxnState state_ = TxnState::kActive;
  std::unordered_map<int, WriteMap> write_sets_;  // table_id -> writes
  std::vector<std::pair<int, Row>> held_locks_;
};

/// Factory for transactions; owns nothing but wires the shared substrate
/// (store, locks, oracle, log) into each transaction.
class TransactionManager {
 public:
  /// `snapshots` (nullable): live-snapshot registry; when present, Begin
  /// atomically acquires-and-registers each transaction's start timestamp
  /// so the MVCC vacuum never reclaims a version an open transaction can
  /// still read.
  TransactionManager(storage::RowStore* store, storage::LockManager* locks,
                     storage::TimestampOracle* oracle,
                     storage::CommitLog* log,
                     int64_t lock_timeout_micros = 100000,
                     storage::SnapshotRegistry* snapshots = nullptr);

  std::unique_ptr<Transaction> Begin(IsolationLevel isolation);

  storage::TimestampOracle* oracle() { return oracle_; }
  storage::LockManager* locks() { return locks_; }

 private:
  storage::RowStore* store_;
  storage::LockManager* locks_;
  storage::TimestampOracle* oracle_;
  storage::CommitLog* log_;
  const int64_t lock_timeout_micros_;
  storage::SnapshotRegistry* snapshots_;
  std::atomic<uint64_t> next_txn_id_{1};
};

}  // namespace olxp::txn

#endif  // OLXP_TXN_TRANSACTION_H_
