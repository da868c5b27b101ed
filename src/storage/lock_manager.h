#ifndef OLXP_STORAGE_LOCK_MANAGER_H_
#define OLXP_STORAGE_LOCK_MANAGER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "storage/schema.h"

namespace olxp::storage {

/// Striped exclusive row-lock table keyed by (table_id, primary key).
/// Grants are reentrant per transaction. Waiting is bounded by a deadline;
/// expiry returns LockTimeout (the engine's deadlock breaker, surfaced to
/// the harness as a retryable abort).
///
/// Every grant, conflict, wait and timeout is counted into the `lock.*`
/// counters of the registry the manager is built with. This is the
/// reproduction of the paper's `perf`-based Fig. 4 measurement: instead of
/// sampling mutex/futex symbols externally, the lock manager accounts wait
/// time directly, and the figure driver divides `lock.wait_ns` by the busy
/// time it measures.
///
/// Entries are keyed by the FULL (table_id, key) identity, hash-bucketed
/// into shards. Keying by the raw hash (the original design) let two
/// distinct keys that collide share one entry — and a transaction holding
/// one of them got a *false reentrant grant* on the other, silently
/// breaking mutual exclusion. A hash now only picks the shard, where a
/// collision costs contention on the shard mutex, never exclusion.
class LockManager {
 public:
  /// Maps (table_id, key) to a shard-selection hash. Injectable so tests
  /// can force all keys into one value and prove that colliding hashes
  /// still get distinct, correctly-exclusive lock entries.
  using ShardHashFn = size_t (*)(int table_id, const Row& key);

  /// `metrics` receives the lock.* counters and must outlive the manager.
  explicit LockManager(obs::MetricsRegistry& metrics, int num_shards = 64,
                       ShardHashFn hash = &LockHash);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires the exclusive lock on (table_id, key) for `txn_id`, waiting at
  /// most `timeout_micros`. Reentrant for the owning transaction.
  Status Acquire(uint64_t txn_id, int table_id, const Row& key,
                 int64_t timeout_micros);

  /// Releases one lock owned by `txn_id`. No-op if not held.
  void Release(uint64_t txn_id, int table_id, const Row& key);

  /// True if `txn_id` currently owns the lock (test helper).
  bool Holds(uint64_t txn_id, int table_id, const Row& key);

  /// Total lock-table entries across all shards. With no lock held and no
  /// waiter blocked this must be zero — stale entries would grow resident
  /// memory for the life of the database (regression guard).
  size_t EntryCount();

  /// Default shard hash.
  static size_t LockHash(int table_id, const Row& key);

 private:
  struct LockEntry {
    uint64_t owner = 0;  ///< 0 = free
    int reentry = 0;
    int waiters = 0;
  };
  /// Full lock identity. The Row is copied in once per live entry (entries
  /// are erased as soon as they have no owner and no waiters).
  struct TableKey {
    int table_id;
    Row key;
  };
  /// Heterogeneous lookup view: lets find() run without copying the Row.
  struct TableKeyView {
    int table_id;
    const Row* key;
  };
  struct TableKeyHash {
    using is_transparent = void;
    size_t operator()(const TableKey& k) const {
      return HashRow(k.key) ^
             static_cast<size_t>(k.table_id) * 0x9e3779b97f4a7c15ULL;
    }
    size_t operator()(const TableKeyView& k) const {
      return HashRow(*k.key) ^
             static_cast<size_t>(k.table_id) * 0x9e3779b97f4a7c15ULL;
    }
  };
  struct TableKeyEq {
    using is_transparent = void;
    bool operator()(const TableKey& a, const TableKey& b) const {
      return a.table_id == b.table_id && KeyEq()(a.key, b.key);
    }
    bool operator()(const TableKey& a, const TableKeyView& b) const {
      return a.table_id == b.table_id && KeyEq()(a.key, *b.key);
    }
    bool operator()(const TableKeyView& a, const TableKey& b) const {
      return b.table_id == a.table_id && KeyEq()(b.key, *a.key);
    }
  };
  struct Shard {
    /// All shards share one rank: two shard mutexes are never nested.
    sync::Mutex mu{sync::LockRank::kLockManagerShard, "lockmgr.shard"};
    sync::CondVar cv;
    std::unordered_map<TableKey, LockEntry, TableKeyHash, TableKeyEq> locks
        GUARDED_BY(mu);
  };

  Shard& ShardFor(size_t hash) { return shards_[hash % shards_.size()]; }

  std::vector<Shard> shards_;
  ShardHashFn hash_;

  obs::Counter* const m_acquires_;   ///< every grant
  obs::Counter* const m_conflicts_;  ///< acquisitions that had to block
  obs::Counter* const m_waits_;      ///< blocked, then granted
  obs::Counter* const m_wait_ns_;    ///< total blocked nanoseconds
  obs::Counter* const m_timeouts_;   ///< deadline-expired acquisitions
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_LOCK_MANAGER_H_
