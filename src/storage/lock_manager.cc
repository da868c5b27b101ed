#include "storage/lock_manager.h"

#include <chrono>

#include "common/clock.h"

namespace olxp::storage {

LockManager::LockManager(obs::MetricsRegistry& metrics, int num_shards,
                         ShardHashFn hash)
    : shards_(num_shards),
      hash_(hash),
      m_acquires_(metrics.GetCounter("lock.acquires")),
      m_conflicts_(metrics.GetCounter("lock.conflicts")),
      m_waits_(metrics.GetCounter("lock.waits")),
      m_wait_ns_(metrics.GetCounter("lock.wait_ns")),
      m_timeouts_(metrics.GetCounter("lock.timeouts")) {}

size_t LockManager::LockHash(int table_id, const Row& key) {
  size_t h = HashRow(key);
  h ^= static_cast<size_t>(table_id) * 0x9e3779b97f4a7c15ULL;
  return h;
}

Status LockManager::Acquire(uint64_t txn_id, int table_id, const Row& key,
                            int64_t timeout_micros) {
  Shard& shard = ShardFor(hash_(table_id, key));
  const TableKeyView view{table_id, &key};
  sync::MutexLock lk(shard.mu);
  auto it = shard.locks.find(view);
  if (it == shard.locks.end()) {
    // Free: the Row is copied into the table only on this entry-creating
    // grant; reentries and waiters hit the heterogeneous find above.
    it = shard.locks.emplace(TableKey{table_id, key}, LockEntry{}).first;
    it->second.owner = txn_id;
    it->second.reentry = 1;
    m_acquires_->Add(1);
    return Status::OK();
  }
  if (it->second.owner == txn_id) {
    it->second.reentry++;
    m_acquires_->Add(1);
    return Status::OK();
  }
  if (it->second.owner == 0) {
    it->second.owner = txn_id;
    it->second.reentry = 1;
    m_acquires_->Add(1);
    return Status::OK();
  }
  // Contended: block with a deadline.
  m_conflicts_->Add(1);
  const int64_t t0 = NowNanos();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_micros);
  it->second.waiters++;
  bool granted = false;
  while (true) {
    // Re-find every iteration: the map may rehash while unlocked during
    // the wait, invalidating references.
    LockEntry& cur = shard.locks.find(view)->second;
    if (cur.owner == 0) {
      cur.owner = txn_id;
      cur.reentry = 1;
      granted = true;
      break;
    }
    // Deadline expiry is a hard timeout: a waiter that slept its whole
    // budget fails deterministically instead of racing the releaser for a
    // last-instant grant (the caller retries the transaction anyway).
    if (shard.cv.WaitUntil(lk, deadline) == std::cv_status::timeout) break;
  }
  auto fit = shard.locks.find(view);
  fit->second.waiters--;
  const int64_t waited_ns = NowNanos() - t0;
  m_wait_ns_->Add(waited_ns);
  if (granted) {
    m_acquires_->Add(1);
    m_waits_->Add(1);
    return Status::OK();
  }
  m_timeouts_->Add(1);
  uint64_t owner_now = fit->second.owner;
  // Last-waiter exit without a grant: Release keeps an unowned entry alive
  // whenever waiters are registered (handoff), so when the handoff is
  // declined by a timeout nobody else is left to erase it — the last
  // timed-out waiter must reap it or shard.locks grows without bound under
  // contention churn.
  if (fit->second.owner == 0 && fit->second.waiters == 0) {
    shard.locks.erase(fit);
  }
  return Status::LockTimeout("row lock wait exceeded deadline; owner txn " +
                             std::to_string(owner_now) + " me " +
                             std::to_string(txn_id));
}

void LockManager::Release(uint64_t txn_id, int table_id, const Row& key) {
  Shard& shard = ShardFor(hash_(table_id, key));
  const TableKeyView view{table_id, &key};
  sync::MutexLock lk(shard.mu);
  auto it = shard.locks.find(view);
  if (it == shard.locks.end() || it->second.owner != txn_id) return;
  if (--it->second.reentry > 0) return;
  it->second.owner = 0;
  bool has_waiters = it->second.waiters > 0;
  if (!has_waiters) {
    shard.locks.erase(it);
  }
  lk.Unlock();
  if (has_waiters) shard.cv.NotifyAll();
}

size_t LockManager::EntryCount() {
  size_t n = 0;
  for (Shard& shard : shards_) {
    sync::MutexLock lk(shard.mu);
    n += shard.locks.size();
  }
  return n;
}

bool LockManager::Holds(uint64_t txn_id, int table_id, const Row& key) {
  Shard& shard = ShardFor(hash_(table_id, key));
  const TableKeyView view{table_id, &key};
  sync::MutexLock lk(shard.mu);
  auto it = shard.locks.find(view);
  return it != shard.locks.end() && it->second.owner == txn_id;
}

}  // namespace olxp::storage
