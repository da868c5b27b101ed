#ifndef OLXP_STORAGE_TABLE_H_
#define OLXP_STORAGE_TABLE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/value.h"
#include "storage/schema.h"

namespace olxp::storage {

/// One committed version of a row. Chains are ordered by ascending
/// commit_ts; a deleted version is a tombstone.
struct Version {
  uint64_t commit_ts = 0;
  bool deleted = false;
  Row data;
};

/// Rows a shared-latch scan chunk visits before the latch drops, so
/// committers interleave with a long sweep (the §V-B interference path: a
/// whole-sweep latch hold would stall every InstallVersion behind an
/// analytical scan).
inline constexpr size_t kScanChunkRows = 1024;

/// Reclamation counts of one vacuum sweep over a table (accumulated into
/// pass/total stats by storage::Vacuum).
struct VacuumStats {
  uint64_t versions_removed = 0;       ///< version-chain entries erased
  uint64_t chains_removed = 0;         ///< whole rows erased (dead tombstones)
  uint64_t index_entries_removed = 0;  ///< stale (index_key, pk) pairs erased

  VacuumStats& operator+=(const VacuumStats& o) {
    versions_removed += o.versions_removed;
    chains_removed += o.chains_removed;
    index_entries_removed += o.index_entries_removed;
    return *this;
  }
};

/// Callback receiving a visible row during a scan. Return false to stop.
using RowCallback = std::function<bool(const Row&)>;

/// Multi-version row table ordered by composite primary key, with
/// secondary indexes. Writes are *installed* here only at transaction
/// commit (the transaction layer buffers them and owns the row locks);
/// readers are lock-free with respect to row locks and see a consistent
/// snapshot chosen by timestamp.
///
/// Concurrency: a table-level shared_mutex protects the tree structure;
/// version installs take it exclusively (short critical section), reads and
/// scans take it shared. Version chains are only appended under the
/// exclusive lock, so shared-lock readers can safely walk them.
///
/// Every multi-row read (Scan, ScanPkRange, ForEachCommitted) runs through
/// one private sweep driver, Sweep: it holds the shared lock for at most
/// kScanChunkRows entries, drops it, and resumes at the first unvisited
/// key, so a multi-second analytical sweep never blocks committers for its
/// whole duration — per-key MVCC visibility keeps the result a consistent
/// snapshot anyway (rows installed between chunks carry newer timestamps;
/// rows vacuumed between chunks were invisible at any registered snapshot).
/// A writer waits for at most the chunk each running sweep is in: writers
/// take the table's gate before the latch, and the driver passes the gate
/// before each chunk, so sweeps that keep overlapping cannot hold a waiting
/// writer off indefinitely (the shared latch may prefer readers).
/// VacuumBelow has its own loop: it erases entries under the exclusive
/// latch in batches of its caller's size.
class MvccTable {
 public:
  MvccTable(int table_id, TableSchema schema) : table_id_(table_id) {
    schema_history_.push_back(
        std::make_unique<const TableSchema>(std::move(schema)));
    schema_ptr_.store(schema_history_.back().get(),
                      std::memory_order_release);
  }

  MvccTable(const MvccTable&) = delete;
  MvccTable& operator=(const MvccTable&) = delete;

  int table_id() const { return table_id_; }

  /// Current schema snapshot. Lock-free and safe under concurrent DDL:
  /// AddIndex never mutates a published snapshot — it publishes a new
  /// immutable copy and retains the old one for the table's lifetime, so a
  /// reference obtained here stays valid and self-consistent even while a
  /// concurrent CREATE INDEX lands (it just describes the pre-DDL shape).
  const TableSchema& schema() const {
    return *schema_ptr_.load(std::memory_order_acquire);
  }

  /// Latest commit timestamp of any version of `pk`; 0 when unknown.
  /// Used by snapshot-isolation first-committer-wins validation.
  uint64_t LatestCommitTs(const Row& pk) const;

  /// Reads the version of `pk` visible at `snapshot_ts` (the newest version
  /// with commit_ts <= snapshot_ts). Returns nullopt when absent/deleted.
  std::optional<Row> Get(const Row& pk, uint64_t snapshot_ts) const;

  /// Installs a new committed version. Caller (the committing transaction)
  /// must hold the row lock. Fails with Internal when `commit_ts` is below
  /// the chain's newest version — installing it would corrupt the ascending
  /// order VisibleVersion depends on (a real check, not a debug assert:
  /// release builds must refuse the commit rather than corrupt the chain).
  Status InstallVersion(const Row& pk, uint64_t commit_ts, bool deleted,
                        Row data);

  /// Full scan of rows visible at `snapshot_ts` in primary-key order.
  /// Returns the number of entries *visited* (invisible ones included),
  /// which the latency model uses as scan cost.
  int64_t Scan(uint64_t snapshot_ts, const RowCallback& cb) const;

  /// Range scan over primary keys in [lo, hi] (inclusive; either may be a
  /// key prefix). Visible rows only.
  int64_t ScanPkRange(const Row& lo, const Row& hi, uint64_t snapshot_ts,
                      const RowCallback& cb) const;

  /// Point lookups through secondary index `index_id` (position in
  /// schema().indexes()). Appends visible matching rows to `out`; stale
  /// index entries are verified against the row and skipped (and physically
  /// purged by VacuumBelow once no snapshot can need them).
  /// Returns number of index entries visited.
  int64_t IndexLookup(int index_id, const Row& key, uint64_t snapshot_ts,
                      std::vector<Row>* out) const;

  /// Adds a secondary index to the live table and backfills entries from
  /// the newest committed version of every row.
  Status AddIndex(IndexDef def);

  /// Visits the version of every row visible at `snapshot_ts` together with
  /// its commit timestamp, in primary-key order (checkpoint writer). Rows
  /// deleted as of the snapshot are skipped. Return false to stop.
  void ForEachCommitted(
      uint64_t snapshot_ts,
      const std::function<bool(const Row& pk, uint64_t commit_ts,
                               const Row& data)>& cb) const;

  /// Number of distinct primary keys currently in the tree (incl. rows
  /// whose newest version is a tombstone).
  size_t ApproxRowCount() const;

  /// Garbage-collects history no live snapshot can observe, in exclusive-
  /// lock chunks of `batch_rows` rows (the latch drops between chunks so
  /// committers interleave). For every chain: versions strictly older than
  /// the newest version with commit_ts <= `watermark` are erased; when that
  /// watermark version is a tombstone with nothing newer above it, the
  /// whole chain (the row) is erased. Secondary-index entries backed only
  /// by erased versions are purged. Safe while scans/reads at snapshots
  /// >= `watermark` run concurrently; the caller (storage::Vacuum) derives
  /// `watermark` from the live-snapshot registry.
  VacuumStats VacuumBelow(uint64_t watermark, size_t batch_rows);

  /// Total version-chain entries across all rows (vacuum diagnostics).
  size_t TotalVersionCount() const;

  /// Total secondary-index entries across all indexes (stale included).
  size_t IndexEntryCount() const;

  /// Live analytical scans touching THIS table. Buffer/latch pressure is
  /// per-data: the latency model inflates the cost of operations on a table
  /// by the scans concurrently sweeping it. Scans of tables the OLTP
  /// workload never touches (e.g. CH-benCHmark's SUPPLIER/NATION/REGION)
  /// therefore do not slow OLTP down — the asymmetry §V-B1 measures.
  std::atomic<int>& active_scans() { return active_scans_; }
  int active_scan_count() const {
    return active_scans_.load(std::memory_order_relaxed);
  }

 private:
  struct Chain {
    std::vector<Version> versions;  // ascending commit_ts
  };

  /// Newest version with commit_ts <= ts, or nullptr.
  static const Version* VisibleVersion(const Chain& chain, uint64_t ts);

  /// The chunked read protocol. Walks entries in key order from `lo` (the
  /// first key when null) up to the last key whose prefix is <= `hi` (no
  /// bound when null), handing `visit(pk, version)` the version of each
  /// entry visible at `snapshot_ts`; rows absent or deleted at the
  /// snapshot are skipped. `visit` returns false to stop. Before each
  /// chunk of at most kScanChunkRows entries it passes the writer gate and
  /// takes the shared latch; between chunks the latch drops and the walk
  /// resumes at the first unvisited key. Returns the entries walked.
  template <typename Visit>
  int64_t Sweep(const Row* lo, const Row* hi, uint64_t snapshot_ts,
                Visit&& visit) const;

  /// Erases one (ikey, pk) pair from index `idx` if present. Returns 1 when
  /// an entry was erased.
  size_t EraseIndexEntry(size_t idx, const Row& ikey, const Row& pk)
      REQUIRES(mu_);

  const int table_id_;

  /// All table latches share one rank: the executor pins one table per
  /// scan and never acquires another table's latch inside a scan callback.
  mutable sync::SharedMutex mu_{sync::LockRank::kTableLatch, "mvcc.table"};
  /// Writers hold it while they take and hold mu_ exclusively; chunked
  /// scans pass it (lock, unlock) before each chunk's shared hold.
  mutable sync::Mutex gate_{sync::LockRank::kTableGate, "mvcc.table.gate"};
  /// Every schema snapshot ever published, oldest first; the newest is the
  /// one schema() serves. Grows only on AddIndex (bounded by DDL count), so
  /// retaining the history keeps old references valid forever instead of
  /// racing readers against an in-place mutation.
  std::vector<std::unique_ptr<const TableSchema>> schema_history_
      GUARDED_BY(mu_);
  std::atomic<const TableSchema*> schema_ptr_{nullptr};
  std::map<Row, Chain, KeyLess> rows_ GUARDED_BY(mu_);
  /// One multimap per IndexDef: index key -> primary key. Entries are
  /// inserted on install, verified (lazily invalidated) on lookup, and
  /// physically erased by VacuumBelow when the versions backing them go.
  std::vector<std::multimap<Row, Row, KeyLess>> index_entries_
      GUARDED_BY(mu_);

  std::atomic<int> active_scans_{0};
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_TABLE_H_
