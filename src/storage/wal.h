#ifndef OLXP_STORAGE_WAL_H_
#define OLXP_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "storage/schema.h"

namespace olxp::storage {

/// One logical row mutation inside a committed transaction.
struct LogOp {
  enum class Kind { kUpsert, kDelete };
  Kind kind = Kind::kUpsert;
  int table_id = 0;
  Row pk;
  Row data;  ///< full row image for upserts; empty for deletes
};

/// A committed transaction's redo record.
struct CommitRecord {
  uint64_t commit_ts = 0;
  int64_t commit_wall_us = 0;  ///< wall time of commit (drives replication lag)
  std::vector<LogOp> ops;
};

// ---------------------------------------------------------------------------
// Durable write-ahead log
// ---------------------------------------------------------------------------

/// How hard commits push their redo record toward the disk. The paper's TiDB
/// deployment persists every commit through a raft log before acking; the
/// seed engine kept the log purely in memory, so durability never cost
/// anything. These modes span that spectrum.
enum class DurabilityMode {
  kOff,    ///< in-memory log only; a restart loses the database
  kAsync,  ///< background writes to the segment file, fsync only on rotation
  kSync,   ///< naive WAL: every commit write()s and fsync()s before acking
  kGroup,  ///< group commit: one fsync covers every commit in the batch
};

const char* DurabilityModeName(DurabilityMode m);
StatusOr<DurabilityMode> DurabilityModeByName(std::string_view name);

/// Configuration for the disk-backed segment writer.
struct WalOptions {
  std::string dir;  ///< segment + checkpoint directory (must be writable)
  DurabilityMode mode = DurabilityMode::kGroup;
  /// Group mode: after the first record of a batch arrives, the flusher
  /// waits this long for stragglers before the covering fsync. 0 still
  /// batches naturally (everything that arrived during the previous fsync).
  int64_t group_commit_window_us = 100;
  uint64_t segment_bytes = 16ull << 20;  ///< rotation threshold
  /// Optional metrics sink (wal.* counters, fsync latency, group-commit
  /// batch size). Must outlive the writer.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One decoded WAL frame. Commit frames carry redo; DDL frames let recovery
/// rebuild the catalog before replaying row mutations into it.
struct WalFrame {
  enum class Type : uint8_t {
    kCommit = 1,
    kCreateTable = 2,
    kCreateIndex = 3,
  };
  Type type = Type::kCommit;
  uint64_t seq = 0;  ///< global WAL sequence number (1-based, monotone)

  CommitRecord commit;      // kCommit
  int table_id = 0;         // kCreateTable
  TableSchema schema;       // kCreateTable
  std::string table_name;   // kCreateIndex
  IndexDef index;           // kCreateIndex
};

/// CRC-32 (ISO-HDLC polynomial) over `data`; every WAL frame and the
/// checkpoint body carry one so recovery can reject torn or corrupt tails.
uint32_t Crc32(const void* data, size_t len);

/// Serializes `frame` as one length+CRC delimited record into `out`
/// (appending). Exposed for tests; WalWriter uses it internally.
void EncodeFrame(const WalFrame& frame, std::string* out);

/// Decodes one frame from `data` at `*offset`, advancing it past the frame.
/// Returns false (without advancing) on a torn/corrupt/short record.
bool DecodeFrame(const std::string& data, size_t* offset, WalFrame* frame);

/// Disk-backed WAL segment writer. Appends are framed, CRC-protected, and
/// assigned monotone sequence numbers; segments rotate at `segment_bytes`
/// and are named by the first sequence number they may contain
/// (wal-<seq>.seg), so a checkpoint can delete fully-covered prefixes.
///
/// Thread-safe. Group commit is leader-based: the first committer to reach
/// WaitDurable performs the write+fsync covering everything enqueued so
/// far, later committers wait and the next one through becomes the next
/// leader — no flusher-thread handoff sits on the commit path. Async mode
/// runs a background flusher (nobody waits on it); sync mode writes and
/// fsyncs inline in Append (the naive per-commit baseline the durability
/// bench contrasts with group commit).
class WalWriter {
 public:
  /// Opens a writer appending from sequence `next_seq` (1 for a fresh
  /// database; recovery passes max replayed seq + 1). Creates the directory
  /// if needed and always starts a fresh segment, so a torn tail left by a
  /// crash is never appended to.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const WalOptions& opts,
                                                   uint64_t next_seq);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  DurabilityMode mode() const { return opts_.mode; }

  /// Appends a commit frame; returns its sequence number. In sync mode the
  /// record is durable on return; in group mode pass the ticket to
  /// WaitDurable(); in async mode durability is best-effort.
  uint64_t AppendCommit(const CommitRecord& rec);

  /// Appends a create-table DDL frame and forces it durable (DDL is rare;
  /// recovery cannot replay rows into a table it does not know).
  uint64_t AppendCreateTable(int table_id, const TableSchema& schema);

  /// Appends a create-index DDL frame and forces it durable.
  uint64_t AppendCreateIndex(const std::string& table_name,
                             const IndexDef& def);

  /// Blocks until frame `seq` is covered by an fsync (group mode only;
  /// sync mode is already durable on Append and async mode never waits —
  /// both just report the sticky I/O state). `seq` 0 skips the wait.
  /// Returns the first write/fsync/rotation failure ever hit: a commit
  /// must not be acknowledged as durable on a log that stopped persisting.
  Status WaitDurable(uint64_t seq) EXCLUDES(mu_, io_mu_);

  /// Writes and fsyncs everything pending (checkpoint barrier, shutdown).
  Status Flush() EXCLUDES(mu_, io_mu_);

  /// First I/O failure this writer hit (sticky), or OK.
  Status last_error() const EXCLUDES(mu_);

  /// Deletes segment files whose every frame has seq < `seq` (called after
  /// a checkpoint covering that prefix landed). The active segment is never
  /// deleted.
  void DeleteSegmentsBefore(uint64_t seq) EXCLUDES(io_mu_);

  /// Next sequence number to be assigned.
  uint64_t next_seq() const EXCLUDES(mu_);

  /// fsync() calls issued so far (durability-cost accounting for benches).
  uint64_t fsync_count() const {
    return fsyncs_.load(std::memory_order_relaxed);
  }
  /// Bytes appended to segment files so far.
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  explicit WalWriter(WalOptions opts);

  Status OpenSegment(uint64_t first_seq) REQUIRES(io_mu_);
  /// Assigns the next sequence number and enqueues one framed record whose
  /// payload is [type, seq, body] (body pre-encoded by the caller, outside
  /// any lock and without copying the source record).
  uint64_t AppendBody(WalFrame::Type type, const std::string& body,
                      bool force_durable) EXCLUDES(mu_);
  /// Marks the sticky I/O failure (first message wins) and wakes every
  /// group-commit waiter so none hangs on a log that stopped persisting.
  Status RecordIoError(const std::string& what) EXCLUDES(mu_);
  /// Takes every pending frame and writes it as one batch, fsynced when
  /// `sync` (Flush, the group-commit leader) and written behind otherwise
  /// (the async flusher). With nothing pending, `sync` still fsyncs bytes
  /// an earlier write-behind left unsynced, unless the log already failed.
  Status WriteBatch(bool sync) EXCLUDES(mu_, io_mu_);
  /// Writes `buf` (holding `records` frames) to the active segment and
  /// optionally fsyncs; rotates afterwards when the segment outgrew the
  /// threshold.
  Status WriteAndMaybeSync(const std::string& buf, uint64_t last_seq,
                           size_t records, bool sync)
      REQUIRES(io_mu_) EXCLUDES(mu_);
  void FlusherLoop() EXCLUDES(mu_, io_mu_);

  const WalOptions opts_;

  /// io_mu_ serializes file writes (WriteBatch, DeleteSegmentsBefore);
  /// mu_ orders sequence assignment and guards the pending buffer.
  sync::Mutex io_mu_{sync::LockRank::kWalIo, "wal.io"};
  mutable sync::Mutex mu_ ACQUIRED_AFTER(io_mu_){sync::LockRank::kWalPending,
                                                 "wal.pending"};
  sync::CondVar pending_cv_;  ///< wakes the flusher
  sync::CondVar durable_cv_;  ///< wakes group-commit waiters
  std::string pending_ GUARDED_BY(mu_);  ///< encoded frames awaiting write
  uint64_t pending_last_seq_ GUARDED_BY(mu_) = 0;
  size_t pending_count_ GUARDED_BY(mu_) = 0;  ///< frames in pending_
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::atomic<uint64_t> durable_seq_{0};
  /// A leader holds the fsync baton.
  bool group_flush_in_progress_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  std::atomic<bool> io_failed_{false};
  Status io_error_ GUARDED_BY(mu_);  ///< first failure, sticky

  int fd_ GUARDED_BY(io_mu_) = -1;
  uint64_t segment_size_ GUARDED_BY(io_mu_) = 0;
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::thread flusher_;

  // Cached metric handles (null when WalOptions::metrics is unset).
  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_fsyncs_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_rotations_ = nullptr;
  obs::Histogram* m_fsync_us_ = nullptr;
  obs::Histogram* m_batch_records_ = nullptr;
};

/// Replays every WAL frame with seq >= `from_seq` in `dir` in sequence
/// order, stopping cleanly at a torn tail (a crash mid-write leaves a
/// partial record at the end of the newest segment; it was never acked, so
/// it is skipped, as is anything after it in that segment). `max_seq_seen`
/// receives the highest sequence number decoded (0 when none).
Status ReplayWal(const std::string& dir, uint64_t from_seq,
                 const std::function<Status(WalFrame&&)>& cb,
                 uint64_t* max_seq_seen);

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Snapshot of one table at checkpoint time: schema (including indexes and
/// resolved foreign keys) plus every committed row with its original commit
/// timestamp. Tombstoned rows are simply absent — segments older than the
/// checkpoint are deleted, so their deletes never replay.
struct CheckpointTable {
  int table_id = 0;
  TableSchema schema;
  std::vector<std::pair<uint64_t, Row>> rows;  // (commit_ts, full row)
};

/// A full database checkpoint: recovery loads this, then replays WAL frames
/// with seq >= wal_next_seq on top.
struct CheckpointImage {
  uint64_t oracle_ts = 0;      ///< timestamp watermark to re-seed the oracle
  uint64_t wal_next_seq = 1;   ///< first WAL seq NOT covered by the image
  std::vector<CheckpointTable> tables;  // creation order (FK refs resolve)
};

/// Atomically replaces the checkpoint in `dir` (write tmp, fsync, rename).
Status WriteCheckpoint(const std::string& dir, const CheckpointImage& image);

/// Loads the checkpoint from `dir`; NotFound when none exists. A corrupt
/// image (bad CRC) fails with Internal rather than silently losing data.
StatusOr<CheckpointImage> ReadCheckpoint(const std::string& dir);

// ---------------------------------------------------------------------------
// In-memory commit log (replication feed)
// ---------------------------------------------------------------------------

/// In-memory ordered redo log connecting the row store to the columnar
/// replica. The paper's TiDB deployment ships TiKV raft logs to TiFlash
/// asynchronously; this log plus the Replicator reproduce that pipeline
/// (ordering, watermarks, configurable lag) without the network. With a
/// WalWriter attached, Append also persists each record to disk — the
/// durable half of the pipeline.
class CommitLog {
 public:
  /// Appends a record (commit_ts must be monotone; enforced by the caller
  /// holding commit order through the timestamp oracle). Returns a
  /// durability ticket for WaitDurable, or 0 when no wait is needed (no WAL
  /// attached, or a mode that does not block commits).
  uint64_t Append(CommitRecord rec);

  /// Blocks until the WAL covered `ticket` with an fsync (ticket 0 skips
  /// the wait) and returns the log's sticky I/O state — non-OK when the
  /// record may never reach disk. Called by committing transactions AFTER
  /// releasing row locks, so the group-commit batch forms across
  /// concurrent committers. OK when no WAL is attached.
  Status WaitDurable(uint64_t ticket);

  /// Attaches the durable segment writer (engine startup, before any
  /// transaction runs). Not thread-safe against concurrent Append.
  void AttachWal(WalWriter* wal) { wal_ = wal; }

  /// When false, Append still feeds the WAL but drops the in-memory record:
  /// unified-store engines never start the Replicator, and retaining every
  /// commit forever would grow memory without bound during long runs.
  void set_retain_records(bool retain) {
    sync::MutexLock lk(mu_);
    retain_records_ = retain;
  }

  /// Drains records with sequence number >= `from_seq` whose wall commit
  /// time is <= `max_wall_us` into `out`, and returns the next sequence
  /// number to resume from. Consuming: each record's op payload is MOVED
  /// out (not deep-copied — a replicator poll would otherwise copy every
  /// row image twice), so a sequence number may be fetched only once. The
  /// Replicator, the single consumer, trims past what it fetched right
  /// after applying.
  uint64_t Fetch(uint64_t from_seq, int64_t max_wall_us,
                 std::vector<CommitRecord>* out);

  /// Drops records with sequence number < `up_to_seq` (applied by all
  /// consumers). Keeps memory bounded during long runs.
  void Trim(uint64_t up_to_seq);

  /// Total records ever appended.
  uint64_t size() const;

  /// Commit timestamp of the oldest record at or after sequence `from_seq`
  /// still retained in memory, or 0 when none is pending. The replicator
  /// pins the MVCC vacuum's watermark here while its apply frontier lags,
  /// so a future replica rebuild from the row store can always reread what
  /// the pipeline has not shipped yet.
  uint64_t OldestPendingCommitTs(uint64_t from_seq) const;

 private:
  mutable sync::Mutex mu_{sync::LockRank::kCommitLog, "commitlog"};
  std::deque<CommitRecord> records_ GUARDED_BY(mu_);
  uint64_t base_seq_ GUARDED_BY(mu_) = 0;  ///< seq of records_.front()
  bool retain_records_ GUARDED_BY(mu_) = true;
  /// Wired once by AttachWal before any transaction runs and immutable
  /// afterwards (deliberately not lock-guarded: Append reads it outside
  /// mu_ so the disk append never runs inside the in-memory critical
  /// section).
  WalWriter* wal_ = nullptr;
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_WAL_H_
