#ifndef OLXP_STORAGE_COLUMN_STORE_H_
#define OLXP_STORAGE_COLUMN_STORE_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/value.h"
#include "storage/column_block.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace olxp::obs {
class MetricsRegistry;
}  // namespace olxp::obs

namespace olxp::storage {

/// A window over one table's column storage, built by ScanPin::Chunk:
/// `rows` consecutive slots starting at global
/// slot `base`, live-slot flags, and per-column span descriptors pointing
/// into exactly one sealed block or the mutable tail (a chunk never
/// straddles the boundary). Kernels read the encoded arrays in place;
/// `value_at` is the boxed decode-on-read path for cold code. Pointers are
/// valid only while the scan holds the table's shared latch.
struct ColumnChunkView {
  size_t base = 0;                ///< first global slot of the chunk
  size_t rows = 0;                ///< slots in the chunk
  size_t offset = 0;              ///< base relative to the span arrays
  const uint8_t* live = nullptr;  ///< [rows] 1 = live (chunk-local)
  const ColumnSpan* cols = nullptr;  ///< [num_cols] encoding descriptors
  int num_cols = 0;

  const ColumnSpan& span(int col) const { return cols[col]; }

  bool null_at(int col, size_t i) const {
    const ColumnSpan& s = cols[col];
    return s.nulls != nullptr && s.nulls[offset + i] != 0;
  }

  /// Boxed value of column `col` at chunk-relative row `i` (decodes the
  /// block encoding; NULL for null/dead slots). Replaces the old
  /// reference-returning `at`: encoded slots have no boxed Value to
  /// reference, so the result is by value.
  Value value_at(int col, size_t i) const {
    const ColumnSpan& s = cols[col];
    const size_t p = offset + i;
    if (s.nulls != nullptr && s.nulls[p] != 0) return Value::Null();
    switch (s.enc) {
      case EncodedColumn::Enc::kRaw:
        return s.flat[p];
      case EncodedColumn::Enc::kFlatInt:
        return Rebox(s.type, s.ints[p]);
      case EncodedColumn::Enc::kFlatDbl:
        return Value::Double(s.dbls[p]);
      case EncodedColumn::Enc::kDict:
        return Value::String(s.dict[s.codes[p]]);
      case EncodedColumn::Enc::kRle:
        return Rebox(s.type, s.runs[RleRunIndex(s.runs, s.num_runs, p)].value);
      case EncodedColumn::Enc::kPacked:
        return Rebox(s.type,
                     static_cast<int64_t>(static_cast<uint64_t>(s.pack_base) +
                                          UnpackBits(s.packed, s.pack_width,
                                                     p)));
    }
    return Value::Null();
  }

 private:
  static Value Rebox(ValueType t, int64_t v) {
    return t == ValueType::kTimestamp ? Value::Timestamp(v) : Value::Int(v);
  }
};

/// Columnar replica of one table, stored as immutable sealed blocks of
/// kBlockSlots slots plus a mutable boxed tail. Sealed blocks hold
/// per-column encoded data (dictionary / RLE / bit-packing / flat arrays
/// with a raw fallback) and min/max zone maps; the tail takes replicated
/// writes and seals when full. Deletes against sealed blocks mark slots
/// dead; enough churn re-encodes the block in place (slot numbering never
/// changes). A primary-key hash index maps rows to global slots. Mirrors
/// TiFlash's role: analytical scans run here and take no row-store locks.
class ColumnTable {
 public:
  explicit ColumnTable(TableSchema schema);

  ColumnTable(const ColumnTable&) = delete;
  ColumnTable& operator=(const ColumnTable&) = delete;

  const TableSchema& schema() const { return schema_; }

  /// Applies one replicated mutation (called by the Replicator only).
  void Apply(const LogOp& op);

  /// Point lookup by primary key.
  std::optional<Row> Get(const Row& pk) const;

  size_t LiveRowCount() const;

  /// Total storage slots (live + dead). A scan walks every slot, so this
  /// is the size the morsel dispatcher partitions.
  size_t SlotCount() const;

  /// Footprint of the current storage: encoded bytes as held in memory vs.
  /// the boxed-Value bytes the same data would occupy. The tail counts as
  /// boxed on both sides.
  size_t EncodedBytes() const;
  size_t RawBytes() const;

  // Scan telemetry (fed to per-table gauges): blocks read vs. blocks
  // skipped by zone maps across all scans so far. Plain atomics — scans
  // hold only the shared latch.
  void RecordScanBlocks(int64_t scanned, int64_t skipped) const {
    blocks_scanned_.fetch_add(scanned, std::memory_order_relaxed);
    blocks_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  }
  int64_t blocks_scanned() const {
    return blocks_scanned_.load(std::memory_order_relaxed);
  }
  int64_t blocks_skipped() const {
    return blocks_skipped_.load(std::memory_order_relaxed);
  }

  // Block introspection for tests.
  size_t SealedBlockCount() const;
  std::vector<EncodedColumn::Enc> BlockEncodings(size_t block) const;

  /// Pins the table for a scan: the shared latch is held for the pin's
  /// lifetime, freezing the slot count, live flags, sealed blocks and tail
  /// while any number of execution lanes read Chunk() views concurrently.
  /// Writers (the replicator) block until the pin is released. Every
  /// replica sweep of the vectorized engine goes through its one scan
  /// driver (exec::MorselScan), which holds the only pin per scan.
  class SCOPED_CAPABILITY ScanPin {
   public:
    explicit ScanPin(const ColumnTable& table) ACQUIRE_SHARED(table.mu_);
    ~ScanPin() RELEASE();

    ScanPin(const ScanPin&) = delete;
    ScanPin& operator=(const ScanPin&) = delete;

    size_t total_slots() const { return total_; }

    /// View of up to `rows` slots starting at `base`, clamped to the table
    /// and to the containing block (a view never spans two blocks or block
    /// and tail). Valid while the pin is alive; safe to build concurrently
    /// from many threads.
    ColumnChunkView Chunk(size_t base, size_t rows) const;

    /// One flag per kBlockSlots-aligned chunk of the pinned table: 1 when
    /// the whole block is skippable — dead, or some predicate's zone check
    /// refutes it. Tail chunks are never skippable (no zones yet).
    std::vector<uint8_t> ComputeSkipMask(
        std::span<const ZonePred> preds) const;

    /// Live rows a scan under `skip` (a ComputeSkipMask result) visits: the
    /// live slots of every chunk the mask keeps.
    size_t LiveRowsRead(std::span<const uint8_t> skip) const;

   private:
    const ColumnTable& table_;
    size_t total_ = 0;
    size_t sealed_ = 0;
    const uint8_t* live_ = nullptr;
    const ColumnBlock* blocks_ = nullptr;
    size_t num_blocks_ = 0;
    std::vector<ColumnSpan> tail_spans_;
    int num_cols_ = 0;
  };

 private:
  /// Encodes the (full) tail into a sealed block and resets the tail.
  void SealTailLocked() REQUIRES(mu_);
  /// Re-encodes sealed block `b` with current live flags: dead payloads
  /// drop out, dictionaries/runs shrink, zone maps tighten.
  void ReencodeBlockLocked(size_t b) REQUIRES(mu_);
  /// Marks a sealed slot dead and re-encodes its block past the churn
  /// threshold.
  void RetireSealedSlotLocked(size_t slot) REQUIRES(mu_);
  /// Boxed value of column `c` at global slot `slot`.
  Value SlotValueLocked(int c, size_t slot) const REQUIRES_SHARED(mu_);
  /// Fills per-column tail span descriptors (kRaw over the tail vectors).
  void FillTailSpansLocked(std::vector<ColumnSpan>* spans) const
      REQUIRES_SHARED(mu_);

  TableSchema schema_;
  mutable sync::SharedMutex mu_{sync::LockRank::kTableLatch, "column.table"};
  std::vector<ColumnBlock> blocks_ GUARDED_BY(mu_);
  size_t sealed_slots_ GUARDED_BY(mu_) = 0;  // == blocks_.size()*kBlockSlots
  std::vector<std::vector<Value>> tail_cols_ GUARDED_BY(mu_);  // [col][idx]
  std::vector<uint8_t> live_ GUARDED_BY(mu_);  // [global slot] 1 = live
  std::vector<size_t> free_slots_ GUARDED_BY(mu_);  // tail slots only
  std::unordered_map<Row, size_t, KeyHash, KeyEq> pk_to_slot_
      GUARDED_BY(mu_);
  mutable std::atomic<int64_t> blocks_scanned_{0};
  mutable std::atomic<int64_t> blocks_skipped_{0};
};

/// The set of columnar replicas plus the replication watermark.
class ColumnStore {
 public:
  /// Registers a replica for `table_id` with the given schema.
  void AddTable(int table_id, TableSchema schema);

  ColumnTable* table(int table_id);
  const ColumnTable* table(int table_id) const;

  /// Applies a full commit record; advances the watermark.
  void ApplyCommit(const CommitRecord& rec);

  /// Publishes per-table storage gauges (column.<table>.bytes_encoded,
  /// .bytes_raw, .blocks_scanned, .blocks_skipped) into `metrics`.
  void PublishMetrics(obs::MetricsRegistry* metrics) const;

  /// Highest commit_ts fully applied (freshness watermark). OLAP snapshot
  /// reads on the replica are "as of" this timestamp.
  uint64_t replicated_ts() const {
    return replicated_ts_.load(std::memory_order_acquire);
  }

  /// Count of live analytical scans on the replica (contention signal for
  /// the latency model; columnar scans do not lock the row store).
  std::atomic<int>& active_scans() { return active_scans_; }

 private:
  std::unordered_map<int, std::unique_ptr<ColumnTable>> tables_;
  std::atomic<uint64_t> replicated_ts_{0};
  std::atomic<int> active_scans_{0};
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_COLUMN_STORE_H_
