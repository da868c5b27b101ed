#ifndef OLXP_STORAGE_COLUMN_BLOCK_H_
#define OLXP_STORAGE_COLUMN_BLOCK_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/schema.h"

namespace olxp::storage {

/// Slots per sealed block. Equal to the vectorized engine's chunk size
/// (kVecChunkRows) and a divisor of every normalized morsel size, so one
/// execution chunk never straddles two blocks: a chunk is either a window
/// into exactly one sealed block or into the mutable tail.
inline constexpr size_t kBlockSlots = 1024;

/// One run of an RLE-encoded integer column. `start` is the first slot of
/// the run; the run extends to the next run's start (or the block end).
/// Runs are sorted by start, so positional access is a binary search and
/// a forward scan is a pointer walk.
struct RleRun {
  uint32_t start = 0;
  int64_t value = 0;
};

/// A sargable predicate bound lowered from a filter conjunct, evaluated
/// against per-block zone maps to skip whole blocks. `!=` is deliberately
/// absent: a min/max range can almost never refute it.
struct ZonePred {
  enum class Op : uint8_t { kEq, kLt, kLe, kGt, kGe };
  int col = 0;
  Op op = Op::kEq;
  Value lit;
};

/// True when the zone [zmin, zmax] proves no row in the block can satisfy
/// `pred`. A null zmin means the block holds no live non-null value in the
/// column, which refutes every comparison (SQL comparisons with NULL are
/// never true). Conservative: false never causes a wrong skip, it only
/// costs a scan.
bool ZoneExcludes(const ZonePred& pred, const Value& zmin, const Value& zmax);

/// Reads `width` bits (1..63) at logical index `i` from a little-endian
/// packed word array. Hot path of the packed-integer scan kernels.
inline uint64_t UnpackBits(const uint64_t* words, uint8_t width, size_t i) {
  const size_t bit = i * width;
  const size_t word = bit >> 6;
  const unsigned off = static_cast<unsigned>(bit & 63);
  uint64_t v = words[word] >> off;
  if (off + width > 64) v |= words[word + 1] << (64 - off);
  return v & ((uint64_t{1} << width) - 1);
}

/// Index of the RLE run covering slot `i` (binary search over run starts).
inline size_t RleRunIndex(const RleRun* runs, size_t num_runs, size_t i) {
  size_t lo = 0;
  size_t hi = num_runs;  // invariant: runs[lo].start <= i < runs[hi].start
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (runs[mid].start <= i) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// One column of one sealed block in its encoded form, plus the metadata
/// scans need: a null/dead bitmap, a min/max zone map over live non-null
/// values, and footprint accounting. Immutable once built; re-encoding
/// replaces the whole object under the table's writer latch.
///
/// Encodings (selected per block per column at seal time):
///   kRaw      boxed Values — mixed-type columns or dictionary overflow
///   kFlatInt  plain int64 array (ints/timestamps with no cheaper form)
///   kFlatDbl  plain double array
///   kDict     sorted string dictionary + uint32 codes; code order equals
///             lexicographic order, so range predicates compare codes
///   kRle      run-length-encoded int64s (few long runs)
///   kPacked   bit-packed offsets from a base (frame of reference)
class EncodedColumn {
 public:
  enum class Enc : uint8_t { kRaw, kFlatInt, kFlatDbl, kDict, kRle, kPacked };

  /// Distinct-value ceiling for dictionary encoding; beyond it the column
  /// falls back to kRaw (codes would stop paying for the dictionary).
  static constexpr size_t kDictMax = 4096;

  /// Encodes `vals` (one block's worth of one column). `live`, when
  /// non-null, marks dead slots (0 = dead) that are stored as NULL
  /// placeholders — they are never read (LiveRows filters them) but keep
  /// slot positions stable.
  static EncodedColumn Encode(const std::vector<Value>& vals, ValueType decl,
                              const uint8_t* live);

  /// Boxed value at slot `i` (NULL for null/dead slots). Positional,
  /// decode-on-read; the vectorized kernels use the flat arrays instead.
  Value ValueAt(size_t i) const;

  /// Boxed copy of the whole column (used to re-encode a churned block).
  std::vector<Value> Materialize() const;

  Enc enc() const { return enc_; }
  ValueType decl_type() const { return type_; }
  const Value& zone_min() const { return zmin_; }
  const Value& zone_max() const { return zmax_; }
  size_t rows() const { return rows_; }
  size_t encoded_bytes() const { return encoded_bytes_; }
  size_t raw_bytes() const { return raw_bytes_; }

  bool null_at(size_t i) const { return !nulls_.empty() && nulls_[i] != 0; }

  // Encoded payload accessors (valid per enc(); pointers are stable for
  // the lifetime of this object — heap buffers survive vector moves).
  const Value* raw_data() const { return raw_.data(); }
  const int64_t* int_data() const { return ints_.data(); }
  const double* dbl_data() const { return dbls_.data(); }
  const uint32_t* codes() const { return codes_.data(); }
  const std::string* dict() const { return dict_.data(); }
  uint32_t dict_size() const { return static_cast<uint32_t>(dict_.size()); }
  const RleRun* runs() const { return runs_.data(); }
  uint32_t num_runs() const { return static_cast<uint32_t>(runs_.size()); }
  const uint64_t* packed() const { return packed_.data(); }
  int64_t pack_base() const { return base_; }
  uint8_t pack_width() const { return width_; }
  const uint8_t* null_map() const {
    return nulls_.empty() ? nullptr : nulls_.data();
  }

 private:
  /// Reboxes a decoded int64 with the column's declared type tag.
  Value ReboxInt(int64_t v) const {
    return type_ == ValueType::kTimestamp ? Value::Timestamp(v)
                                          : Value::Int(v);
  }

  Enc enc_ = Enc::kRaw;
  ValueType type_ = ValueType::kNull;
  size_t rows_ = 0;
  std::vector<Value> raw_;        // kRaw
  std::vector<int64_t> ints_;     // kFlatInt
  std::vector<double> dbls_;      // kFlatDbl
  std::vector<uint32_t> codes_;   // kDict
  std::vector<std::string> dict_; // kDict, sorted ascending
  std::vector<RleRun> runs_;      // kRle
  std::vector<uint64_t> packed_;  // kPacked
  int64_t base_ = 0;              // kPacked frame-of-reference bias
  uint8_t width_ = 0;             // kPacked bits per value (1..63)
  std::vector<uint8_t> nulls_;    // 1 = null/dead; empty = none
  Value zmin_;                    // min over live non-null (kNull if none)
  Value zmax_;
  size_t encoded_bytes_ = 0;
  size_t raw_bytes_ = 0;
};

/// Per-column view descriptor handed to scan kernels: the encoding tag
/// plus direct pointers into the block's (or tail's) storage. Kernels
/// switch on `enc` once per chunk and then run tight flat-array loops.
/// All array pointers address FULL-block slot positions; chunk views add
/// their `offset` before indexing.
struct ColumnSpan {
  EncodedColumn::Enc enc = EncodedColumn::Enc::kRaw;
  ValueType type = ValueType::kNull;
  const uint8_t* nulls = nullptr;   // 1 = null/dead; nullptr = none
  const Value* flat = nullptr;      // kRaw
  const int64_t* ints = nullptr;    // kFlatInt
  const double* dbls = nullptr;     // kFlatDbl
  const uint32_t* codes = nullptr;  // kDict
  const std::string* dict = nullptr;
  uint32_t dict_size = 0;
  const RleRun* runs = nullptr;     // kRle
  uint32_t num_runs = 0;
  const uint64_t* packed = nullptr; // kPacked
  int64_t pack_base = 0;
  uint8_t pack_width = 0;
};

/// One sealed block: every column encoded, plus live-row bookkeeping that
/// drives zone-map skipping (live_count == 0 skips unconditionally) and
/// the re-encode policy (dead_since_encode accumulates delete churn).
/// `spans` is rebuilt whenever `cols` changes; its pointers target the
/// EncodedColumns' heap buffers, so they stay valid across vector moves
/// of the ColumnBlock itself.
struct ColumnBlock {
  std::vector<EncodedColumn> cols;
  std::vector<ColumnSpan> spans;
  size_t live_count = 0;
  size_t dead_since_encode = 0;

  void RebuildSpans();
  size_t encoded_bytes() const;
  size_t raw_bytes() const;
};

}  // namespace olxp::storage

#endif  // OLXP_STORAGE_COLUMN_BLOCK_H_
