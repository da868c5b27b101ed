// Property tests for the sealed-block column encodings (src/storage/
// column_block.*): every encoding must round-trip the exact boxed values
// it was built from, the selection heuristics must pick the promised
// encoding at each edge, and zone-map skipping must agree with a brute-
// force scan — in both encoded and raw storage modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "exec/vectorized.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/column_block.h"
#include "storage/column_store.h"
#include "storage/schema.h"
#include "storage/wal.h"

namespace olxp::storage {
namespace {

using Enc = EncodedColumn::Enc;

/// Encodes `vals` as an INT column and checks positional round-trip.
EncodedColumn EncodeInts(const std::vector<Value>& vals,
                         bool encode = true) {
  return EncodedColumn::Encode(vals, ValueType::kInt, /*live=*/nullptr,
                               encode);
}

void ExpectRoundTrip(const EncodedColumn& col,
                     const std::vector<Value>& vals) {
  ASSERT_EQ(col.rows(), vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    EXPECT_EQ(col.ValueAt(i), vals[i]);
  }
  EXPECT_EQ(col.Materialize(), vals);
}

// ----------------------------- heuristics ---------------------------------

TEST(Encoding, ConstantColumnBecomesSingleRunRle) {
  std::vector<Value> vals(kBlockSlots, Value::Int(42));
  EncodedColumn col = EncodeInts(vals);
  EXPECT_EQ(col.enc(), Enc::kRle);
  EXPECT_EQ(col.num_runs(), 1u);
  EXPECT_EQ(col.zone_min(), Value::Int(42));
  EXPECT_EQ(col.zone_max(), Value::Int(42));
  ExpectRoundTrip(col, vals);
}

TEST(Encoding, LongRunsPickRleAndAlternatingDoesNot) {
  // Four long runs: RLE wins by a mile.
  std::vector<Value> runs;
  for (size_t i = 0; i < kBlockSlots; ++i) {
    runs.push_back(Value::Int(static_cast<int64_t>(i / 256)));
  }
  EncodedColumn rle = EncodeInts(runs);
  EXPECT_EQ(rle.enc(), Enc::kRle);
  EXPECT_EQ(rle.num_runs(), 4u);
  ExpectRoundTrip(rle, runs);

  // Alternating 0/1: every slot is its own run, so RLE loses to 1-bit
  // packing; singleton runs must never be chosen.
  std::vector<Value> alt;
  for (size_t i = 0; i < kBlockSlots; ++i) {
    alt.push_back(Value::Int(static_cast<int64_t>(i & 1)));
  }
  EncodedColumn packed = EncodeInts(alt);
  EXPECT_EQ(packed.enc(), Enc::kPacked);
  EXPECT_EQ(packed.pack_width(), 1);
  ExpectRoundTrip(packed, alt);
}

TEST(Encoding, BitWidthEdges) {
  // Range {-1, 1}: frame of reference shifts negatives into 2 bits.
  std::vector<Value> narrow;
  for (size_t i = 0; i < kBlockSlots; ++i) {
    narrow.push_back(Value::Int(static_cast<int64_t>(i % 3) - 1));
  }
  EncodedColumn neg = EncodeInts(narrow);
  EXPECT_EQ(neg.enc(), Enc::kPacked);
  EXPECT_EQ(neg.pack_base(), -1);
  EXPECT_EQ(neg.pack_width(), 2);
  ExpectRoundTrip(neg, narrow);

  // INT64_MIN with a tiny range still packs: unsigned range arithmetic
  // must not overflow into a bogus width.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  std::vector<Value> low;
  for (size_t i = 0; i < kBlockSlots; ++i) {
    low.push_back(Value::Int(kMin + static_cast<int64_t>(i % 8)));
  }
  EncodedColumn deep = EncodeInts(low);
  EXPECT_EQ(deep.enc(), Enc::kPacked);
  EXPECT_EQ(deep.pack_base(), kMin);
  EXPECT_EQ(deep.pack_width(), 3);
  ExpectRoundTrip(deep, low);

  // Full-domain range {INT64_MIN, INT64_MAX}: width would be 64, which
  // bit-packing cannot beat — flat array.
  std::vector<Value> wide;
  for (size_t i = 0; i < kBlockSlots; ++i) {
    wide.push_back(Value::Int(i & 1 ? std::numeric_limits<int64_t>::max()
                                    : kMin));
  }
  EncodedColumn flat = EncodeInts(wide);
  EXPECT_EQ(flat.enc(), Enc::kFlatInt);
  ExpectRoundTrip(flat, wide);
}

TEST(Encoding, SmallStringDomainDictionarizesSorted) {
  const char* tags[] = {"delta", "alpha", "echo", "bravo", "charlie"};
  std::vector<Value> vals;
  for (size_t i = 0; i < kBlockSlots; ++i) {
    vals.push_back(Value::String(tags[i % 5]));
  }
  EncodedColumn col =
      EncodedColumn::Encode(vals, ValueType::kString, nullptr, true);
  ASSERT_EQ(col.enc(), Enc::kDict);
  ASSERT_EQ(col.dict_size(), 5u);
  // Code order equals lexicographic order (range predicates compare codes).
  for (uint32_t d = 1; d < col.dict_size(); ++d) {
    EXPECT_LT(col.dict()[d - 1], col.dict()[d]);
  }
  EXPECT_EQ(col.zone_min(), Value::String("alpha"));
  EXPECT_EQ(col.zone_max(), Value::String("echo"));
  ExpectRoundTrip(col, vals);
}

TEST(Encoding, DictionaryOverflowFallsBackToRaw) {
  // More distinct strings than kDictMax: codes would stop paying for the
  // dictionary, so the column stays boxed raw.
  std::vector<Value> vals;
  for (size_t i = 0; i < EncodedColumn::kDictMax + 1; ++i) {
    vals.push_back(Value::String("key_" + std::to_string(1000000 + i)));
  }
  EncodedColumn col =
      EncodedColumn::Encode(vals, ValueType::kString, nullptr, true);
  EXPECT_EQ(col.enc(), Enc::kRaw);
  ExpectRoundTrip(col, vals);
}

TEST(Encoding, DoublesStayFlatAndMixedTypesStayRaw) {
  Rng rng(3);
  std::vector<Value> dbls;
  for (size_t i = 0; i < kBlockSlots; ++i) {
    dbls.push_back(Value::Double(rng.Uniform(0.0, 1.0)));
  }
  EncodedColumn d =
      EncodedColumn::Encode(dbls, ValueType::kDouble, nullptr, true);
  EXPECT_EQ(d.enc(), Enc::kFlatDbl);
  ExpectRoundTrip(d, dbls);

  // A value whose runtime type disagrees with the declared type forces the
  // raw fallback: typed arrays would mis-rebox it.
  std::vector<Value> mixed(kBlockSlots, Value::Int(7));
  mixed[100] = Value::Double(7.5);
  EncodedColumn m = EncodeInts(mixed);
  EXPECT_EQ(m.enc(), Enc::kRaw);
  ExpectRoundTrip(m, mixed);
}

TEST(Encoding, NullsRoundTripAndZonesIgnoreThem) {
  std::vector<Value> vals;
  for (size_t i = 0; i < kBlockSlots; ++i) {
    vals.push_back(i % 5 == 0 ? Value::Null()
                              : Value::Int(static_cast<int64_t>(i % 100)));
  }
  EncodedColumn col = EncodeInts(vals);
  EXPECT_NE(col.enc(), Enc::kRaw);
  EXPECT_NE(col.null_map(), nullptr);
  EXPECT_EQ(col.zone_min(), Value::Int(1));
  EXPECT_EQ(col.zone_max(), Value::Int(99));
  ExpectRoundTrip(col, vals);

  std::vector<Value> all_null(kBlockSlots, Value::Null());
  EncodedColumn n = EncodeInts(all_null);
  EXPECT_TRUE(n.zone_min().is_null());
  ExpectRoundTrip(n, all_null);
}

TEST(Encoding, EncodeOffKeepsRawButStillBuildsZones) {
  std::vector<Value> vals(kBlockSlots, Value::Int(5));
  EncodedColumn col = EncodeInts(vals, /*encode=*/false);
  EXPECT_EQ(col.enc(), Enc::kRaw);
  EXPECT_EQ(col.zone_min(), Value::Int(5));
  EXPECT_EQ(col.zone_max(), Value::Int(5));
  ExpectRoundTrip(col, vals);
}

TEST(Encoding, RandomIntsRoundTripAtEveryWidth) {
  Rng rng(17);
  for (int width = 1; width <= 40; width += 13) {
    SCOPED_TRACE("width " + std::to_string(width));
    const int64_t hi = (int64_t{1} << width) - 1;
    std::vector<Value> vals;
    for (size_t i = 0; i < kBlockSlots; ++i) {
      vals.push_back(Value::Int(rng.Uniform(int64_t{0}, hi)));
    }
    ExpectRoundTrip(EncodeInts(vals), vals);
  }
}

// --------------------------- zone-map skipping -----------------------------

TEST(ZoneMaps, ZoneExcludesMatchesBruteForce) {
  const Value zmin = Value::Int(100);
  const Value zmax = Value::Int(200);
  const ZonePred::Op ops[] = {ZonePred::Op::kEq, ZonePred::Op::kLt,
                              ZonePred::Op::kLe, ZonePred::Op::kGt,
                              ZonePred::Op::kGe};
  for (ZonePred::Op op : ops) {
    for (int64_t lit : {50, 99, 100, 101, 150, 199, 200, 201, 500}) {
      SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)) + " lit " +
                   std::to_string(lit));
      ZonePred pred;
      pred.col = 0;
      pred.op = op;
      pred.lit = Value::Int(lit);
      // Brute force: does any v in [100, 200] satisfy the predicate?
      bool any = false;
      for (int64_t v = 100; v <= 200; ++v) {
        const int c = Value::Int(v).Compare(pred.lit);
        switch (op) {
          case ZonePred::Op::kEq: any |= c == 0; break;
          case ZonePred::Op::kLt: any |= c < 0; break;
          case ZonePred::Op::kLe: any |= c <= 0; break;
          case ZonePred::Op::kGt: any |= c > 0; break;
          case ZonePred::Op::kGe: any |= c >= 0; break;
        }
      }
      EXPECT_EQ(ZoneExcludes(pred, zmin, zmax), !any);
    }
  }
  // NULL zone (no live non-null values) refutes everything; a NULL literal
  // is never satisfiable.
  ZonePred eq;
  eq.lit = Value::Int(150);
  EXPECT_TRUE(ZoneExcludes(eq, Value::Null(), Value::Null()));
  ZonePred nul;
  nul.lit = Value::Null();
  EXPECT_TRUE(ZoneExcludes(nul, zmin, zmax));
}

// --------------------------- table-level churn -----------------------------

TableSchema KvSchema() {
  return TableSchema("kv",
                     {{"k", ValueType::kInt, false},
                      {"v", ValueType::kInt, true},
                      {"tag", ValueType::kString, true}},
                     {0});
}

LogOp Upsert(int64_t k) {
  LogOp op;
  op.kind = LogOp::Kind::kUpsert;
  op.pk = {Value::Int(k)};
  op.data = {Value::Int(k), Value::Int(k % 50),
             Value::String(k % 2 == 0 ? "even" : "odd")};
  return op;
}

LogOp Delete(int64_t k) {
  LogOp op;
  op.kind = LogOp::Kind::kDelete;
  op.pk = {Value::Int(k)};
  return op;
}

/// Catalog of one table (id 0), for compiling statements against a bare
/// ColumnStore.
class OneTableCatalog : public sql::Catalog {
 public:
  explicit OneTableCatalog(TableSchema schema) : schema_(std::move(schema)) {}
  StatusOr<int> TableId(std::string_view name) const override {
    if (name != schema_.name()) return Status::NotFound("no such table");
    return 0;
  }
  const TableSchema& GetSchema(int) const override { return schema_; }

 private:
  TableSchema schema_;
};

/// Live rows a scan of `t` under `preds` reads once zone maps skip blocks.
size_t LiveRowsRead(const ColumnTable& t, std::span<const ZonePred> preds) {
  ColumnTable::ScanPin pin(t);
  return pin.LiveRowsRead(pin.ComputeSkipMask(preds));
}

TEST(ColumnBlocks, SealedTablesAgreeAcrossRawAndEncoded) {
  ColumnTable enc(KvSchema(), /*encode=*/true);
  ColumnTable raw(KvSchema(), /*encode=*/false);
  const int64_t kRows = 3000;  // 2 sealed blocks + tail
  for (int64_t k = 0; k < kRows; ++k) {
    enc.Apply(Upsert(k));
    raw.Apply(Upsert(k));
  }
  ASSERT_EQ(enc.SealedBlockCount(), 2u);
  ASSERT_EQ(raw.SealedBlockCount(), 2u);
  // Raw mode must not compress...
  for (Enc e : raw.BlockEncodings(0)) EXPECT_EQ(e, Enc::kRaw);
  // ...while encoded mode must have found cheaper forms for every column
  // (monotone k packs, k%50 packs or runs, the 2-string tag dictionarizes).
  for (Enc e : enc.BlockEncodings(0)) EXPECT_NE(e, Enc::kRaw);
  EXPECT_LT(enc.EncodedBytes(), raw.EncodedBytes());
  EXPECT_EQ(enc.RawBytes(), raw.RawBytes());

  // Every read surface agrees slot-for-slot.
  for (int64_t k = 0; k < kRows; ++k) {
    ASSERT_EQ(enc.Get({Value::Int(k)}), raw.Get({Value::Int(k)}));
  }
  std::vector<Value> enc_cells;
  std::vector<Value> raw_cells;
  auto collect = [](std::vector<Value>* out) {
    return [out](const ColumnChunkView& v) {
      for (size_t i = 0; i < v.rows; ++i) {
        if (v.live[i] == 0) continue;
        for (int c = 0; c < v.num_cols; ++c) {
          out->push_back(v.value_at(c, i));
        }
      }
      return true;
    };
  };
  EXPECT_EQ(enc.BatchScan(kBlockSlots, collect(&enc_cells)),
            raw.BatchScan(kBlockSlots, collect(&raw_cells)));
  EXPECT_EQ(enc_cells, raw_cells);
}

TEST(ColumnBlocks, SkipMaskMatchesBruteForceAndEstimates) {
  ColumnStore store;
  store.AddTable(0, KvSchema());
  ColumnTable& t = *store.table(0);
  for (int64_t k = 0; k < 5000; ++k) t.Apply(Upsert(k));  // 4 blocks + tail
  ASSERT_EQ(t.SealedBlockCount(), 4u);

  ZonePred pred;
  pred.col = 0;
  pred.op = ZonePred::Op::kLt;
  pred.lit = Value::Int(1500);  // survives blocks 0-1, refutes 2-3
  const std::span<const ZonePred> preds(&pred, 1);

  {
    ColumnTable::ScanPin pin(t);
    const std::vector<uint8_t> mask = pin.ComputeSkipMask(preds);
    ASSERT_EQ(mask.size(), 5u);
    EXPECT_EQ(mask[0], 0);
    EXPECT_EQ(mask[1], 0);
    EXPECT_EQ(mask[2], 1);
    EXPECT_EQ(mask[3], 1);
    EXPECT_EQ(mask[4], 0);  // tail is never skippable
  }
  // The router's estimate counts exactly the rows of the non-skipped
  // chunks. The pin must be gone first: the estimate pins the table itself,
  // and re-acquiring a latch this thread already holds is UB (and
  // deadlocks behind a queued writer) — the router only ever estimates
  // BEFORE execution pins, so the test keeps that order.
  auto parsed = sql::Parse("SELECT v FROM kv WHERE k < 1500");
  ASSERT_TRUE(parsed.ok());
  const OneTableCatalog catalog(KvSchema());  // the plan points into it
  auto stmt = sql::Compile(*parsed, catalog);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const exec::VecExecStats est =
      exec::EstimateReplicaWork(**stmt, {}, store, exec::VecExecOptions{});
  EXPECT_EQ(est.rows_scanned_driver,
            static_cast<int64_t>(2 * kBlockSlots + (5000 - 4 * kBlockSlots)));
  EXPECT_EQ(est.rows_scanned, est.rows_scanned_driver);
  EXPECT_EQ(est.lanes_used, 1);
}

TEST(ColumnBlocks, DeleteChurnTriggersReencodeAndTightensZones) {
  ColumnTable t(KvSchema());
  for (int64_t k = 0; k < static_cast<int64_t>(kBlockSlots) + 100; ++k) {
    t.Apply(Upsert(k));
  }
  ASSERT_EQ(t.SealedBlockCount(), 1u);

  // Kill exactly half of the sealed block: the 512th delete crosses the
  // churn threshold and re-encodes the block with the survivors only, so
  // the key zone tightens from [0, 1023] to [512, 1023] and a k<500 scan
  // can now skip the block (while k<600 still cannot).
  for (int64_t k = 0; k < 512; ++k) t.Apply(Delete(k));
  EXPECT_EQ(t.LiveRowCount(), kBlockSlots + 100 - 512);

  ZonePred pred;
  pred.col = 0;
  pred.op = ZonePred::Op::kLt;
  pred.lit = Value::Int(500);
  EXPECT_EQ(LiveRowsRead(t, std::span<const ZonePred>(&pred, 1)),
            100u);  // tail only
  pred.lit = Value::Int(600);
  EXPECT_EQ(LiveRowsRead(t, std::span<const ZonePred>(&pred, 1)),
            kBlockSlots - 512 + 100);  // the block's survivors + tail

  // Survivors still read back exactly.
  for (int64_t k = 512; k < static_cast<int64_t>(kBlockSlots) + 100; ++k) {
    auto row = t.Get({Value::Int(k)});
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[1], Value::Int(k % 50));
  }
  EXPECT_FALSE(t.Get({Value::Int(10)}).has_value());

  // A fully-dead block is skipped without any predicate at all.
  for (int64_t k = 512; k < static_cast<int64_t>(kBlockSlots); ++k) {
    t.Apply(Delete(k));
  }
  EXPECT_EQ(LiveRowsRead(t, {}), 100u);
}

}  // namespace
}  // namespace olxp::storage
