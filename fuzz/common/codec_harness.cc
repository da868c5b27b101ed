#include "fuzz/common/codec_harness.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/value.h"
#include "fuzz/common/byte_reader.h"
#include "storage/column_block.h"

namespace olxp::fuzz {
namespace {

using storage::EncodedColumn;
using storage::ZoneExcludes;
using storage::ZonePred;

[[noreturn]] void Fail(const char* what, size_t slot, const Value& want,
                       const Value& got) {
  std::fprintf(stderr,
               "CODEC PROPERTY VIOLATION (%s) at slot %zu: want %s, got %s\n",
               what, slot, want.ToString().c_str(), got.ToString().c_str());
  std::abort();
}

int64_t InterestingInt(ByteReader& r) {
  switch (r.Int(0, 9)) {
    case 0:
      return 0;
    case 1:
      return -1;
    case 2:
      return std::numeric_limits<int64_t>::max();
    case 3:
      return std::numeric_limits<int64_t>::min();
    case 4:
      return static_cast<int64_t>(r.U64());  // arbitrary full-width
    case 5:
      // Clustered values: provokes RLE (few distinct, long runs).
      return r.Int(0, 3);
    default:
      // Narrow range around a base: provokes frame-of-reference packing.
      return r.Int(100000, 100255);
  }
}

Value MakeValue(ByteReader& r, ValueType decl) {
  switch (decl) {
    case ValueType::kInt:
      return Value::Int(InterestingInt(r));
    case ValueType::kTimestamp:
      return Value::Timestamp(InterestingInt(r));
    case ValueType::kDouble:
      switch (r.Int(0, 5)) {
        case 0:
          return Value::Double(0.0);
        case 1:
          return Value::Double(std::numeric_limits<double>::infinity());
        case 2:
          return Value::Double(-std::numeric_limits<double>::infinity());
        default:
          return Value::Double(static_cast<double>(r.Int(-100000, 100000)) /
                               16.0);
      }
    default:
      return Value::String(r.Ascii(12, "abxyz_019"));
  }
}

bool Satisfies(const ZonePred& pred, const Value& v) {
  const int cmp = v.Compare(pred.lit);
  switch (pred.op) {
    case ZonePred::Op::kEq:
      return cmp == 0;
    case ZonePred::Op::kLt:
      return cmp < 0;
    case ZonePred::Op::kLe:
      return cmp <= 0;
    case ZonePred::Op::kGt:
      return cmp > 0;
    case ZonePred::Op::kGe:
      return cmp >= 0;
  }
  return false;
}

void CheckColumn(const std::vector<Value>& vals, ValueType decl,
                 const std::vector<uint8_t>& live, bool mixed,
                 ByteReader& r) {
  const size_t n = vals.size();
  const uint8_t* live_ptr = live.empty() ? nullptr : live.data();
  const EncodedColumn enc = EncodedColumn::Encode(vals, decl, live_ptr);

  // Expected boxed view: dead slots read as NULL, everything else verbatim.
  auto expected = [&](size_t i) -> Value {
    if (live_ptr != nullptr && live[i] == 0) return Value::Null();
    return vals[i];
  };

  for (size_t i = 0; i < n; ++i) {
    const Value want = expected(i);
    const Value got = enc.ValueAt(i);
    if (got != want) Fail("ValueAt", i, want, got);
  }

  const std::vector<Value> mat = enc.Materialize();
  if (mat.size() != n) {
    Fail("Materialize size", mat.size(), Value::Int(static_cast<int64_t>(n)),
         Value::Int(static_cast<int64_t>(mat.size())));
  }
  for (size_t i = 0; i < n; ++i) {
    if (mat[i] != expected(i)) Fail("Materialize", i, expected(i), mat[i]);
  }

  // Re-encode round trip (the churned-block re-encode path): dead slots
  // were materialized as NULL, so the second generation has no live map.
  const EncodedColumn again = EncodedColumn::Encode(mat, decl, nullptr);
  for (size_t i = 0; i < n; ++i) {
    if (again.ValueAt(i) != expected(i)) {
      Fail("re-encode ValueAt", i, expected(i), again.ValueAt(i));
    }
  }

  // Zone-map semantics are only contractual for type-homogeneous columns
  // (NormalizeRow keeps real tables that way; cross-type Value ordering is
  // a tag order, not a SQL order).
  if (mixed) return;

  // Zone maps are exactly the min and max of the live non-null values,
  // whichever form (or the raw fallback) the column took — skipping must
  // not depend on the encoding.
  Value bf_min;
  Value bf_max;
  for (size_t i = 0; i < n; ++i) {
    const Value v = expected(i);
    if (v.is_null()) continue;
    if (bf_min.is_null() || v < bf_min) bf_min = v;
    if (bf_max.is_null() || v > bf_max) bf_max = v;
  }
  // (Compare orders NULL below every value, so != also catches a NULL zone
  // over live values and vice versa.)
  if (enc.zone_min() != bf_min) Fail("zone min", 0, bf_min, enc.zone_min());
  if (enc.zone_max() != bf_max) Fail("zone max", 0, bf_max, enc.zone_max());

  // ZoneExcludes soundness: a refuted block must hold no satisfying live
  // value. (Completeness is not required — a kept block may still be
  // empty-handed — but a wrong skip silently drops rows from results.)
  constexpr ZonePred::Op kOps[] = {ZonePred::Op::kEq, ZonePred::Op::kLt,
                                   ZonePred::Op::kLe, ZonePred::Op::kGt,
                                   ZonePred::Op::kGe};
  for (int t = 0; t < 8; ++t) {
    ZonePred pred;
    pred.op = kOps[static_cast<size_t>(r.Int(0, 4))];
    // Half the probes use an actual stored value as the literal (the case
    // a wrong skip would hide); half use fresh input-derived literals.
    if (n > 0 && r.Bool()) {
      pred.lit = expected(static_cast<size_t>(r.Int(0, static_cast<int64_t>(n) - 1)));
      if (pred.lit.is_null()) pred.lit = MakeValue(r, decl);
    } else {
      pred.lit = MakeValue(r, decl);
    }
    if (!ZoneExcludes(pred, enc.zone_min(), enc.zone_max())) continue;
    for (size_t i = 0; i < n; ++i) {
      const Value v = expected(i);
      if (v.is_null()) continue;
      if (Satisfies(pred, v)) {
        std::fprintf(stderr,
                     "CODEC PROPERTY VIOLATION (ZoneExcludes) slot %zu: "
                     "value %s satisfies refuted pred (lit %s)\n",
                     i, v.ToString().c_str(), pred.lit.ToString().c_str());
        std::abort();
      }
    }
  }
}

}  // namespace

int CodecOne(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  constexpr ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                  ValueType::kString, ValueType::kTimestamp};
  const ValueType decl = r.Pick(kTypes);
  const size_t n =
      static_cast<size_t>(r.Int(0, static_cast<int64_t>(storage::kBlockSlots)));

  const bool mixed = r.Int(0, 15) == 0;  // mixed-type column -> kRaw fallback
  std::vector<Value> vals;
  vals.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (r.Int(0, 7) == 0) {
      vals.push_back(Value::Null());
    } else if (mixed && r.Bool()) {
      vals.push_back(MakeValue(r, r.Pick(kTypes)));
    } else {
      vals.push_back(MakeValue(r, decl));
    }
  }

  std::vector<uint8_t> live;
  if (r.Bool()) {
    live.resize(n, 1);
    for (size_t i = 0; i < n; ++i) {
      if (r.Int(0, 7) == 0) live[i] = 0;  // dead slot
    }
  }

  CheckColumn(vals, decl, live, mixed, r);
  return 0;
}

}  // namespace olxp::fuzz
