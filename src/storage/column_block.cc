#include "storage/column_block.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace olxp::storage {

bool ZoneExcludes(const ZonePred& pred, const Value& zmin, const Value& zmax) {
  if (zmin.is_null() || zmax.is_null()) return true;  // no live non-null rows
  if (pred.lit.is_null()) return true;  // NULL comparison is never true
  switch (pred.op) {
    case ZonePred::Op::kEq:
      return pred.lit.Compare(zmin) < 0 || pred.lit.Compare(zmax) > 0;
    case ZonePred::Op::kLt:
      return zmin.Compare(pred.lit) >= 0;
    case ZonePred::Op::kLe:
      return zmin.Compare(pred.lit) > 0;
    case ZonePred::Op::kGt:
      return zmax.Compare(pred.lit) <= 0;
    case ZonePred::Op::kGe:
      return zmax.Compare(pred.lit) < 0;
  }
  return false;
}

namespace {

/// Boxed footprint of one value: the Value object plus string heap chars.
size_t BoxedBytes(const Value& v) {
  size_t b = sizeof(Value);
  if (v.type() == ValueType::kString) b += v.AsString().size();
  return b;
}

}  // namespace

EncodedColumn EncodedColumn::Encode(const std::vector<Value>& vals,
                                    ValueType decl, const uint8_t* live) {
  EncodedColumn c;
  c.type_ = decl;
  c.rows_ = vals.size();
  const size_t n = vals.size();

  size_t raw = 0;
  for (const Value& v : vals) raw += BoxedBytes(v);
  c.raw_bytes_ = raw;

  // One pass: null/dead map, zone map, and a type check. Typed encodings
  // require every live value to carry exactly the declared type (decode
  // reboxes with the declared tag, which must be lossless); anything else —
  // mixed types, values that dodged NormalizeRow — falls back to kRaw.
  std::vector<uint8_t> nulls(n, 0);
  bool any_null = false;
  bool matches_decl = true;
  size_t live_vals = 0;
  for (size_t i = 0; i < n; ++i) {
    const Value& v = vals[i];
    if ((live != nullptr && live[i] == 0) || v.is_null()) {
      nulls[i] = 1;
      any_null = true;
      continue;
    }
    ++live_vals;
    if (v.type() != decl) matches_decl = false;
    if (c.zmin_.is_null() || v.Compare(c.zmin_) < 0) c.zmin_ = v;
    if (c.zmax_.is_null() || v.Compare(c.zmax_) > 0) c.zmax_ = v;
  }
  if (any_null) c.nulls_ = std::move(nulls);

  // Entirely null/dead: one RLE run of zeroes regardless of declared type
  // (every slot reads back NULL through the bitmap).
  if (live_vals == 0 && n > 0) {
    c.enc_ = Enc::kRle;
    c.runs_ = {RleRun{0, 0}};
    c.encoded_bytes_ = sizeof(RleRun) + c.nulls_.size();
    return c;
  }

  const bool int_family =
      decl == ValueType::kInt || decl == ValueType::kTimestamp;
  bool encodable =
      matches_decl &&
      (int_family || decl == ValueType::kDouble || decl == ValueType::kString);

  // Sorted string dictionary: code order == lexicographic order, so range
  // predicates can compare codes directly. Overflowing kDictMax distinct
  // values falls back to raw.
  std::vector<std::string> dict;
  if (encodable && decl == ValueType::kString) {
    dict.reserve(64);
    for (size_t i = 0; i < n; ++i) {
      if (!c.null_at(i)) dict.push_back(vals[i].AsString());
    }
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    encodable = dict.size() <= kDictMax;
  }

  if (!encodable) {
    // Raw fallback: boxed values, dead slots nulled so their payloads
    // (e.g. strings) are dropped on re-encode.
    c.enc_ = Enc::kRaw;
    c.raw_.reserve(n);
    size_t bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      c.raw_.push_back(c.null_at(i) ? Value::Null() : vals[i]);
      bytes += BoxedBytes(c.raw_.back());
    }
    c.encoded_bytes_ = bytes + c.nulls_.size();
    return c;
  }

  if (decl == ValueType::kDouble) {
    c.enc_ = Enc::kFlatDbl;
    c.dbls_.resize(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (!c.null_at(i)) c.dbls_[i] = vals[i].AsDouble();
    }
    c.encoded_bytes_ = n * sizeof(double) + c.nulls_.size();
    return c;
  }

  if (decl == ValueType::kString) {
    c.enc_ = Enc::kDict;
    c.dict_ = std::move(dict);
    c.codes_.resize(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (c.null_at(i)) continue;
      auto it = std::lower_bound(c.dict_.begin(), c.dict_.end(),
                                 vals[i].AsString());
      c.codes_[i] = static_cast<uint32_t>(it - c.dict_.begin());
    }
    size_t dict_bytes = c.dict_.size() * sizeof(std::string);
    for (const std::string& s : c.dict_) dict_bytes += s.size();
    c.encoded_bytes_ = n * sizeof(uint32_t) + dict_bytes + c.nulls_.size();
    return c;
  }

  // Integer family (INT and TIMESTAMP share int64 storage; the declared
  // type reboxes on decode). Null/dead slots store the minimum so their
  // packed offset is zero and they merge into neighboring RLE runs.
  std::vector<int64_t> xs(n, 0);
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < n; ++i) {
    if (c.null_at(i)) continue;
    xs[i] = vals[i].AsInt();
    mn = std::min(mn, xs[i]);
    mx = std::max(mx, xs[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (c.null_at(i)) xs[i] = mn;
  }

  size_t num_runs = n > 0 ? 1 : 0;
  for (size_t i = 1; i < n; ++i) num_runs += xs[i] != xs[i - 1] ? 1 : 0;

  // Unsigned subtraction is two's-complement-safe for any int64 range,
  // including INT64_MIN..INT64_MAX (range wraps to 2^64-1 -> width 64 ->
  // not packable).
  const uint64_t range =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
  if (range == 0) {
    // Constant column (after placeholder substitution): one run.
    c.enc_ = Enc::kRle;
    c.runs_ = {RleRun{0, mn}};
    c.encoded_bytes_ = sizeof(RleRun) + c.nulls_.size();
    return c;
  }
  const int width = 64 - std::countl_zero(range);
  const size_t flat_bytes = n * sizeof(int64_t);
  const size_t rle_bytes = num_runs * sizeof(RleRun);
  const size_t packed_bytes =
      width >= 64 ? flat_bytes : ((n * width + 63) / 64) * sizeof(uint64_t);

  // RLE pays a binary search per random access, so it must win by 4x over
  // the cheapest positional encoding to be worth it.
  if (rle_bytes * 4 <= std::min(packed_bytes, flat_bytes)) {
    c.enc_ = Enc::kRle;
    c.runs_.reserve(num_runs);
    for (size_t i = 0; i < n; ++i) {
      if (i == 0 || xs[i] != xs[i - 1]) {
        c.runs_.push_back(RleRun{static_cast<uint32_t>(i), xs[i]});
      }
    }
    c.encoded_bytes_ = c.runs_.size() * sizeof(RleRun) + c.nulls_.size();
    return c;
  }
  if (width < 64 && packed_bytes < flat_bytes) {
    c.enc_ = Enc::kPacked;
    c.base_ = mn;
    c.width_ = static_cast<uint8_t>(width);
    c.packed_.assign((n * width + 63) / 64, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t off =
          static_cast<uint64_t>(xs[i]) - static_cast<uint64_t>(mn);
      const size_t bit = i * width;
      const size_t word = bit >> 6;
      const unsigned sh = static_cast<unsigned>(bit & 63);
      c.packed_[word] |= off << sh;
      if (sh + width > 64) c.packed_[word + 1] |= off >> (64 - sh);
    }
    c.encoded_bytes_ = packed_bytes + c.nulls_.size();
    return c;
  }
  c.enc_ = Enc::kFlatInt;
  c.ints_ = std::move(xs);
  c.encoded_bytes_ = flat_bytes + c.nulls_.size();
  return c;
}

Value EncodedColumn::ValueAt(size_t i) const {
  if (null_at(i)) return Value::Null();
  switch (enc_) {
    case Enc::kRaw:
      return raw_[i];
    case Enc::kFlatInt:
      return ReboxInt(ints_[i]);
    case Enc::kFlatDbl:
      return Value::Double(dbls_[i]);
    case Enc::kDict:
      return Value::String(dict_[codes_[i]]);
    case Enc::kRle:
      return ReboxInt(runs_[RleRunIndex(runs_.data(), runs_.size(), i)].value);
    case Enc::kPacked: {
      const uint64_t off = UnpackBits(packed_.data(), width_, i);
      return ReboxInt(
          static_cast<int64_t>(static_cast<uint64_t>(base_) + off));
    }
  }
  return Value::Null();
}

std::vector<Value> EncodedColumn::Materialize() const {
  std::vector<Value> out;
  out.reserve(rows_);
  for (size_t i = 0; i < rows_; ++i) out.push_back(ValueAt(i));
  return out;
}

void ColumnBlock::RebuildSpans() {
  spans.resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    const EncodedColumn& e = cols[c];
    ColumnSpan& s = spans[c];
    s = ColumnSpan{};
    s.enc = e.enc();
    s.type = e.decl_type();
    s.nulls = e.null_map();
    switch (e.enc()) {
      case EncodedColumn::Enc::kRaw:
        s.flat = e.raw_data();
        break;
      case EncodedColumn::Enc::kFlatInt:
        s.ints = e.int_data();
        break;
      case EncodedColumn::Enc::kFlatDbl:
        s.dbls = e.dbl_data();
        break;
      case EncodedColumn::Enc::kDict:
        s.codes = e.codes();
        s.dict = e.dict();
        s.dict_size = e.dict_size();
        break;
      case EncodedColumn::Enc::kRle:
        s.runs = e.runs();
        s.num_runs = e.num_runs();
        break;
      case EncodedColumn::Enc::kPacked:
        s.packed = e.packed();
        s.pack_base = e.pack_base();
        s.pack_width = e.pack_width();
        break;
    }
  }
}

size_t ColumnBlock::encoded_bytes() const {
  size_t b = 0;
  for (const EncodedColumn& c : cols) b += c.encoded_bytes();
  return b;
}

size_t ColumnBlock::raw_bytes() const {
  size_t b = 0;
  for (const EncodedColumn& c : cols) b += c.raw_bytes();
  return b;
}

}  // namespace olxp::storage
