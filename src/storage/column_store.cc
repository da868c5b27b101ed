#include "storage/column_store.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace olxp::storage {

namespace {

/// Dead-slot fraction of a sealed block that triggers re-encoding.
bool ReencodeDue(size_t dead_since_encode) {
  return dead_since_encode * 2 >= kBlockSlots;
}

size_t BoxedColumnBytes(const std::vector<Value>& col) {
  size_t b = col.size() * sizeof(Value);
  for (const Value& v : col) {
    if (v.type() == ValueType::kString) b += v.AsString().size();
  }
  return b;
}

}  // namespace

ColumnTable::ColumnTable(TableSchema schema) : schema_(std::move(schema)) {
  sync::WriterLock lk(mu_);
  tail_cols_.resize(schema_.num_columns());
}

void ColumnTable::SealTailLocked() {
  assert(free_slots_.empty());  // a full tail has every slot live
  assert(tail_cols_.empty() || tail_cols_[0].size() == kBlockSlots);
  ColumnBlock blk;
  blk.cols.reserve(tail_cols_.size());
  for (size_t c = 0; c < tail_cols_.size(); ++c) {
    blk.cols.push_back(EncodedColumn::Encode(
        tail_cols_[c], schema_.columns()[c].type, nullptr));
  }
  blk.live_count = kBlockSlots;
  blk.RebuildSpans();
  blocks_.push_back(std::move(blk));
  sealed_slots_ += kBlockSlots;
  for (auto& col : tail_cols_) col.clear();
}

void ColumnTable::ReencodeBlockLocked(size_t b) {
  ColumnBlock& blk = blocks_[b];
  const uint8_t* lv = live_.data() + b * kBlockSlots;
  for (size_t c = 0; c < blk.cols.size(); ++c) {
    std::vector<Value> vals = blk.cols[c].Materialize();
    blk.cols[c] = EncodedColumn::Encode(vals, schema_.columns()[c].type, lv);
  }
  blk.RebuildSpans();
  blk.dead_since_encode = 0;
}

void ColumnTable::RetireSealedSlotLocked(size_t slot) {
  live_[slot] = 0;
  const size_t b = slot / kBlockSlots;
  ColumnBlock& blk = blocks_[b];
  --blk.live_count;
  ++blk.dead_since_encode;
  if (ReencodeDue(blk.dead_since_encode)) ReencodeBlockLocked(b);
}

void ColumnTable::Apply(const LogOp& op) {
  sync::WriterLock lk(mu_);
  auto it = pk_to_slot_.find(op.pk);
  if (op.kind == LogOp::Kind::kDelete) {
    if (it == pk_to_slot_.end()) return;  // replicated delete of absent row
    const size_t slot = it->second;
    pk_to_slot_.erase(it);
    if (slot < sealed_slots_) {
      RetireSealedSlotLocked(slot);
    } else {
      live_[slot] = 0;
      free_slots_.push_back(slot);  // tail slots are reusable holes
    }
    return;
  }
  assert(op.data.size() == static_cast<size_t>(schema_.num_columns()));
  if (it != pk_to_slot_.end()) {
    const size_t slot = it->second;
    if (slot >= sealed_slots_) {
      // Tail rows update in place.
      const size_t t = slot - sealed_slots_;
      for (int c = 0; c < schema_.num_columns(); ++c) {
        tail_cols_[c][t] = op.data[c];
      }
      return;
    }
    // Sealed blocks are immutable: retire the old slot and re-insert the
    // row into the tail below.
    pk_to_slot_.erase(it);
    RetireSealedSlotLocked(slot);
  }
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    const size_t t = slot - sealed_slots_;
    for (int c = 0; c < schema_.num_columns(); ++c) {
      tail_cols_[c][t] = op.data[c];
    }
    live_[slot] = 1;
  } else {
    slot = live_.size();
    live_.push_back(1);
    for (int c = 0; c < schema_.num_columns(); ++c) {
      tail_cols_[c].push_back(op.data[c]);
    }
    if (!tail_cols_.empty() && tail_cols_[0].size() == kBlockSlots) {
      SealTailLocked();
    }
  }
  pk_to_slot_.emplace(op.pk, slot);
}

Value ColumnTable::SlotValueLocked(int c, size_t slot) const {
  if (slot < sealed_slots_) {
    return blocks_[slot / kBlockSlots].cols[c].ValueAt(slot % kBlockSlots);
  }
  return tail_cols_[c][slot - sealed_slots_];
}

void ColumnTable::FillTailSpansLocked(std::vector<ColumnSpan>* spans) const {
  spans->resize(tail_cols_.size());
  for (size_t c = 0; c < tail_cols_.size(); ++c) {
    ColumnSpan& s = (*spans)[c];
    s = ColumnSpan{};
    s.enc = EncodedColumn::Enc::kRaw;
    s.type = schema_.columns()[c].type;
    s.flat = tail_cols_[c].data();
  }
}

ColumnTable::ScanPin::ScanPin(const ColumnTable& table) : table_(table) {
  table_.mu_.LockShared();
  total_ = table.live_.size();
  sealed_ = table.sealed_slots_;
  live_ = table.live_.data();
  blocks_ = table.blocks_.data();
  num_blocks_ = table.blocks_.size();
  num_cols_ = table.schema_.num_columns();
  table.FillTailSpansLocked(&tail_spans_);
}

ColumnTable::ScanPin::~ScanPin() { table_.mu_.UnlockShared(); }

ColumnChunkView ColumnTable::ScanPin::Chunk(size_t base, size_t rows) const {
  ColumnChunkView view;
  view.base = base;
  view.num_cols = num_cols_;
  if (base >= total_) {
    view.rows = 0;
    return view;
  }
  rows = std::min(rows, total_ - base);
  if (base < sealed_) {
    const size_t b = base / kBlockSlots;
    rows = std::min(rows, (b + 1) * kBlockSlots - base);
    view.cols = blocks_[b].spans.data();
    view.offset = base - b * kBlockSlots;
  } else {
    view.cols = tail_spans_.data();
    view.offset = base - sealed_;
  }
  view.rows = rows;
  view.live = live_ + base;
  return view;
}

std::vector<uint8_t> ColumnTable::ScanPin::ComputeSkipMask(
    std::span<const ZonePred> preds) const {
  const size_t nchunks = (total_ + kBlockSlots - 1) / kBlockSlots;
  std::vector<uint8_t> mask(nchunks, 0);
  for (size_t b = 0; b < num_blocks_ && b < nchunks; ++b) {
    if (blocks_[b].live_count == 0) {
      mask[b] = 1;
      continue;
    }
    for (const ZonePred& p : preds) {
      if (p.col < 0 || p.col >= num_cols_) continue;
      const EncodedColumn& c = blocks_[b].cols[p.col];
      if (ZoneExcludes(p, c.zone_min(), c.zone_max())) {
        mask[b] = 1;
        break;
      }
    }
  }
  return mask;
}

size_t ColumnTable::ScanPin::LiveRowsRead(
    std::span<const uint8_t> skip) const {
  size_t rows = 0;
  for (size_t b = 0; b < num_blocks_; ++b) {
    if (b >= skip.size() || skip[b] == 0) rows += blocks_[b].live_count;
  }
  for (size_t s = sealed_; s < total_; ++s) rows += live_[s];  // the tail
  return rows;
}

std::optional<Row> ColumnTable::Get(const Row& pk) const {
  sync::ReaderLock lk(mu_);
  auto it = pk_to_slot_.find(pk);
  if (it == pk_to_slot_.end()) return std::nullopt;
  Row row(schema_.num_columns());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    row[c] = SlotValueLocked(c, it->second);
  }
  return row;
}

size_t ColumnTable::LiveRowCount() const {
  sync::ReaderLock lk(mu_);
  return pk_to_slot_.size();
}

size_t ColumnTable::SlotCount() const {
  sync::ReaderLock lk(mu_);
  return live_.size();
}

size_t ColumnTable::EncodedBytes() const {
  sync::ReaderLock lk(mu_);
  size_t b = 0;
  for (const ColumnBlock& blk : blocks_) b += blk.encoded_bytes();
  for (const auto& col : tail_cols_) b += BoxedColumnBytes(col);
  return b;
}

size_t ColumnTable::RawBytes() const {
  sync::ReaderLock lk(mu_);
  size_t b = 0;
  for (const ColumnBlock& blk : blocks_) b += blk.raw_bytes();
  for (const auto& col : tail_cols_) b += BoxedColumnBytes(col);
  return b;
}

size_t ColumnTable::SealedBlockCount() const {
  sync::ReaderLock lk(mu_);
  return blocks_.size();
}

std::vector<EncodedColumn::Enc> ColumnTable::BlockEncodings(
    size_t block) const {
  sync::ReaderLock lk(mu_);
  std::vector<EncodedColumn::Enc> encs;
  if (block >= blocks_.size()) return encs;
  encs.reserve(blocks_[block].cols.size());
  for (const EncodedColumn& c : blocks_[block].cols) encs.push_back(c.enc());
  return encs;
}

void ColumnStore::AddTable(int table_id, TableSchema schema) {
  tables_[table_id] = std::make_unique<ColumnTable>(std::move(schema));
}

ColumnTable* ColumnStore::table(int table_id) {
  auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second.get();
}

const ColumnTable* ColumnStore::table(int table_id) const {
  auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second.get();
}

void ColumnStore::ApplyCommit(const CommitRecord& rec) {
  for (const LogOp& op : rec.ops) {
    ColumnTable* t = table(op.table_id);
    if (t != nullptr) t->Apply(op);
  }
  replicated_ts_.store(rec.commit_ts, std::memory_order_release);
}

void ColumnStore::PublishMetrics(obs::MetricsRegistry* metrics) const {
  for (const auto& [id, t] : tables_) {
    const std::string prefix = "column." + t->schema().name() + ".";
    metrics->GetGauge(prefix + "bytes_encoded")
        ->Set(static_cast<double>(t->EncodedBytes()));
    metrics->GetGauge(prefix + "bytes_raw")
        ->Set(static_cast<double>(t->RawBytes()));
    metrics->GetGauge(prefix + "blocks_scanned")
        ->Set(static_cast<double>(t->blocks_scanned()));
    metrics->GetGauge(prefix + "blocks_skipped")
        ->Set(static_cast<double>(t->blocks_skipped()));
  }
}

}  // namespace olxp::storage
