#include "storage/table.h"

namespace olxp::storage {

const Version* MvccTable::VisibleVersion(const Chain& chain, uint64_t ts) {
  for (auto it = chain.versions.rbegin(); it != chain.versions.rend(); ++it) {
    if (it->commit_ts <= ts) return &*it;
  }
  return nullptr;
}

uint64_t MvccTable::LatestCommitTs(const Row& pk) const {
  sync::ReaderLock lk(mu_);
  auto it = rows_.find(pk);
  if (it == rows_.end() || it->second.versions.empty()) return 0;
  return it->second.versions.back().commit_ts;
}

std::optional<Row> MvccTable::Get(const Row& pk, uint64_t snapshot_ts) const {
  sync::ReaderLock lk(mu_);
  auto it = rows_.find(pk);
  if (it == rows_.end()) return std::nullopt;
  const Version* v = VisibleVersion(it->second, snapshot_ts);
  if (v == nullptr || v->deleted) return std::nullopt;
  return v->data;
}

Status MvccTable::InstallVersion(const Row& pk, uint64_t commit_ts,
                                 bool deleted, Row data) {
  sync::MutexLock gate(gate_);
  sync::WriterLock lk(mu_);
  const TableSchema& sch = schema();
  if (index_entries_.size() != sch.indexes().size()) {
    index_entries_.resize(sch.indexes().size());
  }
  Chain& chain = rows_[pk];
  if (!chain.versions.empty() &&
      chain.versions.back().commit_ts > commit_ts) {
    // Refuse rather than corrupt: VisibleVersion walks chains newest-first
    // assuming ascending commit_ts, so an out-of-order install would make
    // every later read of this row wrong. (If the install created the
    // chain just now, leaving the empty shell behind is harmless — it
    // reads as absent and the vacuum reclaims it.)
    return Status::Internal(
        "non-monotone commit ts on " + sch.name() + ": chain at " +
        std::to_string(chain.versions.back().commit_ts) + ", installing " +
        std::to_string(commit_ts));
  }
  if (!deleted) {
    for (size_t i = 0; i < sch.indexes().size(); ++i) {
      Row ikey = sch.ExtractIndexKey(sch.indexes()[i], data);
      // Avoid duplicate (ikey, pk) pairs: check the narrow equal_range.
      auto [b, e] = index_entries_[i].equal_range(ikey);
      bool present = false;
      for (auto it = b; it != e; ++it) {
        if (KeyEq()(it->second, pk)) {
          present = true;
          break;
        }
      }
      if (!present) index_entries_[i].emplace(std::move(ikey), pk);
    }
  }
  chain.versions.push_back(Version{commit_ts, deleted, std::move(data)});
  return Status::OK();
}

int64_t MvccTable::Scan(uint64_t snapshot_ts, const RowCallback& cb) const {
  int64_t visited = 0;
  bool stopped = false;
  Row resume;
  bool has_resume = false;
  // Chunked latch-dropping sweep (same pattern as ForEachCommitted): the
  // shared lock covers at most kScanChunkRows rows at a time, so
  // InstallVersion never waits behind a whole-table analytical scan.
  // Per-key snapshot visibility keeps the merged result consistent across
  // the gaps.
  while (!stopped) {
    { sync::MutexLock gate(gate_); }  // behind any waiting writer
    sync::ReaderLock lk(mu_);
    auto it = has_resume ? rows_.lower_bound(resume) : rows_.begin();
    size_t n = 0;
    for (; it != rows_.end() && n < kScanChunkRows; ++it, ++n) {
      ++visited;
      const Version* v = VisibleVersion(it->second, snapshot_ts);
      if (v == nullptr || v->deleted) continue;
      if (!cb(v->data)) {
        stopped = true;
        break;
      }
    }
    if (it == rows_.end()) break;
    resume = it->first;  // first key of the next chunk
    has_resume = true;
  }
  rows_scanned_.fetch_add(static_cast<uint64_t>(visited),
                          std::memory_order_relaxed);
  return visited;
}

int64_t MvccTable::ScanPkRange(const Row& lo, const Row& hi,
                               uint64_t snapshot_ts,
                               const RowCallback& cb) const {
  int64_t visited = 0;
  bool stopped = false;
  Row resume;
  bool has_resume = false;
  while (!stopped) {
    { sync::MutexLock gate(gate_); }  // behind any waiting writer
    sync::ReaderLock lk(mu_);
    auto it = has_resume ? rows_.lower_bound(resume) : rows_.lower_bound(lo);
    size_t n = 0;
    for (; it != rows_.end() && n < kScanChunkRows; ++it, ++n) {
      // Stop once past `hi`; prefix keys compare less than any extension,
      // so test hi < prefix(pk, hi.size()) — in place, no per-row copy.
      const Row& pk = it->first;
      if (ComparePrefix(pk, hi.size(), hi) > 0) {
        stopped = true;
        break;
      }
      ++visited;
      const Version* v = VisibleVersion(it->second, snapshot_ts);
      if (v == nullptr || v->deleted) continue;
      if (!cb(v->data)) {
        stopped = true;
        break;
      }
    }
    if (it == rows_.end()) break;
    resume = it->first;
    has_resume = true;
  }
  rows_scanned_.fetch_add(static_cast<uint64_t>(visited),
                          std::memory_order_relaxed);
  return visited;
}

int64_t MvccTable::IndexLookup(int index_id, const Row& key,
                               uint64_t snapshot_ts,
                               std::vector<Row>* out) const {
  sync::ReaderLock lk(mu_);
  if (index_id < 0 ||
      static_cast<size_t>(index_id) >= index_entries_.size()) {
    return 0;
  }
  const TableSchema& sch = schema();
  const IndexDef& def = sch.indexes()[index_id];
  int64_t visited = 0;
  const auto& idx = index_entries_[index_id];
  // Support prefix lookups: [key, key] as prefix range.
  auto it = idx.lower_bound(key);
  for (; it != idx.end(); ++it) {
    const Row& ikey = it->first;
    if (ComparePrefix(ikey, key.size(), key) > 0) break;
    ++visited;
    auto rit = rows_.find(it->second);
    if (rit == rows_.end()) continue;
    const Version* v = VisibleVersion(rit->second, snapshot_ts);
    if (v == nullptr || v->deleted) continue;
    // Verify the row still carries this index key (stale-entry filter).
    Row live_key = sch.ExtractIndexKey(def, v->data);
    if (!PrefixEq(live_key, key.size(), key)) continue;
    out->push_back(v->data);
  }
  rows_scanned_.fetch_add(static_cast<uint64_t>(visited),
                          std::memory_order_relaxed);
  return visited;
}

Status MvccTable::AddIndex(IndexDef def) {
  sync::MutexLock gate(gate_);
  sync::WriterLock lk(mu_);
  // Copy-on-write: never mutate the published snapshot in place — lock-free
  // schema() readers may be walking it right now. Build the successor,
  // backfill its entries, then publish.
  auto next = std::make_unique<TableSchema>(schema());
  OLXP_RETURN_NOT_OK(next->AddIndex(def));
  index_entries_.resize(next->indexes().size());
  auto& entries = index_entries_.back();
  const IndexDef& added = next->indexes().back();
  for (const auto& [pk, chain] : rows_) {
    if (chain.versions.empty() || chain.versions.back().deleted) continue;
    entries.emplace(next->ExtractIndexKey(added, chain.versions.back().data),
                    pk);
  }
  schema_history_.push_back(std::move(next));
  schema_ptr_.store(schema_history_.back().get(), std::memory_order_release);
  return Status::OK();
}

void MvccTable::ForEachCommitted(
    uint64_t snapshot_ts,
    const std::function<bool(const Row& pk, uint64_t commit_ts,
                             const Row& data)>& cb) const {
  // Chunked: the checkpoint writer deep-copies every row it visits, and
  // holding the reader lock across a whole large table would stall every
  // committer's InstallVersion for the duration. Dropping the lock between
  // chunks is safe because visibility is by snapshot_ts — rows installed
  // in between carry newer timestamps and stay invisible to this pass.
  Row resume;
  bool has_resume = false;
  for (;;) {
    { sync::MutexLock gate(gate_); }  // behind any waiting writer
    sync::ReaderLock lk(mu_);
    auto it = has_resume ? rows_.lower_bound(resume) : rows_.begin();
    size_t n = 0;
    for (; it != rows_.end() && n < kScanChunkRows; ++it, ++n) {
      const Version* v = VisibleVersion(it->second, snapshot_ts);
      if (v == nullptr || v->deleted) continue;
      if (!cb(it->first, v->commit_ts, v->data)) return;
    }
    if (it == rows_.end()) return;
    resume = it->first;  // first key of the next chunk
    has_resume = true;
  }
}

size_t MvccTable::ApproxRowCount() const {
  sync::ReaderLock lk(mu_);
  return rows_.size();
}

size_t MvccTable::TotalVersionCount() const {
  sync::ReaderLock lk(mu_);
  size_t n = 0;
  for (const auto& [pk, chain] : rows_) n += chain.versions.size();
  return n;
}

size_t MvccTable::IndexEntryCount() const {
  sync::ReaderLock lk(mu_);
  size_t n = 0;
  for (const auto& idx : index_entries_) n += idx.size();
  return n;
}

size_t MvccTable::EraseIndexEntry(size_t idx, const Row& ikey,
                                  const Row& pk) {
  auto [b, e] = index_entries_[idx].equal_range(ikey);
  for (auto it = b; it != e; ++it) {
    if (KeyEq()(it->second, pk)) {
      index_entries_[idx].erase(it);
      return 1;
    }
  }
  return 0;
}

VacuumStats MvccTable::VacuumBelow(uint64_t watermark, size_t batch_rows) {
  VacuumStats stats;
  if (watermark == 0) return stats;
  if (batch_rows == 0) batch_rows = 1;
  Row resume;
  bool has_resume = false;
  // Scratch buffers hoisted out of the loop (reused across chains).
  std::vector<Row> erased_keys;
  std::vector<Row> survivor_keys;
  for (;;) {
    sync::MutexLock gate(gate_);
    sync::WriterLock lk(mu_);
    auto it = has_resume ? rows_.lower_bound(resume) : rows_.begin();
    size_t n = 0;
    while (it != rows_.end() && n < batch_rows) {
      ++n;
      Chain& chain = it->second;
      // Newest version with commit_ts <= watermark: everything strictly
      // older is unreachable from any snapshot >= watermark, and the
      // registry guarantees no live snapshot is below the watermark.
      size_t wm_idx = chain.versions.size();
      for (size_t i = chain.versions.size(); i-- > 0;) {
        if (chain.versions[i].commit_ts <= watermark) {
          wm_idx = i;
          break;
        }
      }
      if (wm_idx == chain.versions.size()) {
        ++it;  // nothing at or below the watermark (or empty chain)
        continue;
      }
      const bool dead_chain = chain.versions[wm_idx].deleted &&
                              wm_idx + 1 == chain.versions.size();
      const size_t erase_end = dead_chain ? chain.versions.size() : wm_idx;
      if (erase_end == 0) {
        ++it;
        continue;
      }
      // Purge index entries backed only by erased versions: an (ikey, pk)
      // pair must survive iff some surviving version still carries ikey
      // (readers above the watermark can see exactly those versions).
      for (size_t i = 0; i < index_entries_.size(); ++i) {
        const IndexDef& def = schema().indexes()[i];
        erased_keys.clear();
        survivor_keys.clear();
        for (size_t v = 0; v < erase_end; ++v) {
          if (chain.versions[v].deleted) continue;
          erased_keys.push_back(
              schema().ExtractIndexKey(def, chain.versions[v].data));
        }
        if (erased_keys.empty()) continue;
        for (size_t v = erase_end; v < chain.versions.size(); ++v) {
          if (chain.versions[v].deleted) continue;
          survivor_keys.push_back(
              schema().ExtractIndexKey(def, chain.versions[v].data));
        }
        for (const Row& ikey : erased_keys) {
          bool still_carried = false;
          for (const Row& skey : survivor_keys) {
            if (KeyEq()(skey, ikey)) {
              still_carried = true;
              break;
            }
          }
          if (!still_carried) {
            stats.index_entries_removed += EraseIndexEntry(i, ikey, it->first);
          }
        }
      }
      stats.versions_removed += erase_end;
      if (dead_chain) {
        ++stats.chains_removed;
        it = rows_.erase(it);
      } else {
        chain.versions.erase(chain.versions.begin(),
                             chain.versions.begin() +
                                 static_cast<std::ptrdiff_t>(erase_end));
        ++it;
      }
    }
    if (it == rows_.end()) return stats;
    resume = it->first;  // latch drops here; committers interleave
    has_resume = true;
  }
}

}  // namespace olxp::storage
