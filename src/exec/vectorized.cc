#include "exec/vectorized.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "exec/hash_join.h"
#include "exec/morsel.h"
#include "exec/vec.h"
#include "exec/vexpr.h"
#include "sql/bound_plan.h"

namespace olxp::exec {

namespace {

using sql::AggAccum;
using sql::BoundExpr;
using sql::BoundOrderItem;
using sql::BoundSelect;
using sql::TableStep;

/// Accumulates a whole argument vector into one aggregate accumulator with
/// typed inner loops; min/max merge as Values once per chunk, not per row.
void AccumulateVec(AggAccum* acc, const Vec& v) {
  const size_t n = v.n;
  if (n == 0 || v.type == ValueType::kNull) return;
  if (v.type == ValueType::kInt || v.type == ValueType::kTimestamp) {
    bool has = false;
    int64_t lo = 0, hi = 0;
    for (size_t i = 0; i < n; ++i) {
      if (v.null_at(i)) continue;
      int64_t x = v.int_at(i);
      ++acc->count;
      acc->AddInt(x);
      acc->AddDouble(static_cast<double>(x));
      if (!has) {
        lo = hi = x;
        has = true;
      } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
    }
    if (has) {
      Value vlo = v.type == ValueType::kTimestamp ? Value::Timestamp(lo)
                                                  : Value::Int(lo);
      Value vhi = v.type == ValueType::kTimestamp ? Value::Timestamp(hi)
                                                  : Value::Int(hi);
      if (acc->min.is_null() || vlo.Compare(acc->min) < 0) acc->min = vlo;
      if (acc->max.is_null() || vhi.Compare(acc->max) > 0) acc->max = vhi;
    }
    return;
  }
  if (v.type == ValueType::kDouble) {
    bool has = false;
    double lo = 0, hi = 0;
    for (size_t i = 0; i < n; ++i) {
      if (v.null_at(i)) continue;
      double x = v.dbl_at(i);
      ++acc->count;
      acc->any_double = true;
      acc->AddDouble(x);
      if (!has) {
        lo = hi = x;
        has = true;
      } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
    }
    if (has) {
      Value vlo = Value::Double(lo), vhi = Value::Double(hi);
      if (acc->min.is_null() || vlo.Compare(acc->min) < 0) acc->min = vlo;
      if (acc->max.is_null() || vhi.Compare(acc->max) > 0) acc->max = vhi;
    }
    return;
  }
  // Strings: counted, never summed; min/max lexicographic.
  const std::string* lo = nullptr;
  const std::string* hi = nullptr;
  for (size_t i = 0; i < n; ++i) {
    if (v.null_at(i)) continue;
    const std::string& s = v.str_at(i);
    ++acc->count;
    if (lo == nullptr || s < *lo) lo = &s;
    if (hi == nullptr || *hi < s) hi = &s;
  }
  if (lo != nullptr) {
    Value vlo = Value::String(*lo), vhi = Value::String(*hi);
    if (acc->min.is_null() || vlo.Compare(acc->min) < 0) acc->min = vlo;
    if (acc->max.is_null() || vhi.Compare(acc->max) > 0) acc->max = vhi;
  }
}

/// Partitions of the radix-partitioned GROUP BY combine: enough to keep
/// every lane busy in the second phase, few enough that the fixed cost of
/// one Consume per (chunk, partition) stays small.
constexpr size_t kAggPartitions = 16;
/// Partition = the top 4 bits of the mixed key hash (kAggPartitions = 16).
constexpr int kAggPartitionShift = 60;
/// The partitioned combine engages when the first morsel creates more than
/// one group per this many selected rows: below that, per-morsel partials
/// stay small and their merge is cheaper than one Consume per partition.
constexpr int64_t kRowsPerGroupForPartitioning = 8;

/// splitmix64 finalizer: spreads clustered keys over every bit. The
/// open-addressing group map indexes by the low bits and the partitioned
/// combine by the top bits, so the keys of one partition still spread over
/// the whole map.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Open-addressing int64 -> group-number map for the single-int-key GROUP
/// BY: linear probing over a power-of-two slot array kept at most half
/// full, so finding or creating a group allocates nothing per group.
class IntGroupMap {
 public:
  /// The group stored for `key`; absent keys get `next` (second = true).
  std::pair<uint32_t, bool> FindOrInsert(int64_t key, uint32_t next) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    for (size_t i = MixHash(static_cast<uint64_t>(key)) & mask_;;
         i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.group == kEmpty) {
        s.key = key;
        s.group = next;
        ++size_;
        return {next, true};
      }
      if (s.key == key) return {s.group, false};
    }
  }

  /// Calls fn(key, group) for every stored key, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.group != kEmpty) fn(s.key, s.group);
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    int64_t key = 0;
    uint32_t group = kEmpty;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.group == kEmpty) continue;
      size_t i = MixHash(static_cast<uint64_t>(s.key)) & mask_;
      while (slots_[i].group != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Accumulates one argument vector into per-group accumulators with typed
/// inner loops (no per-row Value boxing). `accums` holds `naggs`
/// accumulators per group; row i feeds accumulator `a` of group gidx[i]. A
/// given expression always yields one payload family, so comparing typed
/// values against the accumulator's current min/max Value is exact. Numeric
/// min/max are tracked only for `extremes` (MIN/MAX): no other aggregate
/// reads them.
void AccumulateGrouped(std::vector<AggAccum>& accums, size_t naggs,
                       const std::vector<uint32_t>& gidx, size_t a,
                       bool extremes, const Vec& v) {
  const size_t n = v.n;
  if (v.type == ValueType::kNull) return;
  if (v.type == ValueType::kInt || v.type == ValueType::kTimestamp) {
    const bool ts = v.type == ValueType::kTimestamp;
    for (size_t i = 0; i < n; ++i) {
      if (v.null_at(i)) continue;
      AggAccum& acc = accums[gidx[i] * naggs + a];
      int64_t x = v.int_at(i);
      ++acc.count;
      acc.AddInt(x);
      acc.AddDouble(static_cast<double>(x));
      if (!extremes) continue;
      // AsInt on a kDouble extreme would round; an expression's payload can
      // flip family between chunks when a branch is all-NULL in one chunk,
      // so use the exact Value comparison whenever a double extreme is
      // present (NULL extremes have type kNull and stay on the fast path).
      if (acc.min.type() != ValueType::kDouble &&
          acc.max.type() != ValueType::kDouble) {
        if (acc.min.is_null() || x < acc.min.AsInt()) {
          acc.min = ts ? Value::Timestamp(x) : Value::Int(x);
        }
        if (acc.max.is_null() || x > acc.max.AsInt()) {
          acc.max = ts ? Value::Timestamp(x) : Value::Int(x);
        }
      } else {
        Value val = ts ? Value::Timestamp(x) : Value::Int(x);
        if (acc.min.is_null() || val.Compare(acc.min) < 0) acc.min = val;
        if (acc.max.is_null() || val.Compare(acc.max) > 0) {
          acc.max = std::move(val);
        }
      }
    }
    return;
  }
  if (v.type == ValueType::kDouble) {
    for (size_t i = 0; i < n; ++i) {
      if (v.null_at(i)) continue;
      AggAccum& acc = accums[gidx[i] * naggs + a];
      double x = v.dbl_at(i);
      ++acc.count;
      acc.any_double = true;
      acc.AddDouble(x);
      if (!extremes) continue;
      if (acc.min.is_null() || x < acc.min.AsDouble()) {
        acc.min = Value::Double(x);
      }
      if (acc.max.is_null() || x > acc.max.AsDouble()) {
        acc.max = Value::Double(x);
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!v.null_at(i)) accums[gidx[i] * naggs + a].Add(v.value_at(i));
  }
}

/// One output candidate: projected values plus the ORDER BY keys that are
/// not projections (an item naming a projection reads it from `out`).
/// `seq` is the row's place in output order before sorting: its position
/// for a single state, the group's first scan slot in the partitioned
/// combine.
struct PendingRow {
  Row out;
  Row order_keys;
  uint64_t seq = 0;
};

std::vector<ValueType> SchemaTypes(const storage::TableSchema& schema) {
  std::vector<ValueType> types;
  types.reserve(schema.num_columns());
  for (const auto& c : schema.columns()) types.push_back(c.type);
  return types;
}

/// Marks every slot referenced by the subtree in `mask`.
void MarkSlots(const BoundExpr& e, std::vector<uint8_t>* mask) {
  if (e.kind == sql::BKind::kSlot && e.slot >= 0 &&
      static_cast<size_t>(e.slot) < mask->size()) {
    (*mask)[e.slot] = 1;
  }
  for (const auto& c : e.children) MarkSlots(*c, mask);
}

/// Accumulation state of one sink consumer: the whole scan (serial path),
/// one morsel (per-morsel partials, merged in morsel order) or one key
/// partition (partitioned combine). Either way every group's rows arrive
/// in scan order within the state that owns the group.
struct SinkState {
  std::vector<PendingRow> pending;  ///< projection mode
  // Aggregation groups as structure-of-arrays, indexed by group number in
  // creation order; the global aggregate is the single group 0.
  std::vector<int64_t> star_counts;
  std::vector<AggAccum> accums;  ///< [group * naggs + agg]
  /// Representative (first-row) values of only the slots the finalization
  /// reads: [group * repr slots + r].
  std::vector<Value> reprs;
  /// Scan slot of each group's first row (chunk base + row); orders the
  /// groups of different partitions in the partitioned combine.
  std::vector<uint64_t> first_rows;
  IntGroupMap int_groups;  ///< single integer key
  uint32_t null_group = UINT32_MAX;
  std::unordered_map<Row, uint32_t, storage::KeyHash, storage::KeyEq>
      group_index;  ///< any other key
  // DISTINCT dedup by value (same semantics as the interpreter's buckets).
  // Every projection-mode consumer dedups into its own state (global for
  // the serial scan, per-morsel for parallel partials); the combine dedups
  // once more across partials as they merge in morsel order, so keep-first
  // is global.
  std::unordered_set<Row, storage::KeyHash, storage::KeyEq> distinct_seen;

  size_t num_groups() const { return star_counts.size(); }
  bool empty() const {
    return pending.empty() && star_counts.empty() && distinct_seen.empty();
  }
};

/// One scanned chunk's selected rows split by group-key partition (first
/// phase of the partitioned combine): rows[offs[p], offs[p+1]) belong to
/// partition p, ascending within each partition.
struct ChunkParts {
  size_t base = 0;   ///< first slot of the chunk
  size_t slots = 0;  ///< slots in the chunk
  std::vector<uint32_t> rows;
  std::array<uint32_t, kAggPartitions + 1> offs{};
};

/// The serial scan may stop once LIMIT rows are collected: a plain
/// projection with a LIMIT and no ORDER BY or DISTINCT. Such plans never
/// fan out (a parallel sweep would waste the early exit).
bool CanStopEarly(const BoundSelect& plan) {
  return !plan.aggregate_mode && plan.order_by.empty() && !plan.distinct &&
         plan.limit >= 0;
}

/// The shared tail of both pipelines: consumes filtered (chunk, selection)
/// pairs — real replica chunks in the single-table case, materialized
/// joined batches in the join case — and runs DISTINCT / hash aggregation /
/// projection, then ORDER BY / LIMIT at Finish. Chunk column `c` holds slot
/// `c` of the plan's tuple layout. After Init the sink itself is immutable:
/// every Consume writes only through the caller's SinkState, so one sink
/// instance serves any number of concurrent execution lanes.
class VecSink {
 public:
  VecSink(const BoundSelect& plan, const LowerInputs& in)
      : plan_(plan), in_(in), can_stop_early_(CanStopEarly(plan)) {}

  /// Aggregation with a GROUP BY: the shape the partitioned combine serves.
  bool grouped() const {
    return plan_.aggregate_mode && !group_exprs_.empty();
  }

  Status Init(std::span<const ValueType> slot_types) {
    if (plan_.aggregate_mode) {
      group_exprs_.reserve(plan_.group_by.size());
      for (const auto& g : plan_.group_by) {
        auto lowered = LowerExprSlots(*g, slot_types, 0, in_);
        if (!lowered.ok()) return lowered.status();
        group_exprs_.push_back(std::move(lowered).value());
      }
      agg_args_.reserve(plan_.aggs.size());
      for (const auto& spec : plan_.aggs) {
        LoweredAgg la;
        if (spec.arg) {
          auto lowered = LowerExprSlots(*spec.arg, slot_types, 0, in_);
          if (!lowered.ok()) return lowered.status();
          la.has_arg = true;
          la.arg = std::move(lowered).value();
        }
        agg_args_.push_back(std::move(la));
      }
      // Fast path for the dominant shape "GROUP BY <integer column>": probe
      // an int-keyed map instead of boxing a key Row per input row. Static
      // plan typing keeps the choice consistent across chunks.
      single_int_key_ =
          group_exprs_.size() == 1 &&
          group_exprs_[0].kind == sql::BKind::kSlot &&
          (group_exprs_[0].col_type == ValueType::kInt ||
           group_exprs_[0].col_type == ValueType::kTimestamp);
      // Groups keep representative values of only the slots finalization
      // evaluates (projections, HAVING, ORDER BY). The join path fills
      // these slots by construction of its needed-slot mask.
      std::vector<uint8_t> refs(plan_.total_slots, 0);
      for (const auto& p : plan_.projections) MarkSlots(*p, &refs);
      if (plan_.having) MarkSlots(*plan_.having, &refs);
      for (const BoundOrderItem& oi : plan_.order_by) {
        if (oi.expr) MarkSlots(*oi.expr, &refs);
      }
      for (int s = 0; s < plan_.total_slots; ++s) {
        if (refs[s]) repr_slots_.push_back(s);
      }
    } else {
      proj_exprs_.reserve(plan_.projections.size());
      for (const auto& p : plan_.projections) {
        auto lowered = LowerExprSlots(*p, slot_types, 0, in_);
        if (!lowered.ok()) return lowered.status();
        proj_exprs_.push_back(std::move(lowered).value());
      }
      for (const BoundOrderItem& oi : plan_.order_by) {
        if (oi.proj_index >= 0) continue;
        auto lowered = LowerExprSlots(*oi.expr, slot_types, 0, in_);
        if (!lowered.ok()) return lowered.status();
        order_exprs_.push_back(std::move(lowered).value());
      }
    }
    return Status::OK();
  }

  /// Consumes the selected rows of one chunk into `st`. `serial` enables
  /// the single-state behaviors: early LIMIT stop and in-consume DISTINCT
  /// dedup (a parallel partial cannot see other morsels' rows; the combine
  /// dedups instead). Returns false when the plan's LIMIT is satisfied and
  /// the producer may stop scanning.
  StatusOr<bool> Consume(SinkState* st, const storage::ColumnChunkView& chunk,
                         const Sel& sel, bool serial) const {
    if (sel.empty()) return true;
    if (!plan_.aggregate_mode) return ConsumeRows(st, chunk, sel, serial);
    if (group_exprs_.empty()) return ConsumeGlobalAgg(st, chunk, sel);
    return ConsumeGroupedAgg(st, chunk, sel);
  }

  /// Splits the selected rows of one chunk by group-key partition (grouped
  /// plans only). Equal keys always land in the same partition, so each
  /// partition aggregates its groups alone.
  Status PartitionRows(const storage::ColumnChunkView& chunk, const Sel& sel,
                       ChunkParts* out) const {
    out->base = chunk.base;
    out->slots = chunk.rows;
    out->offs.fill(0);
    out->rows.resize(sel.size());
    if (sel.empty()) return Status::OK();
    std::vector<Vec> kvecs;
    OLXP_RETURN_NOT_OK(EvalKeys(chunk, sel, &kvecs));
    std::vector<uint8_t> part(sel.size());
    if (single_int_key_) {
      const Vec& kv = kvecs[0];
      for (size_t i = 0; i < sel.size(); ++i) {
        part[i] = kv.null_at(i)
                      ? 0
                      : static_cast<uint8_t>(
                            MixHash(static_cast<uint64_t>(kv.int_at(i))) >>
                            kAggPartitionShift);
      }
    } else {
      Row key;
      for (size_t i = 0; i < sel.size(); ++i) {
        key.clear();
        for (const Vec& kv : kvecs) key.push_back(kv.value_at(i));
        part[i] = static_cast<uint8_t>(MixHash(storage::KeyHash{}(key)) >>
                                       kAggPartitionShift);
      }
    }
    // Stable counting sort: rows keep scan order within each partition.
    for (uint8_t p : part) ++out->offs[p + 1];
    for (size_t p = 0; p < kAggPartitions; ++p) {
      out->offs[p + 1] += out->offs[p];
    }
    std::array<uint32_t, kAggPartitions> fill;
    std::copy(out->offs.begin(), out->offs.end() - 1, fill.begin());
    for (size_t i = 0; i < sel.size(); ++i) out->rows[fill[part[i]]++] = sel[i];
    return Status::OK();
  }

  /// Folds `src` (a later morsel's partial state) into `dst`. Callers merge
  /// partials strictly in morsel order; group-creation order and DISTINCT
  /// keep-first semantics rely on it.
  void MergeState(SinkState* dst, SinkState&& src) const {
    if (dst->empty()) {
      *dst = std::move(src);
      return;
    }
    if (!plan_.aggregate_mode) {
      dst->pending.reserve(dst->pending.size() + src.pending.size());
      for (PendingRow& pr : src.pending) {
        if (plan_.distinct && !dst->distinct_seen.insert(pr.out).second) {
          continue;
        }
        dst->pending.push_back(std::move(pr));
      }
      return;
    }
    if (group_exprs_.empty()) {
      if (src.num_groups() != 0) FoldGroup(dst, 0, src, 0);
      return;
    }
    // Recover each source group's key from the maps, by group number.
    const size_t n = src.num_groups();
    std::vector<int64_t> ikeys;
    std::vector<const Row*> rkeys;
    if (single_int_key_) {
      ikeys.resize(n);
      src.int_groups.ForEach([&](int64_t k, uint32_t g) { ikeys[g] = k; });
    } else {
      rkeys.resize(n);
      for (const auto& [k, g] : src.group_index) rkeys[g] = &k;
    }
    for (uint32_t g = 0; g < n; ++g) {
      const auto next = static_cast<uint32_t>(dst->num_groups());
      uint32_t tgt = 0;
      bool fresh = false;
      if (!single_int_key_) {
        auto [it, inserted] = dst->group_index.try_emplace(*rkeys[g], next);
        tgt = it->second;
        fresh = inserted;
      } else if (g == src.null_group) {
        fresh = dst->null_group == UINT32_MAX;
        if (fresh) dst->null_group = next;
        tgt = dst->null_group;
      } else {
        std::tie(tgt, fresh) = dst->int_groups.FindOrInsert(ikeys[g], next);
      }
      if (fresh) {
        AppendGroup(dst, &src, g);
      } else {
        FoldGroup(dst, tgt, src, g);
      }
    }
  }

  /// Evaluates HAVING, the projections and the ORDER BY keys of every group
  /// of `st`, in group order, appending the surviving rows to `out`. Each
  /// row's seq is its group's first scan slot when `seq_by_first_row` (the
  /// partitioned combine interleaves partitions by it), else its group
  /// number.
  Status FinalizeGroups(const SinkState& st, bool seq_by_first_row,
                        std::vector<PendingRow>* out) const {
    const size_t naggs = plan_.aggs.size();
    const size_t nrepr = repr_slots_.size();
    if (st.num_groups() == 0 && plan_.group_by.empty()) {
      // Global aggregate over empty input still yields one row.
      SinkState one;
      one.star_counts.push_back(0);
      one.accums.resize(naggs);
      one.reprs.resize(nrepr);
      one.first_rows.push_back(0);
      return FinalizeGroups(one, seq_by_first_row, out);
    }
    Row tuple(plan_.total_slots);
    std::vector<Value> agg_values(naggs);
    out->reserve(out->size() + st.num_groups());
    for (size_t g = 0; g < st.num_groups(); ++g) {
      for (size_t r = 0; r < nrepr; ++r) {
        tuple[repr_slots_[r]] = st.reprs[g * nrepr + r];
      }
      for (size_t a = 0; a < naggs; ++a) {
        agg_values[a] = st.accums[g * naggs + a].Result(plan_.aggs[a].fn,
                                                        st.star_counts[g]);
      }
      if (plan_.having) {
        auto v = sql::EvalBound(*plan_.having, tuple, in_.params, &agg_values,
                                in_.subqueries);
        if (!v.ok()) return v.status();
        if (!v->AsBool()) continue;
      }
      PendingRow pr;
      pr.seq = seq_by_first_row ? st.first_rows[g] : g;
      pr.out.reserve(plan_.projections.size());
      for (const auto& p : plan_.projections) {
        auto v = sql::EvalBound(*p, tuple, in_.params, &agg_values,
                                in_.subqueries);
        if (!v.ok()) return v.status();
        pr.out.push_back(std::move(v).value());
      }
      for (const BoundOrderItem& oi : plan_.order_by) {
        if (oi.proj_index >= 0) continue;
        auto v = sql::EvalBound(*oi.expr, tuple, in_.params, &agg_values,
                                in_.subqueries);
        if (!v.ok()) return v.status();
        pr.order_keys.push_back(std::move(v).value());
      }
      out->push_back(std::move(pr));
    }
    return Status::OK();
  }

  /// Finishes a single (serial or merged) state.
  StatusOr<sql::ResultSet> Finish(SinkState&& st) const {
    if (!plan_.aggregate_mode) return Emit(std::move(st.pending), false);
    std::vector<PendingRow> rows;
    OLXP_RETURN_NOT_OK(FinalizeGroups(st, /*seq_by_first_row=*/false, &rows));
    return Emit(std::move(rows), false);
  }

  /// Aggregate DISTINCT, ORDER BY and LIMIT over finalized rows, identical
  /// to the interpreter's stable sort. `rows` are in output order unless
  /// `by_seq`, in which case their seq fields define it. Ties in the ORDER
  /// BY keys break by that order, so a LIMIT k after ORDER BY takes a
  /// partial sort and still returns exactly the stable sort's prefix.
  StatusOr<sql::ResultSet> Emit(std::vector<PendingRow>&& rows,
                                bool by_seq) const {
    const bool agg_distinct = plan_.aggregate_mode && plan_.distinct;
    if (!by_seq) {
      for (size_t i = 0; i < rows.size(); ++i) rows[i].seq = i;
    } else if (plan_.order_by.empty() || agg_distinct) {
      std::sort(rows.begin(), rows.end(),
                [](const PendingRow& a, const PendingRow& b) {
                  return a.seq < b.seq;
                });
    }
    if (agg_distinct) {
      std::unordered_set<Row, storage::KeyHash, storage::KeyEq> seen;
      size_t kept = 0;
      for (PendingRow& pr : rows) {
        if (!seen.insert(pr.out).second) continue;
        if (&rows[kept] != &pr) rows[kept] = std::move(pr);
        ++kept;
      }
      rows.resize(kept);
    }
    size_t n = rows.size();
    if (plan_.limit >= 0) n = std::min(n, static_cast<size_t>(plan_.limit));
    std::vector<uint32_t> order(rows.size());
    std::iota(order.begin(), order.end(), 0u);
    if (!plan_.order_by.empty()) {
      auto before = [&](uint32_t ia, uint32_t ib) {
        const PendingRow& a = rows[ia];
        const PendingRow& b = rows[ib];
        size_t expr = 0;
        for (const BoundOrderItem& oi : plan_.order_by) {
          const int p = oi.proj_index;
          const int c = p >= 0 ? a.out[p].Compare(b.out[p])
                               : a.order_keys[expr].Compare(b.order_keys[expr]);
          if (p < 0) ++expr;
          if (c != 0) return oi.desc ? c > 0 : c < 0;
        }
        return a.seq < b.seq;
      };
      if (n < order.size()) {
        std::partial_sort(order.begin(), order.begin() + n, order.end(),
                          before);
      } else {
        std::sort(order.begin(), order.end(), before);
      }
    }
    sql::ResultSet rs;
    rs.column_names = plan_.column_names;
    rs.rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rs.rows.push_back(std::move(rows[order[i]].out));
    }
    rs.affected_rows = 0;
    return rs;
  }

 private:
  struct LoweredAgg {
    bool has_arg = false;
    VExpr arg;
  };

  Status EvalKeys(const storage::ColumnChunkView& chunk, const Sel& sel,
                  std::vector<Vec>* kvecs) const {
    kvecs->reserve(group_exprs_.size());
    for (const VExpr& g : group_exprs_) {
      auto v = EvalVec(g, chunk, sel);
      if (!v.ok()) return v.status();
      kvecs->push_back(std::move(v).value());
    }
    return Status::OK();
  }

  /// Creates a group whose first row is chunk row `row`; returns its number.
  uint32_t NewGroup(SinkState* st, const storage::ColumnChunkView& chunk,
                    size_t row) const {
    const auto g = static_cast<uint32_t>(st->num_groups());
    st->star_counts.push_back(0);
    st->accums.resize(st->accums.size() + plan_.aggs.size());
    for (int s : repr_slots_) st->reprs.push_back(chunk.value_at(s, row));
    st->first_rows.push_back(chunk.base + row);
    return g;
  }

  /// Moves group `g` of `src` to the end of `dst`.
  void AppendGroup(SinkState* dst, SinkState* src, uint32_t g) const {
    const size_t naggs = plan_.aggs.size();
    const size_t nrepr = repr_slots_.size();
    dst->star_counts.push_back(src->star_counts[g]);
    auto acc = src->accums.begin() + static_cast<ptrdiff_t>(g * naggs);
    dst->accums.insert(dst->accums.end(), std::make_move_iterator(acc),
                       std::make_move_iterator(acc + naggs));
    auto rep = src->reprs.begin() + static_cast<ptrdiff_t>(g * nrepr);
    dst->reprs.insert(dst->reprs.end(), std::make_move_iterator(rep),
                      std::make_move_iterator(rep + nrepr));
    dst->first_rows.push_back(src->first_rows[g]);
  }

  /// Folds group `g` of `src` into the existing group `tgt` of `dst`.
  void FoldGroup(SinkState* dst, uint32_t tgt, const SinkState& src,
                 uint32_t g) const {
    const size_t naggs = plan_.aggs.size();
    dst->star_counts[tgt] += src.star_counts[g];
    for (size_t a = 0; a < naggs; ++a) {
      dst->accums[tgt * naggs + a].MergeFrom(src.accums[g * naggs + a]);
    }
  }

  StatusOr<bool> ConsumeRows(SinkState* st,
                             const storage::ColumnChunkView& chunk,
                             const Sel& sel, bool serial) const {
    std::vector<Vec> pvecs;
    pvecs.reserve(proj_exprs_.size());
    for (const VExpr& p : proj_exprs_) {
      auto v = EvalVec(p, chunk, sel);
      if (!v.ok()) return v.status();
      pvecs.push_back(std::move(v).value());
    }
    std::vector<Vec> ovecs;
    ovecs.reserve(order_exprs_.size());
    for (const VExpr& o : order_exprs_) {
      auto v = EvalVec(o, chunk, sel);
      if (!v.ok()) return v.status();
      ovecs.push_back(std::move(v).value());
    }
    for (size_t i = 0; i < sel.size(); ++i) {
      PendingRow pr;
      pr.out.reserve(pvecs.size());
      for (const Vec& pv : pvecs) pr.out.push_back(pv.value_at(i));
      // DISTINCT dedups into this state's own set either way: the serial
      // path sees every row through one state (global dedup), a parallel
      // partial dedups within its morsel — keep-first survives the
      // morsel-order merge, and duplicates never pile up in partials.
      if (plan_.distinct && !st->distinct_seen.insert(pr.out).second) {
        continue;
      }
      for (const Vec& ov : ovecs) pr.order_keys.push_back(ov.value_at(i));
      st->pending.push_back(std::move(pr));
      if (serial && can_stop_early_ &&
          st->pending.size() >= static_cast<size_t>(plan_.limit)) {
        return false;  // enough rows; stop the scan
      }
    }
    return true;
  }

  StatusOr<bool> ConsumeGlobalAgg(SinkState* st,
                                  const storage::ColumnChunkView& chunk,
                                  const Sel& sel) const {
    // Global aggregate: one implicit group. The representative tuple is
    // the first selected row (projections may reference raw slots).
    if (st->num_groups() == 0) NewGroup(st, chunk, sel[0]);
    st->star_counts[0] += static_cast<int64_t>(sel.size());
    for (size_t a = 0; a < agg_args_.size(); ++a) {
      if (!agg_args_[a].has_arg) continue;  // COUNT(*): star_count only
      auto v = EvalVec(agg_args_[a].arg, chunk, sel);
      if (!v.ok()) return v.status();
      AccumulateVec(&st->accums[a], *v);
    }
    return true;
  }

  StatusOr<bool> ConsumeGroupedAgg(SinkState* st,
                                   const storage::ColumnChunkView& chunk,
                                   const Sel& sel) const {
    std::vector<Vec> kvecs;
    OLXP_RETURN_NOT_OK(EvalKeys(chunk, sel, &kvecs));
    std::vector<uint32_t> gidx(sel.size());
    if (single_int_key_) {
      const Vec& kv = kvecs[0];
      for (size_t i = 0; i < sel.size(); ++i) {
        uint32_t g;
        if (kv.null_at(i)) {
          if (st->null_group == UINT32_MAX) {
            st->null_group = NewGroup(st, chunk, sel[i]);
          }
          g = st->null_group;
        } else {
          const auto next = static_cast<uint32_t>(st->num_groups());
          auto [found, inserted] =
              st->int_groups.FindOrInsert(kv.int_at(i), next);
          if (inserted) NewGroup(st, chunk, sel[i]);
          g = found;
        }
        st->star_counts[g]++;
        gidx[i] = g;
      }
    } else {
      Row key;
      for (size_t i = 0; i < sel.size(); ++i) {
        key.clear();
        key.reserve(kvecs.size());
        for (const Vec& kv : kvecs) key.push_back(kv.value_at(i));
        const auto next = static_cast<uint32_t>(st->num_groups());
        auto [it, inserted] = st->group_index.try_emplace(key, next);
        if (inserted) NewGroup(st, chunk, sel[i]);
        const uint32_t g = it->second;
        st->star_counts[g]++;
        gidx[i] = g;
      }
    }
    for (size_t a = 0; a < agg_args_.size(); ++a) {
      if (!agg_args_[a].has_arg) continue;
      auto v = EvalVec(agg_args_[a].arg, chunk, sel);
      if (!v.ok()) return v.status();
      const sql::AggFunc fn = plan_.aggs[a].fn;
      AccumulateGrouped(st->accums, plan_.aggs.size(), gidx, a,
                        fn == sql::AggFunc::kMin || fn == sql::AggFunc::kMax,
                        *v);
    }
    return true;
  }

  const BoundSelect& plan_;
  LowerInputs in_;

  std::vector<VExpr> group_exprs_;
  std::vector<LoweredAgg> agg_args_;
  std::vector<int> repr_slots_;     // aggregate mode: slots groups keep
  std::vector<VExpr> proj_exprs_;   // non-agg mode only
  std::vector<VExpr> order_exprs_;  // non-agg mode, one per expr order item
  bool single_int_key_ = false;
  const bool can_stop_early_;
};

// LiveRows/ApplyConjuncts live in vexpr.{h,cc}: the scan, hash-build and
// join-probe stages share one filtering (and fallback) implementation.

// ------------------------- EXPLAIN ANALYZE capture -------------------------

/// Per-lane trace accumulation for one scan driver. Parallel fan-outs own
/// one slot per lane and sum them afterwards (the per-morsel rollup); the
/// serial paths use a single slot. All writes are gated on opts.trace.
struct LaneTrace {
  int64_t selected = 0;    ///< rows surviving the scan filters
  int64_t consumed_out = 0;  ///< probe-stage output rows (join path)
  int64_t filter_ns = 0;
  int64_t consume_ns = 0;  ///< sink consume (single-table) / probe cascade
};

LaneTrace SumLanes(const std::vector<LaneTrace>& lanes) {
  LaneTrace t;
  for (const LaneTrace& l : lanes) {
    t.selected += l.selected;
    t.consumed_out += l.consumed_out;
    t.filter_ns += l.filter_ns;
    t.consume_ns += l.consume_ns;
  }
  return t;
}

/// Appends the scan (and, when filters exist, filter) operators. `skipped`
/// is the zone-map block-skip count, always surfaced in the scan detail.
void TraceScanOps(obs::QueryTrace* trace, int table_id, bool has_filters,
                  int64_t scanned, int64_t skipped, const LaneTrace& t,
                  int64_t scan_ns) {
  obs::TraceOp scan;
  scan.op = "scan";
  scan.detail = "table=" + std::to_string(table_id) +
                " zskip=" + std::to_string(skipped);
  scan.rows_in = scanned;
  scan.rows_out = scanned;
  // The fused scan+filter loop is timed as a whole; the filter's share is
  // measured directly and subtracted out.
  int64_t residual = scan_ns - t.filter_ns - t.consume_ns;
  scan.wall_us = (residual > 0 ? residual : 0) / 1000;
  trace->ops.push_back(std::move(scan));
  if (has_filters) {
    obs::TraceOp filter;
    filter.op = "filter";
    filter.rows_in = scanned;
    filter.rows_out = t.selected;
    filter.wall_us = t.filter_ns / 1000;
    trace->ops.push_back(std::move(filter));
  }
}

/// The parallel combine as an operator: `mode` is "partitioned" or
/// "per-morsel" and `parts` the partitions or per-morsel partials it
/// combined. Its wall time is elapsed time, not a sum over lanes.
obs::TraceOp CombineOp(const BoundSelect& plan, const char* mode, size_t parts,
                       int64_t rows_in, int64_t rows_out, int64_t ns) {
  obs::TraceOp op;
  op.op = "combine";
  op.detail = std::string(mode) + " parts=" + std::to_string(parts);
  if (plan.aggregate_mode) op.detail += " groups=" + std::to_string(rows_out);
  op.rows_in = rows_in;
  op.rows_out = rows_out;
  op.wall_us = ns / 1000;
  return op;
}

/// Appends the sink-side operators (aggregate/project, the parallel combine
/// when there was one, order, emit) given the pre-Finish sink cardinality
/// and the final result.
void TraceSinkOps(obs::QueryTrace* trace, const BoundSelect& plan,
                  int64_t rows_in, int64_t sink_rows, int64_t consume_ns,
                  obs::TraceOp* combine, int64_t finish_ns,
                  const sql::ResultSet& rs) {
  obs::TraceOp sinkop;
  sinkop.op = plan.aggregate_mode ? "aggregate" : "project";
  if (plan.distinct) sinkop.detail = "distinct";
  sinkop.rows_in = rows_in;
  sinkop.rows_out = sink_rows;
  sinkop.wall_us = consume_ns / 1000;
  trace->ops.push_back(std::move(sinkop));
  if (combine != nullptr) trace->ops.push_back(std::move(*combine));
  if (!plan.order_by.empty()) {
    obs::TraceOp order;
    order.op = "order";
    order.detail = std::to_string(plan.order_by.size()) + " keys";
    order.rows_in = sink_rows;
    order.rows_out = sink_rows;
    order.wall_us = finish_ns / 1000;
    trace->ops.push_back(std::move(order));
  }
  obs::TraceOp emit;
  emit.op = "emit";
  if (plan.limit >= 0) emit.detail = "limit=" + std::to_string(plan.limit);
  emit.rows_in = sink_rows;
  emit.rows_out = static_cast<int64_t>(rs.rows.size());
  trace->ops.push_back(std::move(emit));
}

/// Sink cardinality before Finish (groups for aggregates, pending rows
/// otherwise) — the row count entering order/limit/emit.
int64_t SinkRows(const BoundSelect& plan, const SinkState& st) {
  if (plan.aggregate_mode) {
    // A global aggregate over empty input still emits one row.
    if (st.num_groups() == 0 && plan.group_by.empty()) return 1;
    return static_cast<int64_t>(st.num_groups());
  }
  return static_cast<int64_t>(st.pending.size());
}

/// Folds per-morsel partials in morsel order; `partial_rows` receives the
/// sink rows they held before the merge (the combine's input).
SinkState MergePartials(const BoundSelect& plan, const VecSink& sink,
                        std::vector<SinkState>&& partials,
                        int64_t* partial_rows) {
  SinkState merged;
  for (SinkState& p : partials) {
    *partial_rows += plan.aggregate_mode
                         ? static_cast<int64_t>(p.num_groups())
                         : static_cast<int64_t>(p.pending.size());
    sink.MergeState(&merged, std::move(p));
  }
  return merged;
}

// ------------------------- morsel fan-out driver ---------------------------

/// Whether this execution should fan out over the pool. Early-stop plans
/// stay serial: their serial scan terminates after LIMIT rows while a
/// parallel sweep would visit everything.
bool UseParallel(const VecExecOptions& opts, const BoundSelect& plan) {
  return opts.pool != nullptr && opts.pool->lanes() > 1 && !CanStopEarly(plan);
}

/// Morsel granularity rounded up to whole vector chunks so parallel lanes
/// see exactly the chunk boundaries a serial scan would produce (per-chunk
/// vector typing makes boundaries observable).
size_t NormalizedMorselRows(size_t morsel_rows) {
  const size_t rows = std::max(morsel_rows, kVecChunkRows);
  return (rows + kVecChunkRows - 1) / kVecChunkRows * kVecChunkRows;
}

/// Lanes a fan-out over a table of `slots` slots engages: the pool's,
/// clamped to the morsel count (a table under one morsel runs on one lane).
int FanOutLanes(const VecExecOptions& opts, size_t slots) {
  const size_t morsel = NormalizedMorselRows(opts.morsel_rows);
  const size_t morsels = (slots + morsel - 1) / morsel;
  return static_cast<int>(std::min(static_cast<size_t>(opts.pool->lanes()),
                                   std::max<size_t>(1, morsels)));
}

/// Per-driver block accounting: chunk-sized blocks actually read vs.
/// skipped whole via the zone-map mask.
struct ScanBlocks {
  int64_t scanned = 0;
  int64_t skipped = 0;
};

/// A table pinned for a morsel-driven scan: the zone-map skip mask, the
/// morsel decomposition, the lane clamp and per-lane visit/block counts.
/// The pin holds the snapshot for the object's lifetime, so one execution
/// may fan out more than once over the same chunks (the partitioned combine
/// revisits them in its second phase).
class MorselScan {
 public:
  MorselScan(const storage::ColumnTable& table, const VecExecOptions& opts,
             std::span<const storage::ZonePred> preds)
      : table_(table),
        opts_(opts),
        pin_(table),
        skip_(pin_.ComputeSkipMask(preds)),
        dispatcher_(pin_.total_slots(),
                    NormalizedMorselRows(opts.morsel_rows)),
        lanes_(FanOutLanes(opts, pin_.total_slots())),
        lane_visited_(static_cast<size_t>(lanes_), 0),
        lane_blocks_(static_cast<size_t>(lanes_)) {}

  MorselScan(const MorselScan&) = delete;
  MorselScan& operator=(const MorselScan&) = delete;

  int lanes() const { return lanes_; }
  size_t morsel_count() const { return dispatcher_.morsel_count(); }
  MorselDispatcher::Morsel MorselAt(size_t ordinal) const {
    return dispatcher_.At(ordinal);
  }
  storage::ColumnChunkView Chunk(size_t base, size_t rows) const {
    return pin_.Chunk(base, rows);
  }

  /// Every lane claims morsels until none are left, running fn(lane,
  /// morsel). The first failing status cancels the rest and is returned.
  template <typename Fn>
  Status FanOut(Fn&& fn) {
    std::vector<Status> lane_status(static_cast<size_t>(lanes_),
                                    Status::OK());
    opts_.pool->Run(lanes_, [&](int lane) {
      MorselDispatcher::Morsel m;
      while (dispatcher_.Next(&m)) {
        Status st = fn(lane, m);
        if (!st.ok()) {
          lane_status[static_cast<size_t>(lane)] = st;
          dispatcher_.Cancel();
          return;
        }
      }
    });
    return FirstError(lane_status);
  }

  /// Runs fn(lane, i) for every i in [0, n), claimed from a shared cursor
  /// by up to lanes() lanes. The first failing status stops the claims.
  template <typename Fn>
  Status ParallelFor(size_t n, Fn&& fn) {
    if (n == 0) return Status::OK();
    const int lanes =
        static_cast<int>(std::min(static_cast<size_t>(lanes_), n));
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<Status> lane_status(static_cast<size_t>(lanes),
                                    Status::OK());
    opts_.pool->Run(lanes, [&](int lane) {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n && !failed.load(std::memory_order_relaxed);
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        Status st = fn(lane, i);
        if (!st.ok()) {
          lane_status[static_cast<size_t>(lane)] = st;
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    return FirstError(lane_status);
  }

  /// Runs body(chunk, sel) over the live rows of each chunk of `m` the zone
  /// maps do not refute. Blocks skipped or read and live rows visited count
  /// toward the scan only when `account` (false on a second pass).
  template <typename Body>
  Status ScanMorsel(int lane, const MorselDispatcher::Morsel& m, bool account,
                    Body&& body) {
    const auto l = static_cast<size_t>(lane);
    for (size_t off = 0; off < m.rows; off += kVecChunkRows) {
      // Morsel bases are multiples of the (normalized) chunk size, so
      // every chunk maps to exactly one kBlockSlots-aligned mask entry.
      const size_t b = (m.base + off) / storage::kBlockSlots;
      if (b < skip_.size() && skip_[b] != 0) {
        if (account) ++lane_blocks_[l].skipped;
        continue;
      }
      storage::ColumnChunkView chunk =
          pin_.Chunk(m.base + off, std::min(kVecChunkRows, m.rows - off));
      Sel sel = LiveRows(chunk);
      if (account) {
        ++lane_blocks_[l].scanned;
        lane_visited_[l] += static_cast<int64_t>(sel.size());
      }
      OLXP_RETURN_NOT_OK(body(chunk, sel));
    }
    return Status::OK();
  }

  /// Publishes the scan's accounting (block counts on the table and in
  /// *blocks, dispatched morsels on the counter); returns live rows
  /// visited.
  int64_t Finish(ScanBlocks* blocks) const {
    int64_t visited = 0;
    for (int64_t v : lane_visited_) visited += v;
    for (const ScanBlocks& lb : lane_blocks_) {
      blocks->scanned += lb.scanned;
      blocks->skipped += lb.skipped;
    }
    table_.RecordScanBlocks(blocks->scanned, blocks->skipped);
    if (opts_.morsel_counter != nullptr) {
      opts_.morsel_counter->Add(static_cast<int64_t>(morsel_count()));
    }
    return visited;
  }

 private:
  static Status FirstError(const std::vector<Status>& statuses) {
    for (const Status& st : statuses) {
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  const storage::ColumnTable& table_;
  const VecExecOptions& opts_;
  storage::ColumnTable::ScanPin pin_;
  const std::vector<uint8_t> skip_;
  MorselDispatcher dispatcher_;
  const int lanes_;
  std::vector<int64_t> lane_visited_;
  std::vector<ScanBlocks> lane_blocks_;
};

/// Serial scan driver shared by the single-table and join-stream paths:
/// same pin + zone-map skipping as the fan-out, one chunk at a time in
/// slot order. `body(chunk, sel)` returns false to stop early (LIMIT).
/// Returns live rows visited; block counts land in *blocks and on the
/// table's telemetry.
template <typename Body>
StatusOr<int64_t> RunSerialScan(const storage::ColumnTable& table,
                                std::span<const storage::ZonePred> preds,
                                ScanBlocks* blocks, Body&& body) {
  storage::ColumnTable::ScanPin pin(table);
  const std::vector<uint8_t> skip = pin.ComputeSkipMask(preds);
  const size_t total = pin.total_slots();
  int64_t visited = 0;
  Status inner = Status::OK();
  for (size_t base = 0; base < total;) {
    const size_t b = base / storage::kBlockSlots;
    if (b < skip.size() && skip[b] != 0) {
      ++blocks->skipped;
      base = (b + 1) * storage::kBlockSlots;
      continue;
    }
    storage::ColumnChunkView chunk = pin.Chunk(base, kVecChunkRows);
    if (chunk.rows == 0) break;
    ++blocks->scanned;
    Sel sel = LiveRows(chunk);
    visited += static_cast<int64_t>(sel.size());
    auto more = body(chunk, sel);
    if (!more.ok()) {
      inner = more.status();
      break;
    }
    base += chunk.rows;
    if (!*more) break;
  }
  table.RecordScanBlocks(blocks->scanned, blocks->skipped);
  if (!inner.ok()) return inner;
  return visited;
}

// ---------------------------- single-table path ----------------------------

/// How a single-table fan-out combines its lanes' work.
enum class Combine { kUndecided, kPerMorsel, kPartitioned };

/// Second phase of the partitioned combine: lanes claim key partitions and
/// aggregate each one serially over its rows in scan order (`parts` holds
/// each morsel's chunks, in scan order), then finalize its groups. Returns
/// every partition's finalized rows, each tagged with its group's first
/// scan slot; *groups receives the group count.
StatusOr<std::vector<PendingRow>> AggregatePartitions(
    MorselScan& scan, const VecSink& sink,
    const std::vector<std::vector<ChunkParts>>& parts, int64_t* groups) {
  std::vector<SinkState> states(kAggPartitions);
  std::vector<std::vector<PendingRow>> finals(kAggPartitions);
  OLXP_RETURN_NOT_OK(scan.ParallelFor(kAggPartitions, [&](int, size_t p) {
    Sel sel;
    for (const std::vector<ChunkParts>& morsel_parts : parts) {
      for (const ChunkParts& cp : morsel_parts) {
        if (cp.offs[p] == cp.offs[p + 1]) continue;
        sel.assign(cp.rows.begin() + cp.offs[p],
                   cp.rows.begin() + cp.offs[p + 1]);
        auto more = sink.Consume(&states[p], scan.Chunk(cp.base, cp.slots),
                                 sel, /*serial=*/true);
        if (!more.ok()) return more.status();
      }
    }
    return sink.FinalizeGroups(states[p], /*seq_by_first_row=*/true,
                               &finals[p]);
  }));
  size_t nrows = 0;
  for (size_t p = 0; p < kAggPartitions; ++p) {
    *groups += static_cast<int64_t>(states[p].num_groups());
    nrows += finals[p].size();
  }
  std::vector<PendingRow> rows;
  rows.reserve(nrows);
  for (std::vector<PendingRow>& f : finals) {
    std::move(f.begin(), f.end(), std::back_inserter(rows));
  }
  return rows;
}

/// Morsel-parallel single-table execution. Non-grouped plans and
/// low-cardinality GROUP BYs build one partial state per morsel and merge
/// them in morsel order. High-cardinality GROUP BYs take the radix-
/// partitioned combine instead: lanes split each chunk's selected rows by
/// key partition (phase 1), then claim partitions and aggregate each one
/// serially in scan order (phase 2). Every group then sees its rows in
/// serial order, so the output equals the serial path's bit for bit.
StatusOr<sql::ResultSet> RunSingleTableParallel(
    const BoundSelect& plan, const storage::ColumnTable& table,
    std::span<const VExpr> filters, std::span<const storage::ZonePred> zpreds,
    const VecSink& sink, const VecExecOptions& opts, VecExecStats* stats) {
  const bool tracing = opts.trace != nullptr;
  MorselScan scan(table, opts, zpreds);
  const size_t morsels = scan.morsel_count();
  std::vector<LaneTrace> lt(tracing ? static_cast<size_t>(scan.lanes()) : 0);
  std::vector<SinkState> partials(morsels);
  std::vector<std::vector<ChunkParts>> parts(morsels);

  // Scans and filters morsel `m`, handing each chunk's selection to `step`.
  // A second pass over a morsel (first_pass = false) is neither counted nor
  // traced here: its rows were counted and its time lands in the combine.
  auto scan_morsel = [&](int lane, const MorselDispatcher::Morsel& m,
                         bool first_pass, auto&& step) -> Status {
    return scan.ScanMorsel(
        lane, m, first_pass,
        [&](const storage::ColumnChunkView& chunk, Sel& sel) -> Status {
          const bool timed = tracing && first_pass;
          int64_t t0 = timed ? NowNanos() : 0;
          OLXP_RETURN_NOT_OK(ApplyConjuncts(filters, chunk, &sel));
          if (timed) {
            LaneTrace& t = lt[static_cast<size_t>(lane)];
            const int64_t t1 = NowNanos();
            t.filter_ns += t1 - t0;
            t.selected += static_cast<int64_t>(sel.size());
            t0 = t1;
          }
          Status st = step(chunk, sel);
          if (timed) {
            lt[static_cast<size_t>(lane)].consume_ns += NowNanos() - t0;
          }
          return st;
        });
  };
  auto partition_into = [&](size_t ordinal) {
    return [&, ordinal](const storage::ColumnChunkView& chunk,
                        const Sel& sel) -> Status {
      if (sel.empty()) return Status::OK();
      parts[ordinal].emplace_back();
      return sink.PartitionRows(chunk, sel, &parts[ordinal].back());
    };
  };

  // A grouped plan picks its combine from the first morsel's partial: more
  // than one group per kRowsPerGroupForPartitioning selected rows takes the
  // partitioned path. That is a property of the input in scan order, so
  // every lane count takes the same path. Morsels claimed before the
  // decision lands are consumed as partials; the partitioned path
  // partitions them again.
  std::atomic<Combine> combine{sink.grouped() && morsels > 1
                                   ? Combine::kUndecided
                                   : Combine::kPerMorsel};
  auto decide = [&](int64_t groups, int64_t selected) {
    combine.store(groups * kRowsPerGroupForPartitioning > selected
                      ? Combine::kPartitioned
                      : Combine::kPerMorsel,
                  std::memory_order_release);
  };
  std::vector<uint8_t> as_partial(morsels, 0);
  const int64_t t_drv = tracing ? NowNanos() : 0;
  OLXP_RETURN_NOT_OK(scan.FanOut(
      [&](int lane, const MorselDispatcher::Morsel& m) -> Status {
        if (combine.load(std::memory_order_acquire) ==
            Combine::kPartitioned) {
          return scan_morsel(lane, m, true, partition_into(m.ordinal));
        }
        as_partial[m.ordinal] = 1;
        SinkState* st = &partials[m.ordinal];
        const bool first = m.ordinal == 0 &&
                           combine.load(std::memory_order_relaxed) ==
                               Combine::kUndecided;
        int64_t selected = 0;
        OLXP_RETURN_NOT_OK(scan_morsel(
            lane, m, true,
            [&](const storage::ColumnChunkView& chunk,
                const Sel& sel) -> Status {
              // Once the partitioned combine is chosen this partial is
              // dropped, so the rest of the morsel is only scanned.
              if (combine.load(std::memory_order_acquire) ==
                  Combine::kPartitioned) {
                return Status::OK();
              }
              selected += static_cast<int64_t>(sel.size());
              auto more = sink.Consume(st, chunk, sel, /*serial=*/false);
              if (!more.ok()) return more.status();
              // The first morsel's groups only grow and its selected rows
              // can grow by at most its unscanned slots: when even that
              // bound cannot undo a partitioned verdict, decide now.
              const auto unscanned = static_cast<int64_t>(
                  m.base + m.rows - (chunk.base + chunk.rows));
              if (first && static_cast<int64_t>(st->num_groups()) *
                                   kRowsPerGroupForPartitioning >
                               selected + unscanned) {
                decide(static_cast<int64_t>(st->num_groups()), selected);
              }
              return Status::OK();
            }));
        if (first && combine.load(std::memory_order_relaxed) ==
                         Combine::kUndecided) {
          decide(static_cast<int64_t>(st->num_groups()), selected);
        }
        return Status::OK();
      }));
  ScanBlocks blocks;
  const int64_t visited = scan.Finish(&blocks);
  if (stats != nullptr) {
    stats->rows_scanned += visited;
    stats->rows_scanned_driver += visited;
    stats->lanes_used = std::max(stats->lanes_used, scan.lanes());
    stats->blocks_scanned += blocks.scanned;
    stats->blocks_skipped += blocks.skipped;
  }
  LaneTrace t;
  if (tracing) {
    t = SumLanes(lt);
    opts.trace->lanes = std::max(opts.trace->lanes, scan.lanes());
    opts.trace->morsels += static_cast<int64_t>(morsels);
    TraceScanOps(opts.trace, plan.steps[0].table_id, !filters.empty(),
                 visited, blocks.skipped, t, NowNanos() - t_drv);
  }
  const int64_t t_comb = tracing ? NowNanos() : 0;

  if (combine.load(std::memory_order_acquire) != Combine::kPartitioned) {
    int64_t partial_rows = 0;
    SinkState merged =
        MergePartials(plan, sink, std::move(partials), &partial_rows);
    if (!tracing) return sink.Finish(std::move(merged));
    const int64_t sink_rows = SinkRows(plan, merged);
    obs::TraceOp comb = CombineOp(plan, "per-morsel", morsels, partial_rows,
                                  sink_rows, NowNanos() - t_comb);
    const int64_t t_fin = NowNanos();
    auto rs = sink.Finish(std::move(merged));
    if (!rs.ok()) return rs.status();
    TraceSinkOps(opts.trace, plan, t.selected, sink_rows, t.consume_ns, &comb,
                 NowNanos() - t_fin, *rs);
    return rs;
  }

  if (opts.partitioned_counter != nullptr) opts.partitioned_counter->Add(1);
  partials.clear();
  std::vector<size_t> redo;
  for (size_t m = 0; m < morsels; ++m) {
    if (as_partial[m] != 0) redo.push_back(m);
  }
  OLXP_RETURN_NOT_OK(scan.ParallelFor(redo.size(), [&](int lane, size_t i) {
    return scan_morsel(lane, scan.MorselAt(redo[i]), false,
                       partition_into(redo[i]));
  }));
  int64_t ngroups = 0;
  auto rows_or = AggregatePartitions(scan, sink, parts, &ngroups);
  if (!rows_or.ok()) return rows_or.status();
  std::vector<PendingRow> rows = std::move(rows_or).value();
  if (!tracing) return sink.Emit(std::move(rows), /*by_seq=*/true);
  obs::TraceOp comb = CombineOp(plan, "partitioned", kAggPartitions,
                                t.selected, ngroups, NowNanos() - t_comb);
  const int64_t t_fin = NowNanos();
  auto rs = sink.Emit(std::move(rows), /*by_seq=*/true);
  if (!rs.ok()) return rs.status();
  TraceSinkOps(opts.trace, plan, t.selected, ngroups, t.consume_ns, &comb,
               NowNanos() - t_fin, *rs);
  return rs;
}

StatusOr<sql::ResultSet> RunSingleTable(const BoundSelect& plan,
                                        const LowerInputs& in,
                                        const storage::ColumnTable& table,
                                        const VecSink& sink,
                                        const VecExecOptions& opts,
                                        VecExecStats* stats) {
  const std::vector<ValueType> types = SchemaTypes(table.schema());
  std::vector<VExpr> filters;
  filters.reserve(plan.steps[0].filters.size());
  for (const auto& f : plan.steps[0].filters) {
    auto lowered = LowerExprSlots(*f, types, 0, in);
    if (!lowered.ok()) return lowered.status();
    filters.push_back(std::move(lowered).value());
  }

  // Zone-refutable bounds from the scan conjuncts: the serial and the
  // parallel scan consult the pinned blocks' zone maps through the same
  // mask, so they skip identically.
  const std::vector<storage::ZonePred> zpreds = ExtractZonePreds(filters);

  if (UseParallel(opts, plan)) {
    return RunSingleTableParallel(plan, table, filters, zpreds, sink, opts,
                                  stats);
  }

  const bool tracing = opts.trace != nullptr;
  SinkState state;
  LaneTrace t;
  ScanBlocks blocks;
  const int64_t t_drv = tracing ? NowNanos() : 0;
  auto scanned_or = RunSerialScan(
      table, zpreds, &blocks,
      [&](const storage::ColumnChunkView& chunk,
          Sel& sel) -> StatusOr<bool> {
        int64_t t0 = tracing ? NowNanos() : 0;
        OLXP_RETURN_NOT_OK(ApplyConjuncts(filters, chunk, &sel));
        if (tracing) {
          const int64_t t1 = NowNanos();
          t.filter_ns += t1 - t0;
          t.selected += static_cast<int64_t>(sel.size());
          t0 = t1;
        }
        auto more = sink.Consume(&state, chunk, sel, /*serial=*/true);
        if (tracing) t.consume_ns += NowNanos() - t0;
        return more;
      });
  if (!scanned_or.ok()) return scanned_or.status();
  const int64_t scanned = *scanned_or;
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_scanned_driver += scanned;
    stats->blocks_scanned += blocks.scanned;
    stats->blocks_skipped += blocks.skipped;
  }
  if (!tracing) return sink.Finish(std::move(state));
  TraceScanOps(opts.trace, plan.steps[0].table_id, !filters.empty(), scanned,
               blocks.skipped, t, NowNanos() - t_drv);
  const int64_t sink_rows = SinkRows(plan, state);
  const int64_t t_fin = NowNanos();
  auto rs = sink.Finish(std::move(state));
  if (!rs.ok()) return rs.status();
  TraceSinkOps(opts.trace, plan, t.selected, sink_rows, t.consume_ns, nullptr,
               NowNanos() - t_fin, *rs);
  return rs;
}

// ------------------------------- join path ---------------------------------

/// A materialized batch of joined tuples in slot layout: one Value vector
/// per plan slot. Only slots the rest of the plan references are filled
/// (the needed-slot mask); unreferenced columns stay empty and are never
/// read.
struct Batch {
  std::vector<std::vector<Value>> cols;
  std::vector<storage::ColumnSpan> desc;
  std::vector<uint8_t> live;
  size_t rows = 0;

  explicit Batch(size_t nslots) : cols(nslots), desc(nslots) {}

  void Clear() {
    rows = 0;
    for (auto& c : cols) c.clear();  // keeps capacity across chunks
  }

  storage::ColumnChunkView View() {
    // Grow-only all-ones array: View is called several times per batch
    // (probe keys, residuals, sink) and must not re-memset each time.
    if (live.size() < rows) live.resize(rows, 1);
    // Span descriptors are refreshed every View(): the column vectors may
    // have reallocated since the last batch. Joined batches are always
    // boxed (kRaw) — only replica blocks carry typed encodings.
    for (size_t i = 0; i < cols.size(); ++i) {
      desc[i] = storage::ColumnSpan{};
      desc[i].enc = storage::EncodedColumn::Enc::kRaw;
      desc[i].flat = cols[i].data();
    }
    storage::ColumnChunkView v;
    v.base = 0;
    v.rows = rows;
    v.live = live.data();
    v.cols = desc.data();
    v.num_cols = static_cast<int>(cols.size());
    return v;
  }
};

/// One hash-join stage: the built side plus the probe-side machinery.
/// Immutable once built — the morsel fan-out probes one shared level set
/// from every lane concurrently.
struct JoinLevel {
  int base = 0;   ///< first slot of the build table
  int ncols = 0;  ///< columns of the build table
  HashJoinTable ht;
  /// Level 0 keys are lowered against the stream table (evaluated on the
  /// raw scan chunk, so non-matching rows are never materialized); deeper
  /// levels are lowered in slot layout and evaluated on joined batches.
  std::vector<VExpr> probe_keys;
  std::vector<VExpr> residuals;  ///< slot layout, checked after this join
  /// Needed build-table columns copied on emit (local indices).
  std::vector<int> copy_cols;
  /// Needed slots filled before this level, copied through on emit.
  std::vector<int> prev_slots;
};

/// Looks up one probe row in the level's hash table; nullptr = no match
/// (including NULL keys, which never join).
const std::vector<uint32_t>* ProbeOne(const JoinLevel& level,
                                      const std::vector<Vec>& kvecs,
                                      bool int_probe, size_t i, Row* key) {
  if (int_probe) {
    if (kvecs[0].null_at(i)) return nullptr;
    return level.ht.ProbeInt(kvecs[0].int_at(i));
  }
  key->clear();
  for (const Vec& kv : kvecs) {
    if (kv.null_at(i)) return nullptr;
    key->push_back(kv.value_at(i));
  }
  return level.ht.ProbeRow(*key);
}

bool WantIntProbe(const JoinLevel& level, const std::vector<Vec>& kvecs) {
  return level.ht.int_keyed() && kvecs.size() == 1 &&
         (kvecs[0].type == ValueType::kInt ||
          kvecs[0].type == ValueType::kTimestamp);
}

/// Per-lane probe machinery: borrows the shared immutable levels, owns its
/// own reusable output batches and stats. The serial path uses one; the
/// parallel fan-out one per lane.
class JoinPipeline {
 public:
  JoinPipeline(const std::vector<JoinLevel>& levels, size_t total_slots,
               const VecSink& sink, VecExecStats* stats, bool serial)
      : levels_(levels), sink_(sink), stats_(stats), serial_(serial) {
    out_.reserve(levels_.size());
    for (size_t i = 0; i < levels_.size(); ++i) out_.emplace_back(total_slots);
  }

  /// Probes the selected rows of `src` through level `lv` and cascades
  /// onward; past the last level the joined batch feeds the sink via `st`.
  /// `in_cols` are source-view column indices and `out_slots` the plan
  /// slots they land in — the raw stream chunk passes (local columns,
  /// global slots), deeper levels pass their identical already-filled slot
  /// list for both. Returns false when the sink's LIMIT is satisfied.
  StatusOr<bool> Probe(SinkState* st, size_t lv,
                       const storage::ColumnChunkView& src, const Sel& sel,
                       const std::vector<int>& in_cols,
                       const std::vector<int>& out_slots) {
    if (sel.empty()) return true;
    const JoinLevel& level = levels_[lv];

    std::vector<Vec> kvecs;
    kvecs.reserve(level.probe_keys.size());
    for (const VExpr& k : level.probe_keys) {
      auto v = EvalVec(k, src, sel);
      if (!v.ok()) return v.status();
      kvecs.push_back(std::move(v).value());
    }
    const bool int_probe = WantIntProbe(level, kvecs);

    // Pass 1: match lists (so output columns reserve exactly once).
    std::vector<const std::vector<uint32_t>*> matches(sel.size(), nullptr);
    size_t total = 0;
    Row key;
    for (size_t i = 0; i < sel.size(); ++i) {
      matches[i] = ProbeOne(level, kvecs, int_probe, i, &key);
      if (matches[i] != nullptr) total += matches[i]->size();
    }
    if (stats_ != nullptr) stats_->rows_joined += static_cast<int64_t>(total);
    if (total == 0) return true;

    Batch& next = out_[lv];  // reused across chunks (capacity persists)
    next.Clear();
    for (int s : out_slots) next.cols[s].reserve(total);
    for (int c : level.copy_cols) next.cols[level.base + c].reserve(total);
    for (size_t i = 0; i < sel.size(); ++i) {
      if (matches[i] == nullptr) continue;
      for (uint32_t r : *matches[i]) {
        for (size_t j = 0; j < in_cols.size(); ++j) {
          next.cols[out_slots[j]].push_back(src.value_at(in_cols[j], sel[i]));
        }
        for (int c : level.copy_cols) {
          next.cols[level.base + c].push_back(level.ht.at(c, r));
        }
        ++next.rows;
      }
    }

    Sel next_sel(next.rows);
    std::iota(next_sel.begin(), next_sel.end(), 0u);
    storage::ColumnChunkView view = next.View();
    OLXP_RETURN_NOT_OK(ApplyConjuncts(level.residuals, view, &next_sel));
    if (lv + 1 == levels_.size()) {
      return sink_.Consume(st, view, next_sel, serial_);
    }
    const std::vector<int>& filled = levels_[lv + 1].prev_slots;
    return Probe(st, lv + 1, view, next_sel, filled, filled);
  }

 private:
  const std::vector<JoinLevel>& levels_;
  std::vector<Batch> out_;  ///< per-level output batches, reused
  const VecSink& sink_;
  VecExecStats* stats_;
  bool serial_;
};

/// Whether streaming the other side of a two-table join preserves the
/// interpreter parity contract. Swapping changes the emission order, which
/// is visible through (a) LIMIT without a full sort picking a different row
/// subset and (b) grouped-aggregate representative tuples ("first row of
/// the group"): a raw slot projected (or used in HAVING / ORDER BY) that is
/// not itself a GROUP BY key takes its value from the representative, so
/// its value depends on the driving order.
bool SwapPreservesParity(const BoundSelect& plan) {
  if (plan.limit >= 0 && !plan.aggregate_mode && plan.order_by.empty()) {
    return false;
  }
  if (!plan.aggregate_mode) return true;
  std::vector<uint8_t> refs(plan.total_slots, 0);
  for (const auto& p : plan.projections) MarkSlots(*p, &refs);
  if (plan.having) MarkSlots(*plan.having, &refs);
  for (const BoundOrderItem& oi : plan.order_by) {
    if (oi.expr) MarkSlots(*oi.expr, &refs);
  }
  std::vector<uint8_t> keyed(plan.total_slots, 0);
  for (const auto& g : plan.group_by) {
    if (g->kind == sql::BKind::kSlot && g->slot >= 0 &&
        static_cast<size_t>(g->slot) < keyed.size()) {
      keyed[g->slot] = 1;
    }
  }
  for (int s = 0; s < plan.total_slots; ++s) {
    if (refs[s] && !keyed[s]) return false;  // representative-dependent
  }
  return true;
}

/// Splits every join step's filters (ClassifyJoinStep); false when a step
/// has no equi-join key, i.e. the plan is not hash-joinable.
bool ClassifyJoinSteps(const BoundSelect& plan,
                       std::vector<JoinStepPlan>* cls) {
  cls->assign(plan.steps.size(), JoinStepPlan{});
  for (size_t k = 1; k < plan.steps.size(); ++k) {
    if (!ClassifyJoinStep(plan, k, &(*cls)[k])) return false;
  }
  return true;
}

/// The step a plan's driving scan sweeps, and the conjuncts local to it.
/// Step 0 with its filters, except in a two-table join with the smaller
/// table first: that join streams the bigger table and builds the hash
/// table from the smaller one, when the changed driving order cannot leak
/// into results (SwapPreservesParity). Every other step is a build side.
struct StreamSide {
  size_t step = 0;
  std::vector<const BoundExpr*> locals;
};

StreamSide ChooseStream(
    const BoundSelect& plan, const std::vector<JoinStepPlan>& cls,
    const std::vector<const storage::ColumnTable*>& tables) {
  StreamSide side;
  if (plan.steps.size() == 2 && SwapPreservesParity(plan) &&
      tables[0]->LiveRowCount() < tables[1]->LiveRowCount()) {
    side.step = 1;
    side.locals = cls[1].locals;
    return side;
  }
  for (const auto& f : plan.steps[0].filters) side.locals.push_back(f.get());
  return side;
}

StatusOr<sql::ResultSet> RunHashJoin(
    const BoundSelect& plan, const LowerInputs& in,
    const std::vector<const storage::ColumnTable*>& tables,
    std::span<const ValueType> slot_types, const VecSink& sink,
    const VecExecOptions& opts, VecExecStats* stats) {
  const size_t nsteps = plan.steps.size();
  std::vector<JoinStepPlan> cls;
  if (!ClassifyJoinSteps(plan, &cls)) {
    return Status::Unsupported("join step without an equi-join key");
  }
  const StreamSide side = ChooseStream(plan, cls, tables);
  const size_t stream = side.step;
  const bool swapped = stream != 0;

  const TableStep& sstep = plan.steps[stream];
  std::vector<ValueType> stream_types = SchemaTypes(*sstep.schema);

  // Slots the plan reads after the join stages: sink expressions (also via
  // EvalBound over group representatives), residual conjuncts, and probe
  // keys of levels past the first (the first level probes the raw stream
  // chunk directly). Everything else is never materialized.
  const size_t total_slots = slot_types.size();
  std::vector<uint8_t> needed(total_slots, 0);
  for (const auto& p : plan.projections) MarkSlots(*p, &needed);
  for (const auto& g : plan.group_by) MarkSlots(*g, &needed);
  for (const auto& a : plan.aggs) {
    if (a.arg) MarkSlots(*a.arg, &needed);
  }
  if (plan.having) MarkSlots(*plan.having, &needed);
  for (const BoundOrderItem& oi : plan.order_by) {
    if (oi.expr) MarkSlots(*oi.expr, &needed);
  }
  {
    bool first_level = true;
    for (size_t k = 1; k < nsteps; ++k) {
      for (const BoundExpr* f : cls[k].residuals) MarkSlots(*f, &needed);
      for (const JoinKey& jk : cls[k].keys) {
        // In the two-table swapped case the sole level's probe side is the
        // stream (step-1) child; either way the only level probes the raw
        // chunk, so its keys need no materialization.
        if (first_level) continue;
        MarkSlots(*jk.probe, &needed);
      }
      first_level = false;
    }
  }

  // Stream-side local filters (evaluated on the raw chunk).
  std::vector<VExpr> stream_filters;
  stream_filters.reserve(side.locals.size());
  for (const BoundExpr* f : side.locals) {
    auto lowered = LowerExprSlots(*f, stream_types, sstep.base, in);
    if (!lowered.ok()) return lowered.status();
    stream_filters.push_back(std::move(lowered).value());
  }
  std::vector<int> stream_copy;  // needed stream columns (local indices)
  std::vector<int> stream_out;   // ... and the plan slots they land in
  for (int c = 0; c < sstep.ncols; ++c) {
    if (needed[sstep.base + c]) {
      stream_copy.push_back(c);
      stream_out.push_back(sstep.base + c);
    }
  }

  // Build one hash table per non-stream step, in plan order. The build
  // stays serial; the tables are immutable afterwards, so the probe
  // fan-out reads them lock-free from every lane.
  std::vector<JoinLevel> levels;
  std::vector<int> filled = stream_out;  // needed slots materialized so far
  for (size_t k = 0; k < nsteps; ++k) {
    if (k == stream) continue;
    const TableStep& bstep = plan.steps[k];
    std::vector<ValueType> btypes = SchemaTypes(*bstep.schema);
    // When the two-table sides are swapped, the classified key roles flip:
    // the step-0 children become the build exprs and the step-1 children
    // the probe exprs. Locals follow their table.
    const JoinStepPlan& c = swapped ? cls[1] : cls[k];
    std::vector<const BoundExpr*> blocals;
    if (swapped) {
      for (const auto& f : plan.steps[0].filters) blocals.push_back(f.get());
    } else {
      blocals = c.locals;
    }
    const bool first_level = levels.empty();

    JoinLevel level;
    level.base = bstep.base;
    level.ncols = bstep.ncols;
    level.prev_slots = filled;
    std::vector<uint8_t> bneeded(bstep.ncols, 0);
    for (int bc = 0; bc < bstep.ncols; ++bc) {
      if (needed[bstep.base + bc]) {
        bneeded[bc] = 1;
        level.copy_cols.push_back(bc);
      }
    }

    std::vector<VExpr> build_filters;
    build_filters.reserve(blocals.size());
    for (const BoundExpr* f : blocals) {
      auto lowered = LowerExprSlots(*f, btypes, bstep.base, in);
      if (!lowered.ok()) return lowered.status();
      build_filters.push_back(std::move(lowered).value());
    }
    std::vector<VExpr> build_keys;
    build_keys.reserve(c.keys.size());
    level.probe_keys.reserve(c.keys.size());
    for (const JoinKey& jk : c.keys) {
      const BoundExpr* build_side = swapped ? jk.probe : jk.build;
      const BoundExpr* probe_side = swapped ? jk.build : jk.probe;
      auto b = LowerExprSlots(*build_side, btypes, bstep.base, in);
      if (!b.ok()) return b.status();
      build_keys.push_back(std::move(b).value());
      // The first level's probe keys run against the raw stream chunk (its
      // keys reference only stream slots); deeper levels run in slot
      // layout on the joined batch.
      auto p = first_level
                   ? LowerExprSlots(*probe_side, stream_types, sstep.base, in)
                   : LowerExprSlots(*probe_side, slot_types, 0, in);
      if (!p.ok()) return p.status();
      level.probe_keys.push_back(std::move(p).value());
    }
    level.residuals.reserve(c.residuals.size());
    for (const BoundExpr* f : c.residuals) {
      auto lowered = LowerExprSlots(*f, slot_types, 0, in);
      if (!lowered.ok()) return lowered.status();
      level.residuals.push_back(std::move(lowered).value());
    }

    int64_t scanned = 0;
    const int64_t t_build = opts.trace != nullptr ? NowNanos() : 0;
    OLXP_RETURN_NOT_OK(level.ht.Build(*tables[k], build_filters, build_keys,
                                      bneeded, &scanned));
    if (opts.trace != nullptr) {
      obs::TraceOp build;
      build.op = "join-build";
      build.detail = "table=" + std::to_string(bstep.table_id) + " level=" +
                     std::to_string(levels.size());
      build.rows_in = scanned;
      build.rows_out = static_cast<int64_t>(level.ht.rows());
      build.wall_us = (NowNanos() - t_build) / 1000;
      opts.trace->ops.push_back(std::move(build));
    }
    if (stats != nullptr) {
      stats->rows_scanned += scanned;
      stats->rows_built += static_cast<int64_t>(level.ht.rows());
    }
    for (int bc : level.copy_cols) filled.push_back(level.base + bc);
    levels.push_back(std::move(level));
  }

  // Stream-side zone bounds: the probe fan-out and the serial probe skip
  // stream blocks the local stream filters refute.
  const std::vector<storage::ZonePred> zpreds =
      ExtractZonePreds(stream_filters);

  const bool tracing = opts.trace != nullptr;
  if (UseParallel(opts, plan)) {
    // Parallel probe fan-out: every lane owns a pipeline (its own batch
    // buffers and stats) over the shared immutable levels, and each morsel
    // of the stream table accumulates into its own partial sink state.
    MorselScan scan(*tables[stream], opts, zpreds);
    const auto lanes = static_cast<size_t>(scan.lanes());
    std::vector<VecExecStats> lane_stats(lanes);
    // Pipelines (and their per-level batch buffers) are built lazily on a
    // lane's first morsel. Each lane only ever touches its own slot.
    std::vector<std::unique_ptr<JoinPipeline>> pipelines(lanes);
    std::vector<SinkState> partials(scan.morsel_count());
    std::vector<LaneTrace> lt(tracing ? lanes : 0);
    const int64_t t_drv = tracing ? NowNanos() : 0;
    OLXP_RETURN_NOT_OK(scan.FanOut(
        [&](int lane, const MorselDispatcher::Morsel& m) -> Status {
          SinkState* st = &partials[m.ordinal];
          return scan.ScanMorsel(
              lane, m, /*account=*/true,
              [&](const storage::ColumnChunkView& chunk, Sel& sel) -> Status {
                int64_t t0 = tracing ? NowNanos() : 0;
                OLXP_RETURN_NOT_OK(
                    ApplyConjuncts(stream_filters, chunk, &sel));
                if (!pipelines[lane]) {
                  pipelines[lane] = std::make_unique<JoinPipeline>(
                      levels, total_slots, sink, &lane_stats[lane],
                      /*serial=*/false);
                }
                if (tracing) {
                  LaneTrace& t = lt[static_cast<size_t>(lane)];
                  const int64_t t1 = NowNanos();
                  t.filter_ns += t1 - t0;
                  t.selected += static_cast<int64_t>(sel.size());
                  t0 = t1;
                }
                auto more = pipelines[lane]->Probe(st, 0, chunk, sel,
                                                   stream_copy, stream_out);
                if (tracing) {
                  lt[static_cast<size_t>(lane)].consume_ns +=
                      NowNanos() - t0;
                }
                return more.ok() ? Status::OK() : more.status();
              });
        }));
    ScanBlocks blocks;
    const int64_t visited = scan.Finish(&blocks);
    int64_t joined = 0;
    for (const VecExecStats& ls : lane_stats) joined += ls.rows_joined;
    if (stats != nullptr) {
      stats->rows_scanned += visited;
      stats->rows_scanned_driver += visited;
      stats->lanes_used = std::max(stats->lanes_used, scan.lanes());
      stats->rows_joined += joined;
      stats->blocks_scanned += blocks.scanned;
      stats->blocks_skipped += blocks.skipped;
    }
    const int64_t t_comb = tracing ? NowNanos() : 0;
    int64_t partial_rows = 0;
    SinkState merged =
        MergePartials(plan, sink, std::move(partials), &partial_rows);
    if (!tracing) return sink.Finish(std::move(merged));
    const int64_t comb_ns = NowNanos() - t_comb;
    const LaneTrace t = SumLanes(lt);
    opts.trace->lanes = std::max(opts.trace->lanes, scan.lanes());
    opts.trace->morsels += static_cast<int64_t>(scan.morsel_count());
    TraceScanOps(opts.trace, plan.steps[stream].table_id,
                 !stream_filters.empty(), visited, blocks.skipped, t,
                 t_comb - t_drv);
    obs::TraceOp probe;
    probe.op = "probe";
    probe.detail = std::to_string(levels.size()) + " levels";
    probe.rows_in = t.selected;
    probe.rows_out = joined;
    probe.wall_us = t.consume_ns / 1000;  // includes the sink consume
    opts.trace->ops.push_back(std::move(probe));
    const int64_t sink_rows = SinkRows(plan, merged);
    obs::TraceOp comb = CombineOp(plan, "per-morsel", scan.morsel_count(),
                                  partial_rows, sink_rows, comb_ns);
    const int64_t t_fin = NowNanos();
    auto rs = sink.Finish(std::move(merged));
    if (!rs.ok()) return rs.status();
    TraceSinkOps(opts.trace, plan, joined, sink_rows, 0, &comb,
                 NowNanos() - t_fin, *rs);
    return rs;
  }

  // The serial trace needs the joined-row count even when the caller passed
  // no stats block.
  VecExecStats local_stats;
  VecExecStats* jstats = stats != nullptr ? stats : (tracing ? &local_stats
                                                             : nullptr);
  const int64_t joined_before = jstats != nullptr ? jstats->rows_joined : 0;
  JoinPipeline pipeline(levels, total_slots, sink, jstats, /*serial=*/true);
  SinkState state;
  LaneTrace t;
  ScanBlocks blocks;
  const int64_t t_drv = tracing ? NowNanos() : 0;
  auto scanned_or = RunSerialScan(
      *tables[stream], zpreds, &blocks,
      [&](const storage::ColumnChunkView& chunk,
          Sel& sel) -> StatusOr<bool> {
        int64_t t0 = tracing ? NowNanos() : 0;
        OLXP_RETURN_NOT_OK(ApplyConjuncts(stream_filters, chunk, &sel));
        if (tracing) {
          const int64_t t1 = NowNanos();
          t.filter_ns += t1 - t0;
          t.selected += static_cast<int64_t>(sel.size());
          t0 = t1;
        }
        // First-level probe runs straight off the raw chunk: its keys are
        // lowered against the stream table, so non-matching rows are never
        // materialized into slot layout.
        auto more =
            pipeline.Probe(&state, 0, chunk, sel, stream_copy, stream_out);
        if (tracing) t.consume_ns += NowNanos() - t0;
        return more;
      });
  if (!scanned_or.ok()) return scanned_or.status();
  const int64_t scanned = *scanned_or;
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_scanned_driver += scanned;
    stats->blocks_scanned += blocks.scanned;
    stats->blocks_skipped += blocks.skipped;
  }
  if (!tracing) return sink.Finish(std::move(state));
  const int64_t joined = jstats->rows_joined - joined_before;
  TraceScanOps(opts.trace, plan.steps[stream].table_id,
               !stream_filters.empty(), scanned, blocks.skipped, t,
               NowNanos() - t_drv);
  obs::TraceOp probe;
  probe.op = "probe";
  probe.detail = std::to_string(levels.size()) + " levels";
  probe.rows_in = t.selected;
  probe.rows_out = joined;
  probe.wall_us = t.consume_ns / 1000;  // includes the sink consume
  opts.trace->ops.push_back(std::move(probe));
  const int64_t sink_rows = SinkRows(plan, state);
  const int64_t t_fin = NowNanos();
  auto rs = sink.Finish(std::move(state));
  if (!rs.ok()) return rs.status();
  TraceSinkOps(opts.trace, plan, joined, sink_rows, 0, nullptr,
               NowNanos() - t_fin, *rs);
  return rs;
}

/// Executes one SELECT plan (the statement's, or a subquery's) on the
/// replica. Every subquery of `plan` (the interpreter's expression
/// positions, sql::ForEachSubquery) runs first, through this engine, into
/// in.subqueries — before the plan pins any table, so a statement holds one
/// table's scan latch at a time. A scalar subquery over more than one row
/// fails the statement there, whether or not a row would evaluate it.
/// Subplans run untraced; each adds one "subquery" op to the trace.
StatusOr<sql::ResultSet> RunSelect(const BoundSelect& plan,
                                   const LowerInputs& in,
                                   const storage::ColumnStore& store,
                                   const VecExecOptions& opts,
                                   VecExecStats* stats) {
  if (plan.steps.empty()) {
    return Status::Unsupported("not a vectorizable statement");
  }
  if (!in.subqueries->empty()) {
    VecExecOptions sub_opts = opts;
    sub_opts.trace = nullptr;
    OLXP_RETURN_NOT_OK(
        sql::ForEachSubquery(plan, [&](const BoundExpr& e) -> Status {
          std::optional<std::vector<Row>>& slot = in.subqueries->at(e.sub_id);
          if (slot.has_value()) return Status::OK();  // cloned into a key
          const int64_t t0 = opts.trace != nullptr ? NowNanos() : 0;
          auto rs = RunSelect(*e.subplan, in, store, sub_opts, stats);
          if (!rs.ok()) return rs.status();
          if (e.kind == sql::BKind::kScalarSubquery) {
            OLXP_RETURN_NOT_OK(sql::ScalarSubqueryValue(rs->rows).status());
          }
          if (opts.trace != nullptr) {
            opts.trace->AddSubquery(e.sub_id,
                                    static_cast<int64_t>(rs->rows.size()),
                                    NowNanos() - t0);
          }
          slot = std::move(rs->rows);
          return Status::OK();
        }));
  }

  std::vector<const storage::ColumnTable*> tables;
  tables.reserve(plan.steps.size());
  std::vector<ValueType> slot_types;
  slot_types.reserve(plan.total_slots);
  for (const TableStep& step : plan.steps) {
    const storage::ColumnTable* t = store.table(step.table_id);
    if (t == nullptr) return Status::NotFound("no columnar replica");
    tables.push_back(t);
    std::vector<ValueType> types = SchemaTypes(*step.schema);
    slot_types.insert(slot_types.end(), types.begin(), types.end());
  }

  VecSink sink(plan, in);
  OLXP_RETURN_NOT_OK(sink.Init(slot_types));

  if (plan.steps.size() == 1) {
    return RunSingleTable(plan, in, *tables[0], sink, opts, stats);
  }
  return RunHashJoin(plan, in, tables, slot_types, sink, opts, stats);
}

bool CanVectorize(const BoundSelect& p) {
  if (p.steps.empty()) return false;
  // Joins: every non-driver step must be reachable through at least one
  // equi-join conjunct (hash-joinable); anything else runs on the row store.
  std::vector<JoinStepPlan> cls;
  if (!ClassifyJoinSteps(p, &cls)) return false;
  // Every subquery runs through this engine too.
  return sql::ForEachSubquery(p, [](const BoundExpr& e) {
           return CanVectorize(*e.subplan)
                      ? Status::OK()
                      : Status::Unsupported("subquery");
         }).ok();
}

}  // namespace

PlanShape InspectPlan(const sql::CompiledStatement& stmt) {
  PlanShape s;
  const auto& impl = stmt.impl();
  if (impl.kind != sql::StmtKind::kSelect || !impl.select) return s;
  const BoundSelect& p = *impl.select;
  s.table_ids.reserve(p.steps.size());
  s.seek_driven = !p.steps.empty();
  for (const TableStep& step : p.steps) {
    s.table_ids.push_back(step.table_id);
    if (step.path == TableStep::Path::kFull) s.seek_driven = false;
  }
  s.vectorizable = CanVectorize(p);
  return s;
}

StatusOr<sql::ResultSet> ExecuteVectorized(const sql::CompiledStatement& stmt,
                                           std::span<const Value> params,
                                           const storage::ColumnStore& store,
                                           const VecExecOptions& opts,
                                           VecExecStats* stats) {
  const auto& impl = stmt.impl();
  if (impl.kind != sql::StmtKind::kSelect || !impl.select) {
    return Status::Unsupported("not a vectorizable statement");
  }
  sql::SubqueryRows subqueries(impl.num_subqueries);
  return RunSelect(*impl.select, LowerInputs{params, &subqueries}, store, opts,
                   stats);
}

VecExecStats EstimateReplicaWork(const sql::CompiledStatement& stmt,
                                 std::span<const Value> params,
                                 const storage::ColumnStore& store,
                                 const VecExecOptions& opts) {
  VecExecStats est;
  const auto& impl = stmt.impl();
  if (impl.kind != sql::StmtKind::kSelect || !impl.select ||
      impl.select->steps.empty()) {
    return est;
  }
  const BoundSelect& plan = *impl.select;
  std::vector<const storage::ColumnTable*> tables;
  for (const TableStep& step : plan.steps) {
    tables.push_back(store.table(step.table_id));
    if (tables.back() == nullptr) return est;
  }
  std::vector<JoinStepPlan> cls;
  if (!ClassifyJoinSteps(plan, &cls)) return est;
  const StreamSide side = ChooseStream(plan, cls, tables);

  // Zone bounds of the stream's local conjuncts. A conjunct that does not
  // lower here (it reads a subquery not yet run) bounds nothing.
  const TableStep& sstep = plan.steps[side.step];
  const std::vector<ValueType> types = SchemaTypes(*sstep.schema);
  std::vector<VExpr> filters;
  for (const BoundExpr* f : side.locals) {
    auto lowered = LowerExprSlots(*f, types, sstep.base, LowerInputs{params});
    if (lowered.ok()) filters.push_back(std::move(lowered).value());
  }
  size_t slots = 0;
  {
    storage::ColumnTable::ScanPin pin(*tables[side.step]);
    slots = pin.total_slots();
    est.rows_scanned_driver = static_cast<int64_t>(
        pin.LiveRowsRead(pin.ComputeSkipMask(ExtractZonePreds(filters))));
  }
  est.lanes_used = UseParallel(opts, plan) ? FanOutLanes(opts, slots) : 1;
  est.rows_scanned = est.rows_scanned_driver;
  for (size_t k = 0; k < tables.size(); ++k) {
    if (k == side.step) continue;
    const auto live = static_cast<int64_t>(tables[k]->LiveRowCount());
    est.rows_scanned += live;
    est.rows_built += live;
  }
  if (tables.size() > 1) est.rows_joined = est.rows_scanned_driver;
  return est;
}

}  // namespace olxp::exec
