#include "common/lockorder.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace olxp::sync {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kCheckpoint:
      return "Checkpoint";
    case LockRank::kVacuumPass:
      return "VacuumPass";
    case LockRank::kReplicatorApply:
      return "ReplicatorApply";
    case LockRank::kLockManagerShard:
      return "LockManagerShard";
    case LockRank::kOracleCommit:
      return "OracleCommit";
    case LockRank::kSnapshotRegistry:
      return "SnapshotRegistry";
    case LockRank::kCatalog:
      return "Catalog";
    case LockRank::kTableGate:
      return "TableGate";
    case LockRank::kTableLatch:
      return "TableLatch";
    case LockRank::kVacuumState:
      return "VacuumState";
    case LockRank::kWalIo:
      return "WalIo";
    case LockRank::kWalPending:
      return "WalPending";
    case LockRank::kCommitLog:
      return "CommitLog";
    case LockRank::kObs:
      return "Obs";
    case LockRank::kWorkerPool:
      return "WorkerPool";
    case LockRank::kClient:
      return "Client";
  }
  return "?";
}

namespace lockorder {

std::string Violation::Report() const {
  std::string out = "== lock-order witness: ";
  out += kind;
  out += " ==\n  acquiring   \"";
  out += acquiring_name;
  out += "\" (rank ";
  out += LockRankName(acquiring_rank);
  out += ")\n  while holding \"";
  out += holding_name;
  out += "\" (rank ";
  out += LockRankName(holding_rank);
  out += ")\n  this thread holds: ";
  out += held_stack;
  if (!prior_stack.empty()) {
    out += "\n  conflicting prior order: ";
    out += prior_stack;
  }
  out += '\n';
  return out;
}

#if defined(OLXP_LOCK_ORDER)

// The witness's own state is guarded by one raw std::mutex (this file is
// part of the sync core the raw-sync lint rule exempts): the hooks run
// *around* engine locks, so an annotated wrapper here would recurse into
// its own bookkeeping.

namespace {

struct HeldEntry {
  const void* lock;
  LockRank rank;
  const char* name;
};

// Per-thread held-lock stack, in acquisition order.
thread_local std::vector<HeldEntry> tls_held;

struct EdgeInfo {
  const char* from_name;
  LockRank from_rank;
  const char* to_name;
  LockRank to_rank;
  std::string held_stack;  ///< holder's stack when the edge was recorded
};

struct PtrPairHash {
  size_t operator()(const std::pair<const void*, const void*>& p) const {
    auto a = reinterpret_cast<uintptr_t>(p.first);
    auto b = reinterpret_cast<uintptr_t>(p.second);
    return std::hash<uintptr_t>()(a * 0x9e3779b97f4a7c15ULL ^ b);
  }
};

// Global witness state. Leaked on purpose (function-local static pointer):
// static-storage engine objects (e.g. the global metrics registry) run
// destructor hooks after a plain static here would already be gone.
struct State {
  std::mutex mu;
  // All distinct acquired-after pairs ever observed (coverage gauge + the
  // recorded stacks witness reports quote).
  std::unordered_map<std::pair<const void*, const void*>, EdgeInfo,
                     PtrPairHash>
      edges;
  // Same-rank adjacency only: cross-rank cycles are impossible once every
  // acquisition passes the rank check, so cycle detection needs just this.
  std::unordered_map<const void*, std::unordered_set<const void*>> adj;
  std::atomic<int64_t> edges_observed{0};
  std::atomic<Handler> handler{nullptr};
  // Bumped on every lock destruction; invalidates per-thread edge caches so
  // a new lock reusing a freed address is re-recorded from scratch.
  std::atomic<uint64_t> generation{1};
};

State& S() {
  static State* s = new State();
  return *s;
}

// Per-thread cache of edges already recorded globally, so steady-state
// nested acquisition costs one hash probe instead of a global mutex.
thread_local std::unordered_set<std::pair<const void*, const void*>,
                                PtrPairHash>
    tls_seen_edges;
thread_local uint64_t tls_seen_generation = 0;

void DefaultHandler(const Violation& v) {
  std::string report = v.Report();
  std::fwrite(report.data(), 1, report.size(), stderr);
  std::fflush(stderr);
  std::abort();
}

void Invoke(const Violation& v) {
  Handler h = S().handler.load(std::memory_order_acquire);
  if (h == nullptr) h = &DefaultHandler;
  h(v);
}

std::string RenderStack(const std::vector<HeldEntry>& held) {
  std::string out;
  for (const HeldEntry& h : held) {
    if (!out.empty()) out += " -> ";
    out += h.name;
    out += '(';
    out += LockRankName(h.rank);
    out += ')';
  }
  if (out.empty()) out = "(nothing)";
  return out;
}

/// True when `to` is reachable from `from` over same-rank edges.
/// REQUIRES S().mu. Iterative DFS; the graph holds a handful of nodes.
bool Reachable(const void* from, const void* to) {
  std::vector<const void*> stack{from};
  std::unordered_set<const void*> visited;
  auto& adj = S().adj;
  while (!stack.empty()) {
    const void* n = stack.back();
    stack.pop_back();
    if (n == to) return true;
    if (!visited.insert(n).second) continue;
    auto it = adj.find(n);
    if (it == adj.end()) continue;
    for (const void* next : it->second) stack.push_back(next);
  }
  return false;
}

}  // namespace

void OnAcquire(const void* lock, LockRank rank, const char* name) {
  auto& held = tls_held;
  if (!held.empty()) {
    // Rank check against every held lock; the highest-ranked holder is the
    // witness partner if the new rank sits below it.
    const HeldEntry* worst = nullptr;
    for (const HeldEntry& h : held) {
      if (h.lock == lock) {
        Violation v{"recursive",  h.name, h.rank, name,
                    rank,         RenderStack(held), {}};
        Invoke(v);
        // Handler returned (test capture): fall through and push anyway so
        // the matching release keeps the stack consistent.
        break;
      }
      if (worst == nullptr ||
          static_cast<int>(h.rank) > static_cast<int>(worst->rank)) {
        worst = &h;
      }
    }
    if (worst != nullptr &&
        static_cast<int>(rank) < static_cast<int>(worst->rank)) {
      Violation v{"rank-inversion", worst->name, worst->rank, name,
                  rank,             RenderStack(held), {}};
      Invoke(v);
    }
    // Record acquired-after edges held -> lock. The fast path is the
    // thread-local cache; misses take the global mutex once per new edge.
    uint64_t gen = S().generation.load(std::memory_order_acquire);
    if (tls_seen_generation != gen) {
      tls_seen_edges.clear();
      tls_seen_generation = gen;
    }
    for (const HeldEntry& h : held) {
      if (h.lock == lock) continue;
      std::pair<const void*, const void*> key{h.lock, lock};
      if (!tls_seen_edges.insert(key).second) continue;
      std::optional<Violation> cycle;
      {
        std::lock_guard<std::mutex> g(S().mu);
        auto [it, inserted] = S().edges.try_emplace(
            key, EdgeInfo{h.name, h.rank, name, rank, RenderStack(held)});
        if (inserted) {
          S().edges_observed.fetch_add(1, std::memory_order_relaxed);
        }
        if (h.rank == rank) {
          // Same-rank edge: legal unless it closes a cycle, i.e. the lock
          // being acquired can already reach the holder.
          if (Reachable(lock, h.lock)) {
            std::string prior = "\"";
            prior += name;
            prior += "\" was previously acquired before \"";
            prior += h.name;
            prior += '"';
            auto rev = S().edges.find({lock, h.lock});
            if (rev != S().edges.end()) {
              prior += " while holding: ";
              prior += rev->second.held_stack;
            }
            cycle = Violation{"cycle", h.name, h.rank,
                              name,    rank,   RenderStack(held),
                              std::move(prior)};
            // Leave the graph acyclic: the offending edge is reported, not
            // recorded, so later detection stays deterministic.
            tls_seen_edges.erase(key);
          } else {
            S().adj[h.lock].insert(lock);
          }
        }
      }
      if (cycle) Invoke(*cycle);  // outside S().mu — handlers may lock
    }
  }
  held.push_back({lock, rank, name});
}

void OnRelease(const void* lock) {
  auto& held = tls_held;
  for (size_t i = held.size(); i > 0; --i) {
    if (held[i - 1].lock == lock) {
      held.erase(held.begin() + static_cast<ptrdiff_t>(i - 1));
      return;
    }
  }
  // Not found: acquisition predated witness interest (or a borrow path);
  // ignoring keeps release paths robust.
}

void OnDestroy(const void* lock) {
  std::lock_guard<std::mutex> g(S().mu);
  S().adj.erase(lock);
  for (auto& [node, outs] : S().adj) outs.erase(lock);
  for (auto it = S().edges.begin(); it != S().edges.end();) {
    if (it->first.first == lock || it->first.second == lock) {
      it = S().edges.erase(it);
    } else {
      ++it;
    }
  }
  S().generation.fetch_add(1, std::memory_order_release);
}

Handler SetViolationHandler(Handler h) {
  return S().handler.exchange(h, std::memory_order_acq_rel);
}

int64_t EdgesObserved() {
  return S().edges_observed.load(std::memory_order_relaxed);
}

size_t HeldCount() { return tls_held.size(); }

#endif  // OLXP_LOCK_ORDER

}  // namespace lockorder
}  // namespace olxp::sync
