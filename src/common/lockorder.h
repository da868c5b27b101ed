#ifndef OLXP_COMMON_LOCKORDER_H_
#define OLXP_COMMON_LOCKORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>

// ---------------------------------------------------------------------------
// Lock-rank hierarchy + debug lock-order witness
// ---------------------------------------------------------------------------
// Clang TSA (sync.h) proves per-lock discipline; this header proves the
// cross-lock property: every acquisition path through the engine respects one
// global hierarchy, so no interleaving of threads can form a hold-and-wait
// cycle. Each sync::Mutex / sync::SharedMutex is constructed with a LockRank
// and a name. In witness builds (-DOLXP_LOCK_ORDER, the default for Debug
// configurations) every acquisition is checked against the ranks of the locks
// the thread already holds:
//
//   * acquiring a LOWER rank than one currently held is a rank inversion and
//     aborts immediately with a witness report — deterministic on the first
//     offending path, no adversarial interleaving required;
//   * acquisitions among SAME-rank locks (lock-manager shards, table
//     latches, obs registries) are allowed but recorded in a global
//     acquired-after graph; an edge that closes a cycle aborts with the two
//     acquisition stacks that disagree, abseil-deadlock-detector style.
//
// Release builds compile the whole witness to nothing: the constructors
// discard rank and name, the hooks are empty inlines, and sizeof(Mutex) is
// exactly sizeof(std::mutex).

namespace olxp::sync {

/// The global acquisition hierarchy, outermost first. A thread may only
/// acquire a lock of rank >= the highest rank it already holds. The values
/// encode the orders the engine actually takes today:
///
///   Checkpoint     > everything: Database::Checkpoint pins the commit scope,
///                    the snapshot registry, table latches, and the WAL.
///   VacuumPass     > registry/table/obs: RunOnce computes the watermark and
///                    reclaims chains with the pass lock held.
///   ReplicatorApply> commit log, column-table latches, registry: the apply
///                    pipeline drains Fetch into ApplyCommit under apply_mu_.
///   LockManagerShard: 2PL row-lock shards; self-contained (waiters block on
///                    the shard's own condvar), siblings share the rank.
///   OracleCommit   > table latch, WAL, commit log: CommitScope covers
///                    version install and log append — the engine-wide commit
///                    critical section.
///   SnapshotRegistry: registered inside the commit scope (checkpoint) and
///                    under the vacuum/replicator outer locks.
///   Catalog        : store-level name->table maps; held only to resolve.
///   TableGate      : MvccTable writer gate, held around the exclusive latch
///                    so overlapping chunked scans cannot starve a writer.
///   TableLatch     : MvccTable / ColumnTable latches. Siblings share the
///                    rank; a statement pins ONE table per scan (the
///                    interpreter join materializes each level first).
///   WalIo > WalPending: io_mu_ serializes segment writes, mu_ the in-memory
///                    buffer; whenever both are held io_mu_ is taken first.
///   CommitLog      : in-memory replication log; WAL append happens before
///                    its mutex, never inside it.
///   Obs            : metrics registry / histograms / slow-query ring —
///                    recorded from inside WAL and vacuum critical sections.
///   WorkerPool     : morsel fan-out; entered with a scan pin (TableLatch)
///                    held.
///   Client         : code above the engine (bench drivers, tests).
enum class LockRank : int {
  kCheckpoint = 100,
  kVacuumPass = 200,
  kReplicatorApply = 300,
  kLockManagerShard = 400,
  kOracleCommit = 500,
  kSnapshotRegistry = 600,
  kCatalog = 700,
  kTableGate = 750,
  kTableLatch = 800,
  kVacuumState = 850,
  kWalIo = 900,
  kWalPending = 1000,
  kCommitLog = 1100,
  kObs = 1200,
  kWorkerPool = 1300,
  kClient = 1400,
};

/// Human-readable rank name for witness reports ("TableLatch", ...).
const char* LockRankName(LockRank rank);

namespace lockorder {

/// Everything a witness report needs: both locks, both ranks, and the two
/// acquisition stacks (this thread's held-lock stack at the failing acquire,
/// and — for cycles — the held-lock stack recorded when the conflicting
/// edge was first observed).
struct Violation {
  const char* kind;  ///< "rank-inversion" | "cycle" | "recursive"
  const char* holding_name;
  LockRank holding_rank;
  const char* acquiring_name;
  LockRank acquiring_rank;
  std::string held_stack;   ///< this thread: "a(RankA) -> b(RankB)"
  std::string prior_stack;  ///< cycle only: the recorded conflicting order
  std::string Report() const;
};

/// Called on a violation. The default prints Report() to stderr and aborts;
/// tests install a capturing handler and restore the previous one.
using Handler = void (*)(const Violation&);

#if defined(OLXP_LOCK_ORDER)

inline constexpr bool kEnabled = true;

/// Pre-acquisition hook: checks rank order against the thread's held stack,
/// records acquired-after edges, detects same-rank cycles, then pushes the
/// lock. Runs BEFORE the underlying lock() so a would-be deadlock reports
/// instead of hanging.
void OnAcquire(const void* lock, LockRank rank, const char* name);
/// Pops the lock from the thread's held stack (out-of-order release is
/// legal and tolerated).
void OnRelease(const void* lock);
/// Destructor hook: purges graph state for the address so a new lock reusing
/// it cannot inherit phantom edges.
void OnDestroy(const void* lock);

Handler SetViolationHandler(Handler h);  ///< returns the previous handler
int64_t EdgesObserved();  ///< distinct acquired-after pairs seen (coverage)
size_t HeldCount();       ///< this thread's held-lock stack depth (tests)

#else  // !OLXP_LOCK_ORDER — every hook is an empty inline the optimizer drops

inline constexpr bool kEnabled = false;

inline void OnAcquire(const void*, LockRank, const char*) {}
inline void OnRelease(const void*) {}
inline void OnDestroy(const void*) {}
inline Handler SetViolationHandler(Handler) { return nullptr; }
inline int64_t EdgesObserved() { return 0; }
inline size_t HeldCount() { return 0; }

#endif  // OLXP_LOCK_ORDER

}  // namespace lockorder
}  // namespace olxp::sync

#endif  // OLXP_COMMON_LOCKORDER_H_
