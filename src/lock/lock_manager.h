/// \file lock_manager.h
/// \brief Transaction-oriented lock manager.
///
/// This is the "lock manager" of §4.1: protocols determine *which* granules
/// to lock in *which* mode; the lock manager tests whether a request can be
/// granted, blocks conflicting requests, detects deadlocks on the waits-for
/// graph, and administrates held locks per transaction.
///
/// Features:
///  * modes IS/IX/S/SIX/X with the classical compatibility matrix,
///  * re-entrant acquisition and in-place conversion (upgrade to the
///    supremum of held and requested mode; conversions jump the queue),
///  * FIFO-fair waiting (no reader slips past a queued writer),
///  * deadlock detection: a waits-for graph is maintained while requests
///    block; cycles are resolved by aborting the *youngest* transaction in
///    the cycle (its pending request fails with `StatusCode::kDeadlock`),
///  * per-request deadlines (timeout as a backstop),
///  * short and *long* lock durations; long locks survive a simulated
///    system crash via `SnapshotLongLocks`/`RestoreLongLocks` (§3.1:
///    "long locks must survive system shutdowns and system crashes").
///
/// Hot-path machinery (the intention-lock tax of fine-granularity
/// protocols — cf. Malta & Martinez — dominates §4.4.2 workloads):
///  * an optional per-transaction `TxnLocks` (lock/txn_locks.h) whose mode
///    cache absorbs re-entrant acquisitions of covered modes without
///    touching any mutex,
///  * `AcquirePath` locks a root-to-leaf chain in one call, visiting each
///    shard mutex once and appending to the held list in one batch,
///  * waiters carry their own condition variable, so a grant wakes exactly
///    the transactions it unblocked instead of broadcasting to the shard.
///
/// ## Lock table (see DESIGN.md §11)
///
/// Entries live in per-shard bucket chains guarded by the shard mutex, so
/// a hold has one representation: a holder-vector row, read and written
/// only under that mutex.  An entry that empties is unlinked and its node
/// goes back to a small per-shard pool (LIFO, `kEntryPoolSize`), where the
/// next new entry of the shard reuses it at once, vector capacity and all.

#ifndef CODLOCK_LOCK_LOCK_MANAGER_H_
#define CODLOCK_LOCK_LOCK_MANAGER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/mode.h"
#include "lock/resource.h"
#include "lock/txn_locks.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/striped_map.h"
#include "util/thread_annotations.h"
#include "util/wm_atomic.h"

namespace codlock::lock {

/// Lifetime class of a lock (§3.1).
enum class LockDuration : uint8_t {
  kShort,  ///< released at EOT; lost on crash
  kLong    ///< survives shutdowns/crashes (check-out locks)
};

/// How the manager deals with (potential) deadlocks.
enum class DeadlockPolicy : uint8_t {
  /// Maintain a waits-for graph while requests block; on a cycle, abort
  /// the youngest member (its pending request fails with kDeadlock).
  kDetect,
  /// Wound-wait (preemptive prevention): an older requester *wounds*
  /// younger conflicting transactions — their pending waits are killed
  /// and their next acquire fails with kAborted; a younger requester
  /// waits.  No cycles can form.
  kWoundWait,
  /// Wait-die (non-preemptive prevention): an older requester may wait; a
  /// younger requester dies immediately (kDeadlock) when blocked by an
  /// older transaction.  No cycles can form.
  kWaitDie,
  /// No prevention or detection; the per-request deadline is the only way
  /// out of a deadlock (kTimeout).
  kTimeoutOnly,
};

std::string_view DeadlockPolicyName(DeadlockPolicy policy);

/// Per-request options.
struct AcquireOptions {
  /// `timeout_ms` sentinel: use the manager's `default_timeout_ms`.
  /// Historically `timeout_ms == 0` silently meant "default", making an
  /// explicit zero-length wait unexpressible; the sentinels make the
  /// intent spellable.  0 is kept equal to kTimeoutDefault for backward
  /// compatibility — a true "don't wait" is `wait = false`.
  static constexpr uint64_t kTimeoutDefault = 0;
  /// `timeout_ms` sentinel: wait forever (no deadline).
  static constexpr uint64_t kTimeoutInfinite = ~uint64_t{0};

  LockDuration duration = LockDuration::kShort;
  /// If false, a conflicting request fails immediately with kConflict.
  bool wait = true;
  /// Deadline for a waiting request, in milliseconds.  `kTimeoutDefault`
  /// (= 0) uses the manager default; `kTimeoutInfinite` waits without a
  /// deadline.
  uint64_t timeout_ms = kTimeoutDefault;
};

/// A lock held by a transaction (inspection, Fig. 7 reproduction).
struct HeldLock {
  ResourceId resource;
  LockMode mode = LockMode::kNL;
  LockDuration duration = LockDuration::kShort;
};

/// Snapshot record of a long lock (crash survival).
struct LongLockRecord {
  TxnId txn = kInvalidTxn;
  ResourceId resource;
  LockMode mode = LockMode::kNL;
};

/// \brief The lock manager.
class LockManager {
 public:
  struct Options {
    /// Desired shard count; clamped to >= 1 and rounded up to the next
    /// power of two so `ShardFor` can mask instead of divide.  0 (the
    /// default) derives the count from the machine's hardware concurrency
    /// (see `DerivedNumShards`).
    int num_shards = 0;
    DeadlockPolicy deadlock_policy = DeadlockPolicy::kDetect;
    /// Default deadline for waiting requests; may be
    /// `AcquireOptions::kTimeoutInfinite`.
    uint64_t default_timeout_ms = 10'000;
    /// Overload shedding: when more than this many requests are blocked
    /// manager-wide, further requests that would have to wait fail with
    /// `StatusCode::kShed` instead of queuing (0 = unlimited).  Bounds the
    /// waiter convoy under overload so admitted work keeps finishing.
    size_t max_blocked_waiters = 0;
  };

  /// Default shard count for a machine with \p hardware_concurrency
  /// logical CPUs: the next power of two >= 4x the CPU count, clamped to
  /// [16, 1024].  4x over-provisioning keeps two random resources likely
  /// on distinct shards even when every core runs a lock-hot thread;
  /// 16 preserves the historical default on small hosts (and when the
  /// runtime reports 0, i.e. "unknown").
  static size_t DerivedNumShards(unsigned hardware_concurrency);

  explicit LockManager(Options options);
  LockManager() : LockManager(Options()) {}
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests \p mode on \p resource for \p txn.
  ///
  /// Re-entrant: if the transaction already holds the resource, the held
  /// mode is upgraded to sup(held, requested) — waiting for conflicting
  /// holders to drain if necessary.  Returns:
  ///  * OK         — granted,
  ///  * kConflict  — incompatible and `options.wait == false`,
  ///  * kDeadlock  — this request was chosen as deadlock victim,
  ///  * kTimeout   — deadline expired while waiting.
  ///
  /// \p locks, when given, must be \p txn's lock state (`Begin`), used
  /// from the transaction's own thread.  Covered re-acquisitions are then
  /// answered from its cache, and no grant takes a manager-global mutex.
  /// Without it the call resolves \p txn through `Begin` and uses no
  /// cache.
  Status Acquire(TxnId txn, ResourceId resource, LockMode mode,
                 const AcquireOptions& options = AcquireOptions(),
                 TxnLocks* locks = nullptr);

  /// Acquires a root-to-leaf chain in one call (§4.4.2 rule 5): every
  /// element of \p path except the last is locked in `IntentionFor(
  /// leaf_mode)`, the last in \p leaf_mode.  Resources are grouped by
  /// shard and each shard mutex is visited once; resources that cannot be
  /// granted immediately fall back to ordered blocking acquisition
  /// (root-to-leaf), preserving the protocol's waiting behavior.  On
  /// failure the *acquisitions this call made* are rolled back
  /// (leaf-to-root), so a failed path leaves no newly-taken intention
  /// locks behind; mode upgrades a conversion applied to a previously
  /// held lock are not undone (the count is re-paired, the stronger mode
  /// stays until the caller aborts — safe, merely conservative).
  Status AcquirePath(TxnId txn, std::span<const ResourceId> path,
                     LockMode leaf_mode,
                     const AcquireOptions& options = AcquireOptions(),
                     TxnLocks* locks = nullptr);

  /// Releases one acquisition of \p resource (locks are counted; the entry
  /// disappears when the count reaches zero).  The held *mode* is not
  /// recomputed on partial release; use `Downgrade` for de-escalation.
  /// With \p locks, a release pairing a cache-granted acquisition is
  /// absorbed locally.
  Status Release(TxnId txn, ResourceId resource, TxnLocks* locks = nullptr);

  /// Releases every lock of \p txn and ends its lock state (EOT; see
  /// txn_locks.h).  Returns the number released.  Shards are visited once
  /// each; the transaction's cache is invalidated first.
  size_t ReleaseAll(TxnId txn);

  /// Reduces the held mode of \p txn on \p resource to \p mode
  /// (de-escalation; mode must be weaker than or equal to the held mode).
  /// Waiters that the narrower mode no longer blocks are granted
  /// immediately.
  Status Downgrade(TxnId txn, ResourceId resource, LockMode mode,
                   TxnLocks* locks = nullptr);

  /// The lock state of \p txn, created on the first use of the id and
  /// shared by every later call until `ReleaseAll` ends it.
  std::shared_ptr<TxnLocks> Begin(TxnId txn);

  /// Mode currently held by \p txn on \p resource (kNL if none).
  LockMode HeldMode(TxnId txn, ResourceId resource) const;

  /// Effective *granted group* mode of \p resource: supremum over all
  /// holders (kNL if the resource is unlocked).
  LockMode GroupMode(ResourceId resource) const;

  /// All locks currently held by \p txn.
  std::vector<HeldLock> LocksOf(TxnId txn) const;

  /// Number of resources with at least one holder or waiter.
  size_t NumEntries() const;

  /// Number of transactions begun and not yet ended (inspection).
  size_t NumTxns() const;

  /// Number of shards after clamping/rounding (inspection).
  size_t NumShards() const { return shards_.size(); }

  /// All long locks currently held (for the `LongLockStore`).
  std::vector<LongLockRecord> SnapshotLongLocks() const;

  /// All locks currently held, regardless of duration (used by the
  /// protocol validator to audit global consistency of the grant set).
  std::vector<LongLockRecord> SnapshotAllLocks() const;

  /// Re-installs long locks after a crash.  All-or-nothing: the records
  /// are first validated against the locks currently held (conflicting
  /// short locks of adopted transactions, for example) and nothing is
  /// installed when any record conflicts.  Duplicate records for the same
  /// (txn, resource) merge to the supremum mode.  Intended to run during
  /// recovery quiescence (no concurrent acquires).
  Status RestoreLongLocks(const std::vector<LongLockRecord>& records);

  /// Number of requests currently blocked waiting for a lock.
  size_t NumBlockedWaiters() const {
    return blocked_waiters_.load(wm::acquire);
  }

  /// Crash/shutdown preparation: rejects requests that would have to wait
  /// from now on (they fail with kAborted), kills every blocked waiter,
  /// and returns once no request is blocked inside the manager.  After
  /// this the manager can be destroyed or abandoned without leaving a
  /// thread sleeping on a member condition variable.  The number of
  /// waiters killed is returned.
  size_t DrainForShutdown();

  LockStats& stats() { return stats_; }
  const LockStats& stats() const { return stats_; }

 private:
  enum class KillReason : uint8_t {
    kNone,
    kDeadlockVictim,
    kWounded,
    kShutdown,  ///< drained by DrainForShutdown (crash/restart)
  };

  /// Shared between the requesting thread and granters/killers.  `granted`
  /// is written and read only under the owning shard's mutex; `killed` is
  /// atomic because the waits-for graph flips it under its own lock.  Each
  /// waiter sleeps on its own condition variable (paired with the shard
  /// mutex), so grants and kills wake exactly one transaction instead of
  /// broadcasting to every waiter of the shard.
  struct WaiterState {
    TxnId txn = kInvalidTxn;
    LockMode wanted = LockMode::kNL;
    bool is_conversion = false;
    bool granted = false;
    LockDuration duration = LockDuration::kShort;
    wm::Atomic<KillReason> killed{KillReason::kNone};
    CondVar cv;
  };

  struct Holder {
    TxnId txn = kInvalidTxn;
    LockMode mode = LockMode::kNL;
    uint32_t count = 0;
    LockDuration duration = LockDuration::kShort;
  };

  /// Lock-table entry, embedded in a per-shard bucket chain.  Every field
  /// is guarded by the owning shard's mutex (expressed as REQUIRES(shard.mu)
  /// on the accessors — the analysis cannot tie a member to a mutex in a
  /// different object).
  struct Entry {
    ResourceId res;
    Entry* next = nullptr;
    std::vector<Holder> holders;
    std::vector<std::shared_ptr<WaiterState>> waiters;
  };

  static constexpr size_t kBucketsPerShard = 256;

  struct Shard {
    mutable Mutex mu;
    std::array<Entry*, kBucketsPerShard> buckets CODLOCK_GUARDED_BY(mu){};
    /// Unlinked nodes ready for reuse, most recently retired last.
    std::vector<Entry*> pool CODLOCK_GUARDED_BY(mu);
  };

  /// Per-shard cap on pooled entry nodes; a node retired into a full pool
  /// is freed (bounds idle memory).
  static constexpr size_t kEntryPoolSize = 32;

  /// Waits-for graph over currently blocked transactions.
  class WaitsForGraph {
   public:
    struct WaitRec {
      std::vector<TxnId> blockers;
      std::shared_ptr<WaiterState> waiter;
    };

    /// Registers/updates the blocked set of \p self and searches for a
    /// cycle through \p self.  If one is found, selects the youngest
    /// member as victim: if the victim is another waiting transaction its
    /// waiter is killed and its cv notified; the victim id is returned
    /// either way (kInvalidTxn if no cycle).
    TxnId UpdateAndCheck(TxnId self, std::vector<TxnId> blockers,
                         std::shared_ptr<WaiterState> waiter);

    /// Registers \p self as waiting without cycle detection (prevention
    /// policies still need the registry so wounds can find the waiter).
    void Register(TxnId self, std::shared_ptr<WaiterState> waiter);

    /// Kills the pending wait of \p txn (wound-wait preemption); no-op if
    /// it is not currently waiting.
    void Kill(TxnId txn, KillReason reason);

    void Remove(TxnId self);

   private:
    bool FindCycle(TxnId self, std::vector<TxnId>* cycle) const
        CODLOCK_REQUIRES(mu_);

    Mutex mu_;
    std::unordered_map<TxnId, WaitRec> waiting_ CODLOCK_GUARDED_BY(mu_);
  };

  size_t ShardIndexFor(ResourceId r) const {
    return ResourceIdHash{}(r) & shard_mask_;
  }

  size_t BucketIndexFor(ResourceId r) const {
    return (ResourceIdHash{}(r) >> shard_bits_) & (kBucketsPerShard - 1);
  }

  Shard& ShardFor(ResourceId r) const { return shards_[ShardIndexFor(r)]; }

  /// The linked entry for \p res, or null.
  Entry* FindEntry(const Shard& shard, const ResourceId& res) const
      CODLOCK_REQUIRES(shard.mu);

  /// Finds or creates the entry for \p res, reusing a pooled node when one
  /// is available.
  Entry& EntryFor(Shard& shard, const ResourceId& res)
      CODLOCK_REQUIRES(shard.mu);

  /// If \p entry is empty (no holders or waiters), unlinks it and returns
  /// its node to the shard's pool, or frees it when the pool is full.
  void MaybeRetireEntry(Shard& shard, Entry& entry)
      CODLOCK_REQUIRES(shard.mu);

  /// The holder of \p txn on \p entry, or null (shard mutex held).
  static Holder* FindHolder(Entry& entry, TxnId txn);

  /// \p txn's hold on \p entry; mode kNL when it holds nothing (shard mutex
  /// held).
  static HeldLock HoldOf(Entry& entry, TxnId txn);

  /// Attempts an immediate grant of \p mode (no waiting): re-entrant
  /// covered acquisition, in-place conversion or fresh grant when the
  /// queue is clear and all holders are compatible.  On success sets
  /// \p granted to the mode now held and \p record_held when the caller
  /// must append a held-list row (a new holder).
  bool TryGrantLocked(Shard& shard, Entry& entry, TxnId txn, LockMode mode,
                      const AcquireOptions& options, LockMode& granted,
                      bool& record_held) CODLOCK_REQUIRES(shard.mu);

  /// Body of `Acquire` once the shard is locked.  Sets \p record_held when
  /// the caller must append a held-list row after dropping the shard
  /// mutex, and \p granted to the mode held on success (for the cache).
  Status AcquireLocked(Shard& shard, const TxnLocks& t, ResourceId resource,
                       LockMode mode, const AcquireOptions& options,
                       bool& record_held, LockMode& granted)
      CODLOCK_REQUIRES(shard.mu);

  /// `Acquire` after a cache miss: the shard, the held list and — when
  /// \p cached — the cache bookkeeping.
  Status AcquireSlow(TxnLocks& t, bool cached, ResourceId resource,
                     LockMode mode, const AcquireOptions& options);

  /// Unwinds a failed wait: dequeues the waiter, deregisters it from the
  /// waits-for graph, promotes unblocked waiters and drops an empty entry.
  void CleanupFailedWait(Shard& shard, Entry& entry, TxnId txn,
                         const WaiterState* waiter, const Stopwatch& waited)
      CODLOCK_REQUIRES(shard.mu);

  /// Grant test for (txn, target mode) against all *other* holders.
  /// Counts compatibility tests in stats.
  bool CompatibleWithHolders(const Shard& shard, const Entry& entry, TxnId txn,
                             LockMode target) CODLOCK_REQUIRES(shard.mu);

  /// Blockers of (txn, target mode): other holders with incompatible
  /// modes, plus (for non-conversion requests) earlier
  /// queued waiters.
  std::vector<TxnId> BlockersOf(const Shard& shard, const Entry& entry,
                                TxnId txn, LockMode target,
                                const WaiterState* self) const
      CODLOCK_REQUIRES(shard.mu);

  /// Promotes grantable waiters at the front of the queue and wakes each
  /// one on its own condition variable.  Called with the shard mutex held
  /// whenever holders change.
  void GrantWaiters(Shard& shard, Entry& entry) CODLOCK_REQUIRES(shard.mu);

  void EraseWaiter(Shard& shard, Entry& entry, const WaiterState* w)
      CODLOCK_REQUIRES(shard.mu);

  // ---- Per-transaction lock state (see txn_locks.h) ----------------------

  /// The state a call records into: the handle \p t (put back under its id
  /// if a `ReleaseAll` ended it), or for a null \p t the map's entry for
  /// \p txn, pinned in \p by_id.  kAborted when \p txn was wounded.
  Status Resolve(TxnId txn, TxnLocks*& t, std::shared_ptr<TxnLocks>& by_id);

  /// Appends held-list rows for new holds; if a foreign `ReleaseAll` ended
  /// \p t after the call resolved it, the id is begun again first.
  void AddHeld(TxnLocks& t, std::span<const ResourceId> resources);

  /// Puts the ended \p t back under its id unless another object holds it
  /// by now (then returns false) and appends \p resources to the object
  /// the map holds.
  bool Rebegin(TxnLocks& t, std::span<const ResourceId> resources);

  /// The live lock state of \p txn, or null.
  std::shared_ptr<TxnLocks> Registered(TxnId txn) const;

  /// Marks \p txn wounded; its next acquire (and current waits) fail.
  void Wound(TxnId txn);

  Options options_;
  mutable std::vector<Shard> shards_;
  size_t shard_mask_ = 0;   ///< shards_.size() - 1 (power of two)
  int shard_bits_ = 0;      ///< log2(shards_.size())
  WaitsForGraph wfg_;
  LockStats stats_;

  /// Requests currently blocked in AcquireLocked (shedding + drain).
  wm::Atomic<size_t> blocked_waiters_{0};
  /// Set by DrainForShutdown: requests that would wait fail instead.
  wm::Atomic<bool> draining_{false};

  /// Live transactions' lock state, striped by id: beginning or ending a
  /// transaction, and a cross-transaction event on it (see txn_locks.h),
  /// locks only its id's stripe, so no transaction takes a manager-global
  /// mutex.  A stripe is held only inside `txns_.With`, after any shard
  /// mutex and never while taking one; the analysis cannot name a stripe,
  /// so no method here is annotated with it.
  StripedMap<TxnId, std::shared_ptr<TxnLocks>> txns_;
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_LOCK_MANAGER_H_
