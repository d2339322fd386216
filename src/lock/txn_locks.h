/// \file txn_locks.h
/// \brief One transaction's lock state: its held resources, its
/// owner-thread mode cache and its wound flag.
///
/// Paper §4.1 has the lock manager "administrate held locks per
/// transaction"; a `TxnLocks` is that administration, the single owner of
/// each of these facts.  `LockManager` keeps an id → `TxnLocks` map split
/// into id-keyed stripes (util/striped_map.h) and locks only the id's
/// stripe, and only to begin a transaction, to end one (`ReleaseAll`) and
/// for cross-transaction events: a wound, a release or downgrade by id,
/// and `LocksOf`.  No call takes a manager-global mutex for this state; a
/// caller passing its `TxnLocks*` takes no stripe per grant either.  An
/// id-keyed call resolves the id through its stripe and never touches the
/// cache.
///
/// **Lifetime.**  `LockManager::Begin` creates the object on the first use
/// of an id and returns it afterwards, so an id-keyed `RestoreLongLocks`
/// and a later `TxnManager::Adopt` share it.  `ReleaseAll` ends it: the
/// map drops it, its held list is released, its wound flag dies and its
/// cache is invalidated.  An acquire through an ended handle puts it back
/// under its id, or fails with kAborted when another object was begun
/// under that id meanwhile — no grant is recorded where `ReleaseAll` is
/// blind.
///
/// **Held list.**  One row per hold (the transaction's holder row on one
/// lock-table entry), added when it appears and removed when it goes, so a
/// grant appends without searching.  The owner writes it; other threads read it (`LocksOf`) or
/// take it (a foreign `ReleaseAll`) under a mutex per object — no two
/// transactions share one.  Lock order: shard mutex, the id's registry
/// stripe, this one.
///
/// **Mode cache: ownership and threading.**  Propagation re-acquires the
/// same intention locks over and over; the cache remembers (resource →
/// granted mode) so a covered re-acquisition touches no shard.  Its slots
/// are read and written **only by the transaction's own thread**.  Other
/// threads *invalidate* it through one atomic epoch: every cross-thread
/// event that can shrink the held set (`Wound`, a `Release` or `Downgrade`
/// by id, `ReleaseAll`) bumps it, and the owner discards all slots on its
/// next lookup.  Clang Thread Safety Analysis cannot express "single owner
/// thread", so `slots_`/`seen_epoch_` are `GUARDED_BY(owner_)`, an
/// annotation-only capability every owner-thread method asserts (zero
/// cost); `Invalidate` only touches the atomic.  Coherence rules:
///  1. A slot is written only after the slow path *granted* that mode.
///  2. A lookup answers only requests *covered* by the cached mode.
///  3. An event that can weaken or drop a hold invalidates: the owner
///     erases the slot, every other path bumps the epoch.
///  4. Cache grants are counted locally (`pending`); a matching `Release`
///     consumes one first, so shard-side counts pair with slow-path grants.
///  5. A wound invalidates the whole cache, so a wounded transaction's next
///     acquisition reaches the slow path and fails with kAborted.

#ifndef CODLOCK_LOCK_TXN_LOCKS_H_
#define CODLOCK_LOCK_TXN_LOCKS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "lock/mode.h"
#include "lock/resource.h"
#include "util/mutation_points.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/wm_atomic.h"

namespace codlock::lock {

/// \brief Annotation-only capability standing in for "the owning thread is
/// the caller".  Never actually locked; owner-thread methods assert it so
/// the analysis can police access to owner-only state.
class CODLOCK_CAPABILITY("owner-thread") OwnerThreadCap {};

/// \brief Per-transaction lock state.  See the file comment for the
/// threading contract.  Created only by `LockManager`.
///
/// The cache is a flat array scanned linearly: transactions hold few locks
/// (a root-to-leaf path is ~4–13 resources) and a bounded scan over
/// contiguous slots beats hashing.  The array is capped at `kMaxCached`;
/// once full, further grants simply are not cached — a miss is always
/// safe (rule 2) and the cap bounds the scan cost of misses.
class TxnLocks : public std::enable_shared_from_this<TxnLocks> {
 public:
  /// Most slots the cache will hold; beyond this, new grants go uncached.
  static constexpr size_t kMaxCached = 64;

  /// Cached slot for one resource.
  struct Slot {
    ResourceId res;
    LockMode mode = LockMode::kNL;
    uint8_t duration = 0;  ///< 1 when the shard-side holder is long.
    uint32_t pending = 0;  ///< cache grants not yet released
  };

  TxnLocks(const TxnLocks&) = delete;
  TxnLocks& operator=(const TxnLocks&) = delete;

  TxnId id() const { return id_; }

  /// Mode this transaction is known to hold on \p r (kNL on miss or after
  /// an invalidation).  Owner thread only.
  LockMode CachedMode(const ResourceId& r) {
    AssertOwner();
    if (!Fresh()) return LockMode::kNL;
    const Slot* s = Find(r);
    return s == nullptr ? LockMode::kNL : s->mode;
  }

  /// The slots a cache lookup would currently trust: empty if a pending
  /// invalidation would discard the array first, the live array
  /// otherwise.  This is the cache-coherence oracle's view — every
  /// returned slot must be covered by the shard table's ground truth.
  ///
  /// Caller contract: the owning transaction's thread must be quiescent
  /// (the model checker audits only when every scheduled thread is parked
  /// or at an operation boundary), making this effectively an owner-thread
  /// read even when issued from the controller.
  std::vector<Slot> AuditSnapshot() const CODLOCK_NO_THREAD_SAFETY_ANALYSIS {
    if (epoch_.load(wm::acquire) != seen_epoch_) return {};
    return slots_;
  }

 private:
  friend class LockManager;

  explicit TxnLocks(TxnId id) : id_(id) {}

  // ---- Mode cache (owner thread) -----------------------------------------

  /// True when the cached slot can absorb a request for \p mode with
  /// duration \p want_long: the cached mode covers it and a long request
  /// never piggybacks on a short-duration holder (the slow path must
  /// upgrade the holder's duration for crash survival).  On success the
  /// grant is counted locally.
  bool TryHit(const ResourceId& r, LockMode mode, bool want_long) {
    AssertOwner();
    if (!Fresh()) return false;
    Slot* s = Find(r);
    if (s == nullptr || !Covers(s->mode, mode)) return false;
    if (want_long && s->duration == 0) return false;
    ++s->pending;
    return true;
  }

  /// Records a slow-path grant of \p mode on \p r.
  void Note(const ResourceId& r, LockMode mode, bool is_long) {
    AssertOwner();
    Fresh();  // start a fresh array if an invalidation raced the grant
    Slot* s = FindOrCreate(r);
    if (s == nullptr) return;  // full: stay uncached
    s->mode = Supremum(s->mode, mode);
    if (is_long) s->duration = 1;
  }

  /// Consumes one cache grant of \p r if any is pending; the caller skips
  /// the shard entirely when this returns true.
  bool ConsumeRelease(const ResourceId& r) {
    AssertOwner();
    if (!Fresh()) return false;
    Slot* s = Find(r);
    if (s == nullptr || s->pending == 0) return false;
    --s->pending;
    return true;
  }

  /// Drops the slot for \p r (owner-thread release/downgrade).
  void Erase(const ResourceId& r) {
    AssertOwner();
    if (!Fresh()) return;
    Slot* s = Find(r);
    if (s == nullptr) return;
    *s = slots_.back();
    slots_.pop_back();
  }

  /// Cross-thread invalidation: the owner discards the array on its next
  /// access.  Safe from any thread.
  void Invalidate() {
    // Mutation point (kill-suite only): drop the epoch bump.  Stale cached
    // modes then outlive the shard-side hold (e.g. after ReleaseAll at EOT)
    // and the cache-coherence oracle must see the divergence.
    if (mutation::Enabled(mutation::Mutant::kDropCacheInvalidation)) return;
    epoch_.fetch_add(1, wm::release);
  }

  /// Zero-cost capability assertion: calling any owner-thread method *is*
  /// the claim of being the owner; the analysis takes it from here.
  void AssertOwner() CODLOCK_ASSERT_CAPABILITY(owner_) {}

  /// Discards the array if an invalidation happened since the last access.
  /// Returns true when the contents are trustworthy.
  bool Fresh() CODLOCK_REQUIRES(owner_) {
    uint64_t e = epoch_.load(wm::acquire);
    if (e == seen_epoch_) return true;
    slots_.clear();
    seen_epoch_ = e;
    return false;
  }

  Slot* Find(const ResourceId& r) CODLOCK_REQUIRES(owner_) {
    for (Slot& s : slots_) {
      if (s.res == r) return &s;
    }
    return nullptr;
  }

  /// Find, creating an empty slot when absent; nullptr when full.
  Slot* FindOrCreate(const ResourceId& r) CODLOCK_REQUIRES(owner_) {
    Slot* s = Find(r);
    if (s != nullptr) return s;
    if (slots_.size() >= kMaxCached) return nullptr;
    slots_.push_back(Slot{r, LockMode::kNL, 0, 0});
    return &slots_.back();
  }

  // ---- Held list and lifecycle (any thread) ------------------------------

  /// Appends one row per resource; returns false (appending nothing) when
  /// the transaction has ended, unless \p revive marks it live again (the
  /// caller holds the id's registry stripe and has put it back under its
  /// id).
  bool Record(std::span<const ResourceId> resources, bool revive = false)
      CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (!revive && ended_.load(wm::relaxed)) return false;
    if (revive) ended_.store(false, wm::release);
    held_.insert(held_.end(), resources.begin(), resources.end());
    return true;
  }

  /// Removes the row of \p r (the hold is gone).
  void Forget(const ResourceId& r) CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    auto it = std::find(held_.begin(), held_.end(), r);
    if (it == held_.end()) return;
    *it = held_.back();
    held_.pop_back();
  }

  /// Copy of the held list.
  std::vector<ResourceId> Held() const CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return held_;
  }

  /// Ends the transaction: invalidates the cache, drops the wound flag and
  /// hands over the held list.  The caller holds the id's registry stripe.
  std::vector<ResourceId> End() CODLOCK_EXCLUDES(mu_) {
    Invalidate();
    wounded_.store(false, wm::release);
    MutexLock lk(mu_);
    ended_.store(true, wm::release);
    return std::exchange(held_, {});
  }

  bool ended() const { return ended_.load(wm::acquire); }

  /// Marks the transaction wounded and drops its cache, so its next
  /// acquisition reaches the slow path and fails there (rule 5).
  void SetWounded() {
    wounded_.store(true, wm::release);
    Invalidate();
  }

  bool wounded() const { return wounded_.load(wm::acquire); }

  const TxnId id_;

  OwnerThreadCap owner_;
  std::vector<Slot> slots_ CODLOCK_GUARDED_BY(owner_);
  wm::Atomic<uint64_t> epoch_{0};
  uint64_t seen_epoch_ CODLOCK_GUARDED_BY(owner_) = 0;

  wm::Atomic<bool> wounded_{false};

  mutable Mutex mu_;
  std::vector<ResourceId> held_ CODLOCK_GUARDED_BY(mu_);
  /// Written under `mu_` (and the id's registry stripe); read lock-free by
  /// the owner at the start of a call.
  wm::Atomic<bool> ended_{false};
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_TXN_LOCKS_H_
