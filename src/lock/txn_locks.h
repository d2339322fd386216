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
/// **Held list.**  One row per granule held: the resource, its mode,
/// whether it is long and, for a singleton granule, the mask of its lanes
/// that hold it.  The lock manager merges each grant that makes a holder
/// or changes its mode or duration into the row (`Record`), so a
/// granule's mode is decided once, when a grant, release or downgrade
/// changes it, and inspection (`LocksOf`, `HeldMode` of a singleton, the
/// snapshots, `ReleaseAll`'s count) reads rows.  A new holder on an
/// instance resource appends its row without searching.  The owner writes
/// the rows; other threads read them (`LocksOf`) or take them (a foreign
/// `ReleaseAll`) under a mutex per object — no two transactions share one.
/// Lock order: shard mutex, the id's registry stripe, this one.
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
///
/// **Lanes.**  A singleton granule's slot is keyed by the transaction's
/// own lane (lock_manager.h), the one lane every hold of it includes; the
/// manager notes there the modes requested of the granule, not the lane's
/// mode, so the slot never claims an S or X that some lane lacks.  Its
/// row names the granule, never a lane.  A lane grant sets the lane's bit
/// and raises the row to the grant's intention part; a successful S, SIX
/// or X raises it to that mode, so an S/X still waiting at a later lane
/// shows as its intention mode.  The row goes with its last lane.

#ifndef CODLOCK_LOCK_TXN_LOCKS_H_
#define CODLOCK_LOCK_TXN_LOCKS_H_

#include <algorithm>
#include <bit>
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
    const Slot* s = Find(Key(r));
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
    Slot* s = Find(Key(r));
    if (s == nullptr || !Covers(s->mode, mode)) return false;
    if (want_long && s->duration == 0) return false;
    ++s->pending;
    return true;
  }

  /// Records a slow-path grant of \p mode on \p r.
  void Note(const ResourceId& r, LockMode mode, bool is_long) {
    AssertOwner();
    Fresh();  // start a fresh array if an invalidation raced the grant
    Slot* s = FindOrCreate(Key(r));
    if (s == nullptr) return;  // full: stay uncached
    s->mode = Supremum(s->mode, mode);
    if (is_long) s->duration = 1;
  }

  /// Consumes one cache grant of \p r if any is pending; the caller skips
  /// the shard entirely when this returns true.
  bool ConsumeRelease(const ResourceId& r) {
    AssertOwner();
    if (!Fresh()) return false;
    Slot* s = Find(Key(r));
    if (s == nullptr || s->pending == 0) return false;
    --s->pending;
    return true;
  }

  /// Drops the cached mode of \p r (owner-thread release/downgrade).  A
  /// slot whose cache grants are not all released yet keeps them, without
  /// a mode, so the releases that pair with them are still absorbed here.
  void Erase(const ResourceId& r) {
    AssertOwner();
    if (!Fresh()) return;
    Slot* s = Find(Key(r));
    if (s == nullptr) return;
    if (s->pending != 0) {
      s->mode = LockMode::kNL;
      s->duration = 0;
      return;
    }
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

  /// The slot key of \p r: a singleton granule's is this transaction's
  /// lane of it.
  ResourceId Key(const ResourceId& r) const {
    return r.singleton() ? r.Lane(LaneOf(id_)) : r;
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

  /// One granule held: an instance resource, or a singleton granule with
  /// the mask of its lanes that hold it.
  struct Row {
    ResourceId res;  ///< never a lane
    LockMode mode = LockMode::kNL;
    bool is_long = false;
    uint8_t lanes = 0;  ///< singleton: bit k while lane k holds it

    /// Runs \p fn on each lock-table entry of the hold: the instance
    /// resource, or the lanes in the mask.
    template <typename Fn>
    void ForEachEntry(Fn&& fn) const {
      if (!res.singleton()) return fn(res);
      for (unsigned m = lanes; m != 0; m &= m - 1) {
        fn(res.Lane(static_cast<uint64_t>(std::countr_zero(m))));
      }
    }
  };
  static_assert(kLanes <= 8, "Row::lanes has a bit per lane");

  /// What one grant did to the requester's holder on one lock-table entry
  /// (an instance resource or a lane).  Plain, so `AcquirePath`'s batch
  /// arrays are not zeroed on every call.
  struct Grant {
    uint32_t node;
    uint64_t instance;
    LockMode mode;    ///< the holder's mode now
    LockMode before;  ///< its mode before the grant (kNL: a new holder)
    bool is_long;     ///< the holder is long now
    bool was_long;    ///< it was long before the grant

    ResourceId res() const { return {node, instance}; }
    /// The grant made a holder or changed its mode or duration.
    bool changed() const { return mode != before || is_long != was_long; }
  };

  /// Merges \p grants into the rows; returns false (merging nothing) when
  /// the transaction has ended, unless \p revive marks it live again (the
  /// caller holds the id's registry stripe and has put it back under its
  /// id).
  bool Record(std::span<const Grant> grants, bool revive = false)
      CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (!revive && ended_.load(wm::relaxed)) return false;
    if (revive) ended_.store(false, wm::release);
    if (held_.size() + grants.size() > held_.capacity()) {
      held_.reserve(std::max(2 * held_.capacity(),
                             held_.size() + grants.size()));
    }
    for (const Grant& g : grants) {
      const ResourceId r = g.res();
      const bool lane = r.is_lane();
      const ResourceId key = lane ? ResourceId{r.node, 0} : r;
      // A new holder of an instance resource has no row yet.
      Row* row = lane || g.before != LockMode::kNL ? FindRow(key) : nullptr;
      if (row == nullptr) row = &held_.emplace_back(Row{key});
      row->mode = Supremum(row->mode, lane ? IntentionFor(g.mode) : g.mode);
      row->is_long = row->is_long || g.is_long;
      if (lane) row->lanes |= static_cast<uint8_t>(1u << r.lane());
    }
    return true;
  }

  /// Runs \p fn on the row of \p r, if there is one.
  template <typename Fn>
  void EditRow(const ResourceId& r, Fn&& fn) CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (Row* row = FindRow(r)) fn(*row);
  }

  /// The row of \p r; mode kNL and no lanes when there is none.
  Row RowOf(const ResourceId& r) const CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    for (const Row& row : held_) {
      if (row.res == r) return row;
    }
    return Row{r};
  }

  /// The hold on \p r (an instance resource or a lane) is gone: drops its
  /// row, or the lane's bit and the row with its last lane.
  void Forget(const ResourceId& r) CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    Row* row = FindRow(r.is_lane() ? ResourceId{r.node, 0} : r);
    if (row == nullptr) return;
    if (r.is_lane()) row->lanes &= static_cast<uint8_t>(~(1u << r.lane()));
    if (row->lanes != 0) return;
    *row = held_.back();
    held_.pop_back();
  }

  /// Runs \p fn on every row, under the mutex.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    for (const Row& row : held_) fn(row);
  }

  /// Ends the transaction: invalidates the cache, drops the wound flag and
  /// hands over the rows.  The caller holds the id's registry stripe.
  std::vector<Row> End() CODLOCK_EXCLUDES(mu_) {
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

  Row* FindRow(const ResourceId& r) CODLOCK_REQUIRES(mu_) {
    for (Row& row : held_) {
      if (row.res == r) return &row;
    }
    return nullptr;
  }

  const TxnId id_;

  OwnerThreadCap owner_;
  std::vector<Slot> slots_ CODLOCK_GUARDED_BY(owner_);
  wm::Atomic<uint64_t> epoch_{0};
  uint64_t seen_epoch_ CODLOCK_GUARDED_BY(owner_) = 0;

  wm::Atomic<bool> wounded_{false};

  mutable Mutex mu_;
  std::vector<Row> held_ CODLOCK_GUARDED_BY(mu_);
  /// Written under `mu_` (and the id's registry stripe); read lock-free by
  /// the owner at the start of a call.
  wm::Atomic<bool> ended_{false};
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_TXN_LOCKS_H_
