/// \file txn_locks.h
/// \brief One transaction's lock state: its held rows and its wound flag.
///
/// Paper §4.1 has the lock manager "administrate held locks per
/// transaction"; a `TxnLocks` is that administration, the single owner of
/// each of these facts.  `LockManager` keeps an id → `TxnLocks` map split
/// into id-keyed stripes (util/striped_map.h) and locks only the id's
/// stripe, and only to begin a transaction, to end one (`ReleaseAll`) and
/// for cross-transaction events: a wound, a call by id, and `LocksOf`.  No
/// call takes a manager-global mutex for this state; a caller passing its
/// `TxnLocks*` takes no stripe per grant either.  A call by id resolves
/// the id through its stripe and then takes exactly the path a call
/// through the handle takes.
///
/// **Lifetime.**  `LockManager::Begin` creates the object on the first use
/// of an id and returns it afterwards, so an id-keyed `RestoreLongLocks`
/// and a later `TxnManager::Adopt` share it.  `ReleaseAll` ends it: the
/// map drops it, its rows are released and its wound flag dies.  An
/// acquire through an ended handle puts it back under its id, or fails
/// with kAborted when another object was begun under that id meanwhile —
/// no grant is recorded where `ReleaseAll` is blind.
///
/// **Held rows.**  One row per granule held: the resource, its mode,
/// whether it is long, for a singleton granule the mask of its lanes that
/// hold it, and the hits it answered that are not released yet.  The lock
/// manager merges each grant that makes a holder or changes its mode or
/// duration into the row (`Record`), so a granule's mode is decided once,
/// when a grant, release or downgrade changes it, and inspection
/// (`LocksOf`, `HeldMode` of a singleton, the snapshots, `ReleaseAll`'s
/// count) reads rows.  A new holder on an instance resource appends its
/// row without searching.  Every access takes this object's mutex — no two
/// transactions share one.  Lock order: shard mutex, the id's registry
/// stripe, this one.
///
/// **Hits.**  Propagation re-acquires the same intention locks over and
/// over.  A request its row covers — the row's mode covers the mode, and a
/// long request finds a long row — is a *hit*: the row counts it in
/// `pending` and no shard is touched.  Only the first `kHitRows` rows
/// answer hits: a miss is always safe (the table re-grants a covered
/// mode), and the bound keeps a request's scan short in a transaction
/// that holds hundreds of rows (tuple locking, a System R parent scan).
/// A `Release` consumes a pending hit before it reaches the table, so the
/// table's counts pair with the requests that reached it.  Release,
/// downgrade and `ReleaseAll` change the rows where they change the table,
/// so a row never claims more than the table holds and nothing is ever
/// invalidated.  An ended transaction never hits, and a wounded one is
/// refused before it looks (`Resolve`).
///
/// **Lanes.**  A singleton granule's row names the granule, never a lane.
/// A lane grant sets the lane's bit and raises the row to the grant's
/// intention part; a successful S, SIX or X raises it to that mode, so an
/// S/X still waiting at a later lane shows, and hits, as its intention
/// mode.  The row goes with its last lane.

#ifndef CODLOCK_LOCK_TXN_LOCKS_H_
#define CODLOCK_LOCK_TXN_LOCKS_H_

#include <algorithm>
#include <atomic>
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

namespace codlock::lock {

/// \brief Per-transaction lock state.  See the file comment for the
/// threading contract.  Created only by `LockManager`.
class TxnLocks : public std::enable_shared_from_this<TxnLocks> {
 public:
  /// One granule held: an instance resource, or a singleton granule with
  /// the mask of its lanes that hold it.
  struct Row {
    ResourceId res;  ///< never a lane
    LockMode mode = LockMode::kNL;
    bool is_long = false;
    uint8_t lanes = 0;     ///< singleton: bit k while lane k holds it
    uint32_t pending = 0;  ///< hits not yet released

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

  TxnLocks(const TxnLocks&) = delete;
  TxnLocks& operator=(const TxnLocks&) = delete;

  TxnId id() const { return id_; }

  /// Only this many rows, the first ones, answer hits.
  static constexpr size_t kHitRows = 64;

  /// The mode of the row of \p r (kNL when there is none).
  LockMode RowMode(const ResourceId& r) const { return RowOf(r).mode; }

  /// Runs \p fn on every row, under the mutex.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    for (const Row& row : held_) fn(row);
  }

 private:
  friend class LockManager;

  explicit TxnLocks(TxnId id) : id_(id) {}

  // ---- Hits --------------------------------------------------------------

  /// Counts a hit in the row of each element of \p path (at most 64) that
  /// covers its request — the last element in \p leaf_mode, the others in
  /// \p prefix_mode, all with duration \p want_long — under one lock;
  /// returns the mask of the elements that hit.
  uint64_t TryHits(std::span<const ResourceId> path, LockMode prefix_mode,
                   LockMode leaf_mode, bool want_long) CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (ended_.load(std::memory_order_relaxed)) return 0;
    const size_t rows = std::min(held_.size(), kHitRows);
    uint64_t hits = 0;
    for (size_t i = 0; i < path.size(); ++i) {
      const LockMode mode = i + 1 == path.size() ? leaf_mode : prefix_mode;
      for (size_t k = 0; k < rows; ++k) {
        Row& row = held_[k];
        if (row.res != path[i]) continue;
        if (Covers(row.mode, mode) && (!want_long || row.is_long)) {
          ++row.pending;
          hits |= uint64_t{1} << i;
        }
        break;
      }
    }
    return hits;
  }

  /// Consumes one pending hit of \p r and returns true; when there is
  /// none, sets \p row to the row of \p r (mode kNL and no lanes when
  /// there is none) and returns false.
  bool ConsumeRelease(const ResourceId& r, Row& row) CODLOCK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    Row* mine = FindRow(r);
    if (mine != nullptr && mine->pending != 0) {
      --mine->pending;
      return true;
    }
    row = mine != nullptr ? *mine : Row{r};
    return false;
  }

  // ---- Rows and lifecycle ------------------------------------------------

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
    if (!revive && ended_.load(std::memory_order_relaxed)) return false;
    if (revive) ended_.store(false, std::memory_order_release);
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

  /// Ends the transaction: drops the wound flag and hands over the rows.
  /// The caller holds the id's registry stripe.
  std::vector<Row> End() CODLOCK_EXCLUDES(mu_) {
    wounded_.store(false, std::memory_order_release);
    MutexLock lk(mu_);
    ended_.store(true, std::memory_order_release);
    // Mutation point (kill-suite only): the rows stay behind, claiming
    // holds that ReleaseAll is about to free; the held-row oracle must see
    // them.
    if (mutation::Enabled(mutation::Mutant::kKeepRowsAtEnd)) return held_;
    return std::exchange(held_, {});
  }

  bool ended() const { return ended_.load(std::memory_order_acquire); }

  /// Marks the transaction wounded: its next acquisition fails before it
  /// looks at a row.
  void SetWounded() { wounded_.store(true, std::memory_order_release); }

  bool wounded() const { return wounded_.load(std::memory_order_acquire); }

  Row* FindRow(const ResourceId& r) CODLOCK_REQUIRES(mu_) {
    for (Row& row : held_) {
      if (row.res == r) return &row;
    }
    return nullptr;
  }

  const TxnId id_;

  std::atomic<bool> wounded_{false};

  mutable Mutex mu_;
  std::vector<Row> held_ CODLOCK_GUARDED_BY(mu_);
  /// Written under `mu_` (and the id's registry stripe); read under it by
  /// a hit and lock-free at the start of a call.
  std::atomic<bool> ended_{false};
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_TXN_LOCKS_H_
