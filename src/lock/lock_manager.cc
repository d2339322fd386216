#include "lock/lock_manager.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>
#include <tuple>
#include <utility>

#include "fault/fault_injector.h"
#include "util/mutation_points.h"

namespace codlock::lock {

namespace {

// Fault points (fault/fault_injector.h).  `lock/waiter-alloc` models an
// allocation failure creating the waiter state; `lock/wait` forces a
// blocked request to time out; `lock/acquire-path` fails AcquirePath
// mid-path (arm with Trigger::Nth to pick the position) to exercise the
// partial-acquisition rollback.
fault::FaultPoint g_fault_waiter_alloc{"lock/waiter-alloc",
                                       fault::FaultKind::kAllocFail};
fault::FaultPoint g_fault_wait{"lock/wait", fault::FaultKind::kForcedTimeout};
fault::FaultPoint g_fault_acquire_path{"lock/acquire-path",
                                       fault::FaultKind::kError};

/// Bumps the held-locks gauge by \p n and its high-water mark (atomics
/// only).  Batched callers pay one RMW for a whole path.
void NoteHoldersAdded(LockStats& stats, int64_t n) {
  int64_t held = stats.held_locks.fetch_add(n, std::memory_order_relaxed) + n;
  int64_t prev = stats.max_held_locks.load(std::memory_order_relaxed);
  while (prev < held && !stats.max_held_locks.compare_exchange_weak(
                            prev, held, std::memory_order_relaxed)) {
  }
}

void NoteHolderAdded(LockStats& stats) { NoteHoldersAdded(stats, 1); }

}  // namespace

std::string_view DeadlockPolicyName(DeadlockPolicy policy) {
  switch (policy) {
    case DeadlockPolicy::kDetect:
      return "detect";
    case DeadlockPolicy::kWoundWait:
      return "wound-wait";
    case DeadlockPolicy::kWaitDie:
      return "wait-die";
    case DeadlockPolicy::kTimeoutOnly:
      return "timeout-only";
  }
  return "?";
}

size_t LockManager::DerivedNumShards(unsigned hardware_concurrency) {
  if (hardware_concurrency == 0) return 16;  // unknown: historical default
  const size_t want =
      std::bit_ceil(size_t{4} * static_cast<size_t>(hardware_concurrency));
  return std::clamp(want, size_t{16}, size_t{1024});
}

LockManager::LockManager(Options options)
    : options_(options),
      shards_((options.num_shards > 0
                   ? std::bit_ceil(static_cast<size_t>(options.num_shards))
                   : DerivedNumShards(std::thread::hardware_concurrency())) +
              kLanes),
      shard_mask_(shards_.size() - kLanes - 1),
      shard_bits_(std::countr_zero(shard_mask_ + 1)) {}

LockManager::~LockManager() {
  // Standard lifetime contract: no concurrent users at destruction.  Take
  // each shard mutex anyway so the analysis is satisfied.
  for (Shard& shard : shards_) {
    MutexLock lk(shard.mu);
    for (Entry*& head : shard.buckets) {
      while (head != nullptr) delete std::exchange(head, head->next);
    }
    for (Entry* e : shard.pool) delete e;
    shard.pool.clear();
  }
}

// ---- Per-transaction lock state -----------------------------------------

std::shared_ptr<TxnLocks> LockManager::Begin(TxnId txn) {
  return txns_.With(txn, [txn](auto& map) {
    std::shared_ptr<TxnLocks>& t = map[txn];
    if (t == nullptr) t.reset(new TxnLocks(txn));
    return t;
  });
}

std::shared_ptr<TxnLocks> LockManager::Registered(TxnId txn) const {
  return txns_.With(txn, [txn](const auto& map) {
    auto it = map.find(txn);
    return it == map.end() ? nullptr : it->second;
  });
}

Status LockManager::Resolve(TxnId txn, TxnLocks*& t,
                            std::shared_ptr<TxnLocks>& by_id) {
  if (t == nullptr) {
    by_id = Begin(txn);
    t = by_id.get();
  } else if (t->ended() && !Rebegin(*t, {})) {
    return Status::Aborted("transaction " + std::to_string(txn) +
                           " ended and its id was begun again elsewhere");
  }
  if (options_.deadlock_policy == DeadlockPolicy::kWoundWait &&
      t->wounded()) {
    return Status::Aborted("transaction " + std::to_string(txn) +
                           " was wounded by an older transaction");
  }
  return Status::OK();
}

void LockManager::RecordGrants(TxnLocks& t, std::span<const Grant> grants) {
  if (grants.empty() || t.Record(grants)) return;
  // A foreign ReleaseAll ended the transaction after this call resolved
  // it; the grant landed anyway and must stay visible to a ReleaseAll.
  Rebegin(t, grants);
}

bool LockManager::Rebegin(TxnLocks& t, std::span<const Grant> grants) {
  return txns_.With(t.id(), [&t, grants](auto& map) {
    std::shared_ptr<TxnLocks>& live = map[t.id()];
    if (live == nullptr) live = t.shared_from_this();
    live->Record(grants, /*revive=*/true);
    return live.get() == &t;
  });
}

void LockManager::Wound(TxnId txn) {
  // Under the id's stripe, so the flag cannot land on a transaction that
  // ReleaseAll is ending (the flag dies with its TxnLocks).
  txns_.With(txn, [txn](auto& map) {
    auto it = map.find(txn);
    if (it != map.end()) it->second->SetWounded();
  });
  wfg_.Kill(txn, KillReason::kWounded);
}

// ---- Entry index (bucket chains + pooled nodes) --------------------------

LockManager::Entry* LockManager::FindEntry(const Shard& shard,
                                           const ResourceId& res) const {
  for (Entry* e = shard.buckets[BucketIndexFor(res)]; e != nullptr;
       e = e->next) {
    if (e->res == res) return e;
  }
  return nullptr;
}

LockManager::Entry& LockManager::EntryFor(Shard& shard, const ResourceId& res) {
  if (Entry* e = FindEntry(shard, res)) return *e;
  Entry* e;
  if (!shard.pool.empty()) {
    e = shard.pool.back();
    shard.pool.pop_back();
  } else {
    e = new Entry();
  }
  e->res = res;
  Entry*& head = shard.buckets[BucketIndexFor(res)];
  e->next = head;
  head = e;
  return *e;
}

void LockManager::MaybeRetireEntry(Shard& shard, Entry& entry) {
  if (!entry.holders.empty() || !entry.waiters.empty()) return;
  Entry** link = &shard.buckets[BucketIndexFor(entry.res)];
  while (*link != &entry) {
    if (*link == nullptr) return;  // not linked — nothing to do (defensive)
    link = &(*link)->next;
  }
  *link = entry.next;
  // The node keeps its empty vectors' capacity for its next use.
  if (shard.pool.size() < kEntryPoolSize) {
    shard.pool.push_back(&entry);
  } else {
    delete &entry;
  }
}

// ---- Grant machinery -----------------------------------------------------

bool LockManager::CompatibleWithHolders(const Shard& shard, const Entry& entry,
                                        TxnId txn, LockMode target) {
  (void)shard;  // capability-only parameter
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) continue;
    stats_.compat_tests.Add();
    if (!Compatible(target, h.mode)) {
      stats_.conflicts.Add();
      return false;
    }
  }
  return true;
}

std::vector<TxnId> LockManager::BlockersOf(const Shard& shard,
                                           const Entry& entry, TxnId txn,
                                           LockMode target,
                                           const WaiterState* self) const {
  (void)shard;  // capability-only parameter
  std::vector<TxnId> blockers;
  auto add = [&blockers, txn](TxnId t) {
    if (t == txn) return;
    if (std::find(blockers.begin(), blockers.end(), t) == blockers.end()) {
      blockers.push_back(t);
    }
  };
  for (const Holder& h : entry.holders) {
    if (h.txn != txn && !Compatible(target, h.mode)) add(h.txn);
  }
  if (self == nullptr || !self->is_conversion) {
    // FIFO: a regular request is also gated by every earlier queued waiter.
    for (const auto& w : entry.waiters) {
      if (w.get() == self) break;
      if (!w->granted &&
          w->killed.load(std::memory_order_relaxed) == KillReason::kNone) {
        add(w->txn);
      }
    }
  }
  return blockers;
}

void LockManager::GrantWaiters(Shard& shard, Entry& entry) {
  for (auto it = entry.waiters.begin(); it != entry.waiters.end();) {
    const std::shared_ptr<WaiterState>& w = *it;
    if (w->killed.load(std::memory_order_relaxed) != KillReason::kNone) {
      // The victim cleans up its own queue entry; skip it here.
      ++it;
      continue;
    }
    if (!CompatibleWithHolders(shard, entry, w->txn, w->wanted)) {
      // Strict FIFO: nobody behind a blocked waiter is granted.
      break;
    }
    if (Holder* mine = FindHolder(entry, w->txn)) {
      mine->mode = Supremum(mine->mode, w->wanted);
      mine->count++;
      if (w->duration == LockDuration::kLong) {
        mine->duration = LockDuration::kLong;
      }
    } else {
      entry.holders.push_back(Holder{w->txn, w->wanted, 1, w->duration});
      NoteHolderAdded(stats_);
    }
    w->granted = true;
    // Leave the waits-for graph now, not when the waiter wakes: until then
    // its stale edges would let FindCycle report a phantom cycle through
    // it, kill it (a no-op once granted) and never see a real cycle.
    wfg_.Remove(w->txn);
    // Mutation point (kill-suite only): lose the wakeup — the waiter is
    // promoted to holder but never notified.  The schedule wedges and the
    // termination oracle must flag the stuck state.
    if (!mutation::Enabled(mutation::Mutant::kSkipWaiterWakeup)) {
      // Per-waiter wakeup: only the transaction this grant unblocked runs.
      w->cv.NotifyOne();
    }
    it = entry.waiters.erase(it);
  }
}

void LockManager::EraseWaiter(Shard& shard, Entry& entry,
                              const WaiterState* w) {
  (void)shard;  // carries the REQUIRES(shard.mu) annotation
  for (auto it = entry.waiters.begin(); it != entry.waiters.end(); ++it) {
    if (it->get() == w) {
      entry.waiters.erase(it);
      return;
    }
  }
}

// ---- Acquire -------------------------------------------------------------

Status LockManager::Acquire(TxnId txn, ResourceId resource, LockMode mode,
                            const AcquireOptions& options, TxnLocks* locks) {
  // A singleton granule is split into lanes; the batched path expands it.
  if (resource.singleton()) {
    return AcquirePath(txn, {&resource, 1}, mode, options, locks);
  }
  if (txn == kInvalidTxn) {
    return Status::InvalidArgument("invalid transaction id");
  }
  if (mode == LockMode::kNL) {
    return Status::InvalidArgument("cannot acquire mode NL");
  }
  std::shared_ptr<TxnLocks> by_id;
  TxnLocks* t = locks;
  CODLOCK_RETURN_IF_ERROR(Resolve(txn, t, by_id));
  // A covered re-acquisition is answered from the transaction's row
  // without touching a shard (txn_locks.h).  A hit pays one atomic RMW:
  // cache_hits.  Total requests = requests + cache_hits and total grants =
  // grants + cache_hits (see metrics.h).
  if (t->TryHits({&resource, 1}, mode, mode,
                 options.duration == LockDuration::kLong) != 0) {
    stats_.cache_hits.Add();
    return Status::OK();
  }
  stats_.requests.Add();
  Grant g;
  return AcquireSlow(*t, resource, mode, options, g);
}

Status LockManager::AcquireSlow(TxnLocks& t, ResourceId resource,
                                LockMode mode, const AcquireOptions& options,
                                Grant& g) {
  Shard& shard = ShardFor(resource);
  Status status;
  {
    MutexLock lk(shard.mu);
    status = AcquireLocked(shard, t, resource, mode, options, g);
  }
  if (status.ok() && g.changed()) RecordGrants(t, {&g, 1});
  return status;
}

Status LockManager::AcquirePath(TxnId txn, std::span<const ResourceId> path,
                                LockMode leaf_mode,
                                const AcquireOptions& options,
                                TxnLocks* locks) {
  if (txn == kInvalidTxn) {
    return Status::InvalidArgument("invalid transaction id");
  }
  if (path.empty()) {
    return Status::InvalidArgument("empty lock path");
  }
  if (leaf_mode == LockMode::kNL) {
    return Status::InvalidArgument("cannot acquire mode NL");
  }
  std::shared_ptr<TxnLocks> by_id;
  TxnLocks* t = locks;
  CODLOCK_RETURN_IF_ERROR(Resolve(txn, t, by_id));
  const LockMode prefix_mode = IntentionFor(leaf_mode);
  const bool want_long = options.duration == LockDuration::kLong;
  const size_t n = path.size();
  auto mode_of = [&](size_t i) { return i + 1 == n ? leaf_mode : prefix_mode; };

  // Batched processing tracks requests in 64-bit masks on the stack.  A
  // singleton element expands to its lanes: one for an intention mode,
  // all kLanes for S/SIX/X, which only the leaf can ask for.  Longer paths
  // (never produced by the protocols — hierarchies are ~4–13 levels) fall
  // back to per-resource acquisition, rolled back leaf-to-root on failure.
  constexpr size_t kMaxBatch = 64;
  const bool leaf_intention = IsIntention(leaf_mode);
  const bool leaf_on_lanes = path[n - 1].singleton() && !leaf_intention;
  if (n + (leaf_on_lanes ? kLanes - 1 : 0) > kMaxBatch) {
    for (size_t i = 0; i < n; ++i) {
      Status status = Acquire(txn, path[i], mode_of(i), options, t);
      if (!status.ok()) {
        for (size_t j = i; j-- > 0;) Release(txn, path[j], t);
        return status;
      }
    }
    return Status::OK();
  }

  // Pass 1: answer covered re-acquisitions from the rows (one lock of the
  // transaction's mutex, no shard), and expand the rest into lane-level
  // requests.

  // Plain fields, so the array is not zeroed on every call.
  struct Request {
    uint32_t node;
    uint64_t instance;
    LockMode mode;
    ResourceId res() const { return {node, instance}; }
  };
  Request req[kMaxBatch];
  uint32_t shard_of[kMaxBatch];
  size_t m = 0;
  auto add = [&](ResourceId res, LockMode mode) {
    shard_of[m] = static_cast<uint32_t>(ShardIndexFor(res));
    req[m++] = {res.node, res.instance, mode};
  };
  const uint64_t hit_mask = t->TryHits(path, prefix_mode, leaf_mode, want_long);
  uint64_t singleton_mask = 0;  // singleton elements that missed
  for (size_t i = 0; i < n; ++i) {
    if (((hit_mask >> i) & 1) != 0) continue;
    const ResourceId& r = path[i];
    const LockMode mode = mode_of(i);
    if (!r.singleton()) {
      add(r, mode);
    } else {
      singleton_mask |= uint64_t{1} << i;
      // Prefix modes are intentions: only an S/X leaf takes every lane.
      if (i + 1 < n || leaf_intention) {
        add(r.Lane(LaneOf(txn)), mode);
      } else {
        for (uint64_t k = 0; k < kLanes; ++k) add(r.Lane(k), mode);
      }
    }
  }
  // Total requests = requests + cache_hits (see metrics.h): one batched
  // RMW per counter for the whole path.
  const uint64_t hits = static_cast<uint64_t>(std::popcount(hit_mask));
  if (hits != 0) stats_.cache_hits.Add(hits);
  if (m != 0) stats_.requests.Add(m);
  if (m == 0) return Status::OK();

  // Pass 2: group by shard and visit each shard mutex once.  Immediate
  // grants may land out of path order; that is invisible to other
  // transactions (each grant only *adds* to this transaction's hold set)
  // and the root-to-leaf order is restored for anything that must wait.
  // Lanes of an S/X leaf are the exception: each is tried only after the
  // lanes before it are granted, so two S/X requests on one granule take
  // its lanes in the same order and cannot deadlock on them.
  Grant grant_of[kMaxBatch];
  Grant changed[kMaxBatch];  // the grants the rows must see
  size_t num_changed = 0;
  int64_t num_new = 0;
  uint64_t granted_mask = 0;
  uint64_t deferred_mask = 0;
  const size_t first_leaf_lane =
      leaf_on_lanes && ((hit_mask >> (n - 1)) & 1) == 0 ? m - kLanes : m;
  size_t next_leaf_lane = first_leaf_lane;
  for (uint64_t rest = (m == 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1);
       rest != 0;) {
    const size_t first = static_cast<size_t>(std::countr_zero(rest));
    const uint32_t shard_idx = shard_of[first];
    Shard& shard = shards_[shard_idx];
    MutexLock lk(shard.mu);
    for (uint64_t scan = rest; scan != 0; scan &= scan - 1) {
      const size_t j = static_cast<size_t>(std::countr_zero(scan));
      if (shard_of[j] != shard_idx) continue;
      rest &= ~(uint64_t{1} << j);
      if (j >= first_leaf_lane && j != next_leaf_lane) {
        deferred_mask |= uint64_t{1} << j;
        continue;
      }
      Entry& entry = EntryFor(shard, req[j].res());
      if (TryGrantLocked(shard, entry, txn, req[j].mode, options,
                         grant_of[j])) {
        granted_mask |= uint64_t{1} << j;
        if (grant_of[j].changed()) changed[num_changed++] = grant_of[j];
        if (grant_of[j].before == LockMode::kNL) ++num_new;
        if (j == next_leaf_lane) ++next_leaf_lane;
      } else {
        deferred_mask |= uint64_t{1} << j;
      }
    }
  }
  const uint64_t immediate =
      static_cast<uint64_t>(std::popcount(granted_mask));
  if (immediate != 0) {
    stats_.grants.Add(immediate);
    stats_.immediate_grants.Add(immediate);
  }
  if (num_new != 0) NoteHoldersAdded(stats_, num_new);

  // One merge into the held rows for the whole batch.
  RecordGrants(*t, std::span<const Grant>(changed, num_changed));

  // Pass 3: whatever conflicted is acquired blocking, in path order
  // (rule 5 root-to-leaf waiting semantics; ascending bits = path order,
  // and lane order within the leaf).  A mid-path failure (timeout,
  // deadlock, shed, injected fault) rolls back the hits, immediate grants
  // and blocking grants.
  Status status;
  uint64_t blocking_done = 0;
  for (uint64_t scan = deferred_mask; scan != 0; scan &= scan - 1) {
    const size_t j = static_cast<size_t>(std::countr_zero(scan));
    if (fault::FireResult f = g_fault_acquire_path.Fire()) {
      status = fault::StatusFor(f, g_fault_acquire_path.name());
      break;
    }
    status = AcquireSlow(*t, req[j].res(), req[j].mode, options, grant_of[j]);
    if (!status.ok()) break;
    blocking_done |= uint64_t{1} << j;
  }
  if (!status.ok()) {
    // Count-paired, leaf-to-root: a re-entrant acquisition merely drops
    // back to its previous count; a fresh grant disappears, so the failed
    // path leaves no new intention locks behind for the retry loop to trip
    // over.  A conversion on an instance resource keeps its mode (safe —
    // strictly stronger — and the grant one entry makes).  A lane goes
    // back exactly as it was: one entry would have refused the whole S/X
    // that a conversion on some of its lanes belongs to.
    const uint64_t made = granted_mask | blocking_done;
    for (size_t j = m; j-- > 0;) {
      if (((made >> j) & 1) != 0) UndoGrant(*t, grant_of[j]);
    }
    for (size_t i = n; i-- > 0;) {
      if (((hit_mask >> i) & 1) != 0) Release(txn, path[i], t);
    }
    // A singleton's row goes back with its lanes: between calls it is the
    // hold on the transaction's own lane, which every request takes.
    for (uint64_t scan = singleton_mask; scan != 0; scan &= scan - 1) {
      const ResourceId granule = path[std::countr_zero(scan)];
      const ResourceId lane = granule.Lane(LaneOf(txn));
      Shard& shard = ShardFor(lane);
      MutexLock lk(shard.mu);
      Entry* e = FindEntry(shard, lane);
      const HeldLock h = e == nullptr ? HeldLock{} : HoldOf(*e, txn);
      if (h.mode == LockMode::kNL) continue;
      t->EditRow(granule, [&h](TxnLocks::Row& row) {
        row.mode = h.mode;
        row.is_long = h.duration == LockDuration::kLong;
      });
    }
    return status;
  }
  // An S/SIX/X on every lane of a singleton is now held on the granule.
  if (leaf_on_lanes && ((hit_mask >> (n - 1)) & 1) == 0) {
    t->EditRow(path[n - 1], [leaf_mode](TxnLocks::Row& row) {
      row.mode = Supremum(row.mode, leaf_mode);
    });
  }
  return Status::OK();
}

// ---- Locked grant/wait machinery -----------------------------------------

bool LockManager::TryGrantLocked(Shard& shard, Entry& entry, TxnId txn,
                                 LockMode mode, const AcquireOptions& options,
                                 Grant& g) {
  Holder* mine = FindHolder(entry, txn);
  g.node = entry.res.node;
  g.instance = entry.res.instance;
  g.before = mine != nullptr ? mine->mode : LockMode::kNL;
  g.was_long = mine != nullptr && mine->duration == LockDuration::kLong;
  g.is_long = g.was_long || options.duration == LockDuration::kLong;

  // Re-entrant acquisition of a covered mode: bump the count.  The caller
  // accounts grants/immediate_grants (batched in AcquirePath).
  if (mine != nullptr && Covers(mine->mode, mode)) {
    mine->count++;
    if (options.duration == LockDuration::kLong) {
      mine->duration = LockDuration::kLong;
    }
    g.mode = mine->mode;
    return true;
  }

  const LockMode target = mine != nullptr ? Supremum(mine->mode, mode) : mode;
  const bool is_conversion = mine != nullptr;

  const bool queue_clear = [&] {
    if (is_conversion) return true;  // conversions jump the queue
    for (const auto& w : entry.waiters) {
      if (!w->granted &&
          w->killed.load(std::memory_order_relaxed) == KillReason::kNone) {
        return false;
      }
    }
    return true;
  }();

  if (queue_clear && CompatibleWithHolders(shard, entry, txn, target)) {
    if (mine != nullptr) {
      mine->mode = target;
      mine->count++;
      if (options.duration == LockDuration::kLong) {
        mine->duration = LockDuration::kLong;
      }
    } else {
      // A new holder: the caller bumps the held-locks gauge.
      entry.holders.push_back(Holder{txn, target, 1, options.duration});
    }
    g.mode = target;
    return true;
  }
  return false;
}

Status LockManager::AcquireLocked(Shard& shard, const TxnLocks& t,
                                  ResourceId resource, LockMode mode,
                                  const AcquireOptions& options, Grant& g) {
  const TxnId txn = t.id();
  Entry& entry = EntryFor(shard, resource);
  if (TryGrantLocked(shard, entry, txn, mode, options, g)) {
    stats_.grants.Add();
    stats_.immediate_grants.Add();
    if (g.before == LockMode::kNL) NoteHolderAdded(stats_);
    return Status::OK();
  }

  const Holder* mine = FindHolder(entry, txn);
  const LockMode target = mine != nullptr ? Supremum(mine->mode, mode) : mode;
  const bool is_conversion = mine != nullptr;

  if (!options.wait) {
    MaybeRetireEntry(shard, entry);
    return Status::Conflict("lock " + std::string(LockModeName(mode)) +
                            " on " + resource.ToString() +
                            " conflicts and wait=false");
  }

  // Crash/restart drain: no new waiter may park once draining started.
  if (draining_.load(std::memory_order_acquire)) {
    MaybeRetireEntry(shard, entry);
    return Status::Aborted("lock manager is draining for shutdown");
  }

  // Overload shedding: beyond the blocked-waiter cap, rejecting is
  // kinder than queuing — the convoy would only deepen.  kShed tells the
  // caller "retry with backoff", unlike kConflict/kTimeout.
  if (options_.max_blocked_waiters != 0 &&
      blocked_waiters_.load(std::memory_order_acquire) >=
          options_.max_blocked_waiters) {
    stats_.sheds.Add();
    MaybeRetireEntry(shard, entry);
    return Status::Shed("lock wait on " + resource.ToString() + " shed: " +
                        std::to_string(options_.max_blocked_waiters) +
                        " waiters already blocked");
  }

  if (fault::FireResult f = g_fault_waiter_alloc.Fire()) {
    MaybeRetireEntry(shard, entry);
    return fault::StatusFor(f, g_fault_waiter_alloc.name());
  }

  auto waiter = std::make_shared<WaiterState>();
  waiter->txn = txn;
  waiter->wanted = target;
  waiter->is_conversion = is_conversion;
  waiter->duration = options.duration;
  if (is_conversion) {
    // Conversions wait at the front: they only need current holders to
    // drain, and granting them first avoids needless conversion
    // deadlocks with queued fresh requests.
    entry.waiters.insert(entry.waiters.begin(), waiter);
  } else {
    entry.waiters.push_back(waiter);
  }
  stats_.waits.Add();
  blocked_waiters_.fetch_add(1, std::memory_order_acq_rel);

  const uint64_t timeout_ms =
      options.timeout_ms != AcquireOptions::kTimeoutDefault
          ? options.timeout_ms
          : options_.default_timeout_ms;
  const bool infinite = timeout_ms == AcquireOptions::kTimeoutInfinite;
  const auto deadline =
      infinite ? std::chrono::steady_clock::time_point::max()
               : std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
  Stopwatch waited;

  if (fault::FireResult f = g_fault_wait.Fire()) {
    // Forced timeout: the wait "expires" immediately, whatever the
    // deadline was.
    blocked_waiters_.fetch_sub(1, std::memory_order_acq_rel);
    CleanupFailedWait(shard, entry, txn, waiter.get(), waited);
    stats_.timeouts.Add();
    return fault::StatusFor(f, g_fault_wait.name());
  }

  while (true) {
    switch (options_.deadlock_policy) {
      case DeadlockPolicy::kDetect: {
        std::vector<TxnId> blockers =
            BlockersOf(shard, entry, txn, target, waiter.get());
        TxnId victim = wfg_.UpdateAndCheck(txn, std::move(blockers), waiter);
        if (victim == txn) {
          blocked_waiters_.fetch_sub(1, std::memory_order_acq_rel);
          CleanupFailedWait(shard, entry, txn, waiter.get(), waited);
          stats_.deadlocks.Add();
          return Status::Deadlock("transaction " + std::to_string(txn) +
                                  " chosen as deadlock victim on " +
                                  resource.ToString());
        }
        break;
      }
      case DeadlockPolicy::kWaitDie: {
        // A requester may wait only for younger transactions; blocked by
        // anything older, it dies (restarts) instead.
        for (TxnId blocker :
             BlockersOf(shard, entry, txn, target, waiter.get())) {
          if (blocker < txn) {
            blocked_waiters_.fetch_sub(1, std::memory_order_acq_rel);
            CleanupFailedWait(shard, entry, txn, waiter.get(), waited);
            stats_.deadlocks.Add();
            return Status::Deadlock(
                "wait-die: transaction " + std::to_string(txn) +
                " is younger than blocker " + std::to_string(blocker));
          }
        }
        wfg_.Register(txn, waiter);
        break;
      }
      case DeadlockPolicy::kWoundWait: {
        // An older requester wounds every younger conflicting transaction
        // and then waits for them to release at their (forced) EOT.
        for (TxnId blocker :
             BlockersOf(shard, entry, txn, target, waiter.get())) {
          if (blocker > txn) Wound(blocker);
        }
        wfg_.Register(txn, waiter);
        // A wound that landed before this registration found no wait to
        // kill; Wound sets the flag before killing, so it shows here.
        if (t.wounded()) {
          waiter->killed.store(KillReason::kWounded, std::memory_order_relaxed);
        }
        break;
      }
      case DeadlockPolicy::kTimeoutOnly:
        break;
    }

    auto wake_pred = [&] {
      return waiter->granted ||
             waiter->killed.load(std::memory_order_relaxed) !=
                 KillReason::kNone;
    };
    bool in_time = true;
    if (infinite) {
      // No deadline: sleep until granted or killed (never times out).
      waiter->cv.Wait(shard.mu, wake_pred);
    } else {
      in_time = waiter->cv.WaitUntil(shard.mu, deadline, wake_pred);
    }

    if (waiter->granted) {
      blocked_waiters_.fetch_sub(1, std::memory_order_acq_rel);
      stats_.grants.Add();
      stats_.wait_ns.Record(waited.ElapsedNanos());
      g.mode = target;  // TryGrantLocked set the rest before the wait
      return Status::OK();
    }
    KillReason reason = waiter->killed.load(std::memory_order_relaxed);
    if (reason != KillReason::kNone) {
      blocked_waiters_.fetch_sub(1, std::memory_order_acq_rel);
      CleanupFailedWait(shard, entry, txn, waiter.get(), waited);
      if (reason == KillReason::kShutdown) {
        return Status::Aborted("lock wait on " + resource.ToString() +
                               " aborted: lock manager draining for "
                               "shutdown");
      }
      stats_.deadlocks.Add();
      if (reason == KillReason::kWounded) {
        return Status::Aborted("transaction " + std::to_string(txn) +
                               " wounded while waiting on " +
                               resource.ToString());
      }
      return Status::Deadlock("transaction " + std::to_string(txn) +
                              " killed as deadlock victim on " +
                              resource.ToString());
    }
    if (!in_time) {
      blocked_waiters_.fetch_sub(1, std::memory_order_acq_rel);
      CleanupFailedWait(shard, entry, txn, waiter.get(), waited);
      stats_.timeouts.Add();
      return Status::Timeout("lock wait on " + resource.ToString() +
                             " exceeded " + std::to_string(timeout_ms) + "ms");
    }
    // Spurious wake-up or waits-for refresh: loop.
  }
}

void LockManager::UndoGrant(TxnLocks& t, const Grant& g) {
  const ResourceId res = g.res();
  Shard& shard = ShardFor(res);
  bool gone = false;
  {
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, res);
    Holder* h = e == nullptr ? nullptr : FindHolder(*e, t.id());
    if (h == nullptr) return;  // a foreign ReleaseAll took it meanwhile
    stats_.releases.Add();
    if (g.before == LockMode::kNL) {
      e->holders.erase(e->holders.begin() + (h - e->holders.data()));
      stats_.held_locks.fetch_sub(1, std::memory_order_relaxed);
      gone = true;
    } else {
      --h->count;
      if (res.is_lane()) {
        h->mode = g.before;
        h->duration = g.was_long ? LockDuration::kLong : LockDuration::kShort;
      }
    }
    GrantWaiters(shard, *e);
    MaybeRetireEntry(shard, *e);
  }
  if (gone) t.Forget(res);
}

void LockManager::CleanupFailedWait(Shard& shard, Entry& entry, TxnId txn,
                                    const WaiterState* waiter,
                                    const Stopwatch& waited) {
  EraseWaiter(shard, entry, waiter);
  // Our queue slot may have been the only thing blocking those behind us.
  GrantWaiters(shard, entry);
  MaybeRetireEntry(shard, entry);
  wfg_.Remove(txn);
  stats_.wait_ns.Record(waited.ElapsedNanos());
}

// ---- Release -------------------------------------------------------------

Status LockManager::Release(TxnId txn, ResourceId resource,
                            TxnLocks* locks) {
  const std::shared_ptr<TxnLocks> by_id =
      locks != nullptr ? nullptr : Registered(txn);
  TxnLocks* t = locks != nullptr ? locks : by_id.get();
  // A hit never reached the table; neither does its release.
  TxnLocks::Row row{resource};
  if (t != nullptr && t->ConsumeRelease(resource, row)) {
    stats_.releases.Add();
    return Status::OK();
  }
  if (!resource.singleton()) return ReleaseHold(txn, resource, t);
  // Undo one acquisition of the granule: release one count on each lane
  // at the highest count.  An intention's extra count on the transaction's
  // lane goes first, and an S/X taken on every lane goes from every lane
  // at once, never leaving some of its lanes behind.
  std::array<uint32_t, kLanes> counts{};
  row.ForEachEntry([&](ResourceId lane) {
    Shard& shard = ShardFor(lane);
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, lane);
    const Holder* h = e == nullptr ? nullptr : FindHolder(*e, txn);
    if (h != nullptr) counts[lane.lane()] = h->count;
  });
  const uint32_t top = *std::max_element(counts.begin(), counts.end());
  if (top == 0) {
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " holds no lock on " + resource.ToString());
  }
  for (uint64_t k = 0; k < kLanes; ++k) {
    if (counts[k] == top) {
      CODLOCK_RETURN_IF_ERROR(ReleaseHold(txn, resource.Lane(k), t));
    }
  }
  return Status::OK();
}

Status LockManager::ReleaseHold(TxnId txn, ResourceId resource,
                                TxnLocks* t) {
  Shard& shard = ShardFor(resource);
  bool forget = false;
  Status status = [&]() -> Status {
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, resource);
    if (e == nullptr) {
      return Status::NotFound("no lock entry for " + resource.ToString());
    }
    Entry& entry = *e;
    for (size_t i = 0; i < entry.holders.size(); ++i) {
      if (entry.holders[i].txn != txn) continue;
      stats_.releases.Add();
      if (--entry.holders[i].count > 0) {
        return Status::OK();
      }
      entry.holders.erase(entry.holders.begin() + static_cast<long>(i));
      stats_.held_locks.fetch_sub(1, std::memory_order_relaxed);
      GrantWaiters(shard, entry);
      MaybeRetireEntry(shard, entry);
      forget = true;
      return Status::OK();
    }
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " holds no lock on " + resource.ToString());
  }();
  // The hold is gone, and its row (or the lane's bit) with it.
  if (forget && t != nullptr) t->Forget(resource);
  return status;
}

size_t LockManager::ReleaseAll(TxnId txn) {
  // EOT: End() hands over the rows before the locks disappear, and the
  // ended transaction hits no more; a later acquire through the handle
  // re-begins it.
  std::vector<TxnLocks::Row> rows = txns_.With(txn, [txn](auto& map) {
    std::vector<TxnLocks::Row> out;
    auto it = map.find(txn);
    if (it == map.end()) return out;
    out = it->second->End();
    map.erase(it);
    return out;
  });
  // One key per table entry of each row; visit each shard once, hashing
  // each resource a single time.  A row's mode is not needed any more:
  // until one of its entries is released it reads X.
  struct Key {
    uint32_t shard;
    uint32_t row;
    ResourceId res;
  };
  std::vector<Key> keyed;
  keyed.reserve(rows.size());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    rows[i].ForEachEntry([&](ResourceId r) {
      keyed.push_back({static_cast<uint32_t>(ShardIndexFor(r)), i, r});
    });
    rows[i].mode = LockMode::kX;
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const Key& a, const Key& b) { return a.shard < b.shard; });
  // A row counts once, when the first of its entries still had the
  // holder.
  size_t released = 0;
  size_t granules = 0;
  for (size_t i = 0; i < keyed.size();) {
    const uint32_t shard_idx = keyed[i].shard;
    Shard& shard = shards_[shard_idx];
    MutexLock lk(shard.mu);
    for (; i < keyed.size() && keyed[i].shard == shard_idx; ++i) {
      Entry* e = FindEntry(shard, keyed[i].res);
      Holder* h = e == nullptr ? nullptr : FindHolder(*e, txn);
      if (h == nullptr) continue;
      e->holders.erase(e->holders.begin() + (h - e->holders.data()));
      ++released;
      if (std::exchange(rows[keyed[i].row].mode, LockMode::kNL) !=
          LockMode::kNL) {
        ++granules;
      }
      GrantWaiters(shard, *e);
      MaybeRetireEntry(shard, *e);
    }
  }
  // One RMW per counter for the whole transaction.
  if (released != 0) {
    stats_.held_locks.fetch_sub(static_cast<int64_t>(released),
                                std::memory_order_relaxed);
    stats_.releases.Add(released);
  }
  return granules;
}

size_t LockManager::DrainForShutdown() {
  // From here on AcquireLocked refuses to park new waiters (they fail with
  // kAborted before enqueuing).
  draining_.store(true, std::memory_order_release);
  size_t killed = 0;
  for (Shard& shard : shards_) {
    MutexLock lk(shard.mu);
    for (Entry* head : shard.buckets) {
      for (Entry* e = head; e != nullptr; e = e->next) {
        for (auto& w : e->waiters) {
          if (w->granted) continue;
          KillReason expected = KillReason::kNone;
          if (w->killed.compare_exchange_strong(expected,
                                                KillReason::kShutdown,
                                                std::memory_order_relaxed)) {
            ++killed;
            w->cv.NotifyAll();
          }
        }
      }
    }
  }
  // Each killed waiter unwinds under its shard mutex (dequeue + waits-for
  // removal) and decrements the gauge as it leaves; wait for the last one
  // so the manager can be destroyed without a thread sleeping on a member
  // condition variable.
  while (blocked_waiters_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  return killed;
}

Status LockManager::Downgrade(TxnId txn, ResourceId resource, LockMode mode,
                              TxnLocks* locks) {
  const std::shared_ptr<TxnLocks> by_id =
      locks != nullptr ? nullptr : Registered(txn);
  TxnLocks* t = locks != nullptr ? locks : by_id.get();
  const TxnLocks::Row row =
      t == nullptr ? TxnLocks::Row{resource} : t->RowOf(resource);
  if (row.mode == LockMode::kNL) {
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " holds no lock on " + resource.ToString());
  }
  if (!Covers(row.mode, mode)) {
    return Status::InvalidArgument("cannot downgrade " +
                                   std::string(LockModeName(row.mode)) +
                                   " to " + std::string(LockModeName(mode)));
  }
  // Every entry of the hold drops to the new mode, on a singleton every
  // lane the transaction holds: for an intention mode the extra lanes then
  // add nothing an S/X request would not meet on the transaction's own
  // lane anyway.  The narrower mode may unblock queued waiters.
  row.ForEachEntry([&](ResourceId r) {
    Shard& shard = ShardFor(r);
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, r);
    Holder* h = e == nullptr ? nullptr : FindHolder(*e, txn);
    if (h == nullptr) return;
    h->mode = mode;
    GrantWaiters(shard, *e);
  });
  t->EditRow(resource, [mode](TxnLocks::Row& held) { held.mode = mode; });
  return Status::OK();
}

// ---- Inspection & snapshots ----------------------------------------------

LockManager::Holder* LockManager::FindHolder(Entry& entry, TxnId txn) {
  for (Holder& h : entry.holders) {
    if (h.txn == txn) return &h;
  }
  return nullptr;
}

HeldLock LockManager::HoldOf(Entry& entry, TxnId txn) {
  HeldLock held{entry.res, LockMode::kNL, LockDuration::kShort};
  if (const Holder* h = FindHolder(entry, txn)) {
    held.mode = h->mode;
    held.duration = h->duration;
  }
  return held;
}

LockMode LockManager::HeldMode(TxnId txn, ResourceId resource) const {
  if (resource.singleton()) {
    const std::shared_ptr<TxnLocks> t = Registered(txn);
    return t == nullptr ? LockMode::kNL : t->RowOf(resource).mode;
  }
  Shard& shard = ShardFor(resource);
  MutexLock lk(shard.mu);
  Entry* e = FindEntry(shard, resource);
  return e == nullptr ? LockMode::kNL : HoldOf(*e, txn).mode;
}

LockMode LockManager::GroupMode(ResourceId resource) const {
  LockMode m = LockMode::kNL;
  if (resource.singleton()) {
    // Each holder of a lane adds its row's mode of the granule.
    std::vector<TxnId> holders;
    for (uint64_t k = 0; k < kLanes; ++k) {
      const ResourceId lane = resource.Lane(k);
      const Shard& shard = ShardFor(lane);
      MutexLock lk(shard.mu);
      if (const Entry* e = FindEntry(shard, lane)) {
        for (const Holder& h : e->holders) holders.push_back(h.txn);
      }
    }
    for (TxnId txn : holders) m = Supremum(m, HeldMode(txn, resource));
    return m;
  }
  Shard& shard = ShardFor(resource);
  MutexLock lk(shard.mu);
  Entry* e = FindEntry(shard, resource);
  if (e == nullptr) return LockMode::kNL;
  for (const Holder& h : e->holders) m = Supremum(m, h.mode);
  return m;
}

std::vector<HeldLock> LockManager::LocksOf(TxnId txn) const {
  const std::shared_ptr<TxnLocks> t = Registered(txn);
  if (t == nullptr) return {};
  std::vector<HeldLock> out;
  t->ForEachRow([&out](const TxnLocks::Row& row) {
    out.push_back(HeldLock{
        row.res, row.mode,
        row.is_long ? LockDuration::kLong : LockDuration::kShort});
  });
  return out;
}

size_t LockManager::NumTxns() const { return txns_.Size(); }

size_t LockManager::NumEntries() const {
  size_t n = 0;
  std::vector<uint32_t> lane_nodes;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    MutexLock lk(shard.mu);
    for (const Entry* head : shard.buckets) {
      for (const Entry* e = head; e != nullptr; e = e->next) {
        if (e->holders.empty() && e->waiters.empty()) continue;
        if (e->res.is_lane()) {
          lane_nodes.push_back(e->res.node);
        } else {
          ++n;
        }
      }
    }
  }
  // A singleton granule counts once, however many of its lanes are used.
  std::sort(lane_nodes.begin(), lane_nodes.end());
  return n + static_cast<size_t>(
                 std::unique(lane_nodes.begin(), lane_nodes.end()) -
                 lane_nodes.begin());
}

std::vector<LongLockRecord> LockManager::SnapshotLongLocks() const {
  return Snapshot(/*long_only=*/true);
}

std::vector<LongLockRecord> LockManager::SnapshotAllLocks() const {
  return Snapshot(/*long_only=*/false);
}

std::vector<LongLockRecord> LockManager::Snapshot(bool long_only) const {
  std::vector<LongLockRecord> out;
  for (size_t i = 0; i <= shard_mask_; ++i) {
    const Shard& shard = shards_[i];
    MutexLock lk(shard.mu);
    for (const Entry* head : shard.buckets) {
      for (const Entry* e = head; e != nullptr; e = e->next) {
        for (const Holder& h : e->holders) {
          if (!long_only || h.duration == LockDuration::kLong) {
            out.push_back(LongLockRecord{h.txn, e->res, h.mode});
          }
        }
      }
    }
  }
  txns_.ForEach([&out, long_only](TxnId txn,
                                  const std::shared_ptr<TxnLocks>& t) {
    t->ForEachRow([&](const TxnLocks::Row& row) {
      if (row.res.singleton() && (!long_only || row.is_long)) {
        out.push_back(LongLockRecord{txn, row.res, row.mode});
      }
    });
  });
  return out;
}

Status LockManager::RestoreLongLocks(
    const std::vector<LongLockRecord>& records) {
  // Each record names a granule; a singleton's goes onto lanes as a
  // request would: an intention mode onto the transaction's lane, any
  // other mode onto every lane.
  std::vector<LongLockRecord> expanded;
  expanded.reserve(records.size());
  for (const LongLockRecord& rec : records) {
    if (rec.txn == kInvalidTxn) {
      return Status::InvalidArgument("long-lock record with invalid txn");
    }
    if (rec.resource.is_lane()) {
      return Status::InvalidArgument(
          "long-lock record for txn " + std::to_string(rec.txn) +
          " names instance " + std::to_string(rec.resource.instance) +
          ", which has the reserved lane bit set");
    }
    if (!rec.resource.singleton()) {
      expanded.push_back(rec);
    } else if (IsIntention(rec.mode)) {
      expanded.push_back(
          LongLockRecord{rec.txn, rec.resource.Lane(LaneOf(rec.txn)),
                         rec.mode});
    } else {
      for (uint64_t k = 0; k < kLanes; ++k) {
        expanded.push_back(
            LongLockRecord{rec.txn, rec.resource.Lane(k), rec.mode});
      }
    }
  }

  // Pass 1 — validate without mutating: a record conflicts when any
  // *other* transaction already holds an incompatible mode (e.g. a short
  // lock taken before recovery ran) or asks for one in this batch.
  // All-or-nothing: one conflict and nothing is installed.  Sorted by
  // entry, each transaction's merged mode there is tested against the
  // supremum of the batch's earlier transactions: a mode is compatible
  // with a supremum exactly when it is compatible with each part.
  std::vector<LongLockRecord> by_entry = expanded;
  std::sort(by_entry.begin(), by_entry.end(),
            [](const LongLockRecord& a, const LongLockRecord& b) {
              return std::tie(a.resource.node, a.resource.instance, a.txn) <
                     std::tie(b.resource.node, b.resource.instance, b.txn);
            });
  for (size_t i = 0; i < by_entry.size();) {
    const ResourceId res = by_entry[i].resource;
    Shard& shard = ShardFor(res);
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, res);
    LockMode batch = LockMode::kNL;  // earlier transactions' records here
    while (i < by_entry.size() && by_entry[i].resource == res) {
      const TxnId txn = by_entry[i].txn;
      LockMode mode = LockMode::kNL;
      for (; i < by_entry.size() && by_entry[i].resource == res &&
             by_entry[i].txn == txn;
           ++i) {
        mode = Supremum(mode, by_entry[i].mode);
      }
      if (!Compatible(mode, batch) ||
          (e != nullptr && !CompatibleWithHolders(shard, *e, txn, mode))) {
        return Status::Internal("long-lock restore conflict on " +
                                res.ToString() + ": txn " +
                                std::to_string(txn) + " wants " +
                                std::string(LockModeName(mode)) +
                                " against an incompatible holder or "
                                "record");
      }
      batch = Supremum(batch, mode);
    }
  }

  // Pass 2 — install.  Duplicate records for one (txn, resource) merge to
  // the supremum mode.  Runs during recovery quiescence, so the validated
  // facts still hold.
  for (const LongLockRecord& rec : expanded) {
    Shard& shard = ShardFor(rec.resource);
    Grant g{rec.resource.node, rec.resource.instance, rec.mode, LockMode::kNL,
            true, false};
    {
      MutexLock lk(shard.mu);
      Entry& entry = EntryFor(shard, rec.resource);
      if (Holder* mine = FindHolder(entry, rec.txn)) {
        g.before = mine->mode;
        g.was_long = mine->duration == LockDuration::kLong;
        g.mode = mine->mode = Supremum(mine->mode, rec.mode);
        mine->duration = LockDuration::kLong;
      } else {
        entry.holders.push_back(
            Holder{rec.txn, rec.mode, 1, LockDuration::kLong});
        NoteHolderAdded(stats_);
      }
    }
    if (g.changed()) RecordGrants(*Begin(rec.txn), {&g, 1});
  }
  // A singleton's row takes the record's mode once all its lanes hold it.
  for (const LongLockRecord& rec : records) {
    if (!rec.resource.singleton()) continue;
    Begin(rec.txn)->EditRow(rec.resource, [&rec](TxnLocks::Row& row) {
      row.mode = Supremum(row.mode, rec.mode);
    });
  }
  return Status::OK();
}

// ---- Waits-for graph -----------------------------------------------------

TxnId LockManager::WaitsForGraph::UpdateAndCheck(
    TxnId self, std::vector<TxnId> blockers,
    std::shared_ptr<WaiterState> waiter) {
  MutexLock lk(mu_);
  WaitRec& rec = waiting_[self];
  rec.blockers = std::move(blockers);
  rec.waiter = std::move(waiter);

  // Every cycle through `self` is broken here: a waiter recomputes its
  // blockers only when it wakes, so a cycle left standing would end by
  // timeout.  FindCycle skips a killed waiter's edges, so each round
  // breaks the cycle it found.
  std::vector<TxnId> cycle;
  while (FindCycle(self, &cycle)) {
    // Victim selection: the youngest transaction in the cycle (largest
    // id — ids are assigned monotonically), which has done the least
    // work.
    const TxnId victim = *std::max_element(cycle.begin(), cycle.end());
    if (victim == self) return self;
    auto it = waiting_.find(victim);
    // Should be impossible (all cycle members wait); fall back to self.
    if (it == waiting_.end()) return self;
    it->second.waiter->killed.store(KillReason::kDeadlockVictim,
                                    std::memory_order_relaxed);
    it->second.waiter->cv.NotifyAll();
  }
  return kInvalidTxn;
}

void LockManager::WaitsForGraph::Register(TxnId self,
                                          std::shared_ptr<WaiterState> waiter) {
  MutexLock lk(mu_);
  WaitRec& rec = waiting_[self];
  rec.blockers.clear();
  rec.waiter = std::move(waiter);
}

void LockManager::WaitsForGraph::Kill(TxnId txn, KillReason reason) {
  MutexLock lk(mu_);
  auto it = waiting_.find(txn);
  if (it == waiting_.end()) return;
  it->second.waiter->killed.store(reason, std::memory_order_relaxed);
  it->second.waiter->cv.NotifyAll();
}

void LockManager::WaitsForGraph::Remove(TxnId self) {
  MutexLock lk(mu_);
  waiting_.erase(self);
}

bool LockManager::WaitsForGraph::FindCycle(TxnId self,
                                           std::vector<TxnId>* cycle) const {
  // Iterative DFS from `self`, looking for a path back to `self`.
  std::vector<TxnId> path;
  std::unordered_set<TxnId> visited;

  struct Frame {
    TxnId txn;
    size_t next_edge;
  };
  std::vector<Frame> stack;
  stack.push_back({self, 0});
  path.push_back(self);
  visited.insert(self);

  while (!stack.empty()) {
    Frame& frame = stack.back();
    auto it = waiting_.find(frame.txn);
    const std::vector<TxnId>* edges =
        it != waiting_.end() ? &it->second.blockers : nullptr;
    // Skip edges of already-killed victims; their requests are unwinding.
    if (edges != nullptr && it->second.waiter != nullptr &&
        it->second.waiter->killed.load(std::memory_order_relaxed) !=
            KillReason::kNone) {
      edges = nullptr;
    }
    if (edges == nullptr || frame.next_edge >= edges->size()) {
      stack.pop_back();
      path.pop_back();
      continue;
    }
    TxnId next = (*edges)[frame.next_edge++];
    if (next == self) {
      *cycle = path;
      return true;
    }
    if (visited.insert(next).second) {
      stack.push_back({next, 0});
      path.push_back(next);
    }
  }
  return false;
}

}  // namespace codlock::lock
