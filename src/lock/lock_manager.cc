#include "lock/lock_manager.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

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
  int64_t held = stats.held_locks.fetch_add(n, wm::relaxed) + n;
  int64_t prev = stats.max_held_locks.load(wm::relaxed);
  while (prev < held && !stats.max_held_locks.compare_exchange_weak(
                            prev, held, wm::relaxed)) {
  }
}

void NoteHolderAdded(LockStats& stats) { NoteHoldersAdded(stats, 1); }

/// Modes eligible for the optimistic fast path: the shared modes, which
/// are mutually compatible in every combination — concurrent fast-path
/// claims therefore need no ordering among themselves, only against the
/// mutex side (the seqlock summary provides that).
bool FastpathEligible(LockMode mode) {
  return mode == LockMode::kS || mode == LockMode::kIS;
}

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
      shards_(options.num_shards > 0
                  ? std::bit_ceil(static_cast<size_t>(options.num_shards))
                  : DerivedNumShards(std::thread::hardware_concurrency())),
      shard_mask_(shards_.size() - 1),
      shard_bits_(std::countr_zero(shards_.size())) {}

LockManager::~LockManager() {
  // Standard lifetime contract: no concurrent users at destruction.  Take
  // each shard mutex anyway so the analysis is satisfied and any release
  // store is flushed.
  for (Shard& shard : shards_) {
    MutexLock lk(shard.mu);
    for (auto& head : shard.buckets) {
      Entry* e = head.load(wm::relaxed);
      head.store(nullptr, wm::relaxed);
      while (e != nullptr) {
        Entry* next = e->next.load(wm::relaxed);
        delete e;
        e = next;
      }
    }
    for (Entry* e : shard.retired) delete e;
    shard.retired.clear();
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

void LockManager::AddHeld(TxnLocks& t, std::span<const ResourceId> resources) {
  if (resources.empty() || t.Record(resources)) return;
  // A foreign ReleaseAll ended the transaction after this call resolved
  // it; the grant landed anyway and must stay visible to a ReleaseAll.
  Rebegin(t, resources);
}

bool LockManager::Rebegin(TxnLocks& t, std::span<const ResourceId> resources) {
  return txns_.With(t.id(), [&t, resources](auto& map) {
    std::shared_ptr<TxnLocks>& live = map[t.id()];
    if (live == nullptr) live = t.shared_from_this();
    live->Record(resources, /*revive=*/true);
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

// ---- Entry index (lock-free bucket chains + epoch-pooled nodes) ----------

LockManager::Entry* LockManager::FindEntry(const Shard& shard,
                                           const ResourceId& res) const {
  // Safe under the shard mutex *or* under an EBR guard: `res` and `next`
  // of a linked node are immutable, and an unlinked node keeps its `next`
  // pointing into the live tail so a reader mid-traversal continues.
  Entry* e = shard.buckets[BucketIndexFor(res)].load(wm::seq_cst);
  while (e != nullptr) {
    if (e->res == res) return e;
    e = e->next.load(wm::seq_cst);
  }
  return nullptr;
}

LockManager::Entry& LockManager::EntryFor(Shard& shard, const ResourceId& res) {
  const size_t b = BucketIndexFor(res);
  Entry* head = shard.buckets[b].load(wm::relaxed);
  for (Entry* e = head; e != nullptr;
       e = e->next.load(wm::relaxed)) {
    if (e->res == res) return *e;
  }
  Entry* e;
  if (!shard.retired.empty() &&
      ebr::Global().SafeToReclaim(shard.retired.front()->retire_stamp)) {
    // The oldest retired node is epoch-safe: no pinned reader can still
    // hold a pointer into it, so its key may be rewritten and its chain
    // link repointed.
    e = shard.retired.front();
    shard.retired.erase(shard.retired.begin());
    e->res = res;
    e->summary.store(0, wm::relaxed);
    e->holders.clear();
    e->waiters.clear();
  } else {
    e = new Entry();
    e->res = res;
  }
  e->next.store(head, wm::relaxed);
  // Publish: the seq_cst store orders the key/link writes above before the
  // node becomes reachable to lock-free readers.
  shard.buckets[b].store(e, wm::seq_cst);
  ++shard.num_entries;
  return *e;
}

void LockManager::RetireEntry(Shard& shard, Entry& entry) {
  const size_t b = BucketIndexFor(entry.res);
  Entry* cur = shard.buckets[b].load(wm::relaxed);
  if (cur == &entry) {
    shard.buckets[b].store(entry.next.load(wm::relaxed),
                           wm::seq_cst);
  } else {
    while (cur != nullptr) {
      Entry* next = cur->next.load(wm::relaxed);
      if (next == &entry) break;
      cur = next;
    }
    if (cur == nullptr) return;  // not linked — nothing to do (defensive)
    cur->next.store(entry.next.load(wm::relaxed),
                    wm::seq_cst);
  }
  // The node's own `next` stays intact: a pinned reader that reached it
  // before the unlink continues through to the live tail of the chain.
  entry.summary.fetch_or(kSummaryRetired, wm::seq_cst);
  entry.holders.clear();
  entry.waiters.clear();
  // Stamp *after* the unlink: a reader pinned at or above the stamp
  // provably validated its pin after the unlink became visible and cannot
  // reach this node any more.
  entry.retire_stamp = ebr::Global().Stamp();
  --shard.num_entries;
  shard.retired.push_back(&entry);
  // Bound the idle pool; only an epoch-safe node may be freed outright.
  if (shard.retired.size() > kEntryPoolSize &&
      ebr::Global().SafeToReclaim(shard.retired.front()->retire_stamp)) {
    delete shard.retired.front();
    shard.retired.erase(shard.retired.begin());
  }
}

void LockManager::MaybeRetireEntry(Shard& shard, Entry& entry) {
  if ((entry.summary.load(wm::relaxed) & kSummaryRetired) != 0) {
    return;  // already unlinked by an earlier repair
  }
  if (entry.holders.empty() && entry.waiters.empty() && FpSlotsEmpty(entry)) {
    RetireEntry(shard, entry);
  }
}

bool LockManager::FpSlotsEmpty(const Entry& entry) {
  for (const FpSlot& slot : entry.fp) {
    // A transient claim (txn set, word still 0) counts as occupied:
    // retiring under it would strand the claimant's revalidation.
    if (slot.txn.load(wm::seq_cst) != kInvalidTxn ||
        slot.word.load(wm::seq_cst) != 0) {
      return false;
    }
  }
  return true;
}

// ---- Grant machinery -----------------------------------------------------

bool LockManager::CompatibleWithHolders(const Shard& shard, const Entry& entry,
                                        TxnId txn, LockMode target) {
  (void)shard;  // capability-only parameter
  bool compatible = true;
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) continue;
    stats_.compat_tests.Add();
    if (!Compatible(target, h.mode)) {
      compatible = false;
      break;
    }
  }
  if (compatible) {
    // Fast-path slots are holders too.  A transaction appearing both in
    // the vector and in a slot is conflict-equivalent to holding the
    // supremum of the two modes (the lattice distributes compatibility
    // over suprema), so testing each part separately is exact.
    for (const FpSlot& slot : entry.fp) {
      const TxnId t = slot.txn.load(wm::seq_cst);
      if (t == kInvalidTxn || t == txn) continue;
      const uint64_t w = slot.word.load(wm::seq_cst);
      if (w == 0) continue;  // transient claim: its revalidation sees us
      stats_.compat_tests.Add();
      if (!Compatible(target, FpMode(w))) {
        compatible = false;
        break;
      }
    }
  }
  if (!compatible) stats_.conflicts.Add();
  return compatible;
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
  for (const FpSlot& slot : entry.fp) {
    const TxnId t = slot.txn.load(wm::seq_cst);
    if (t == kInvalidTxn || t == txn) continue;
    const uint64_t w = slot.word.load(wm::seq_cst);
    if (w != 0 && !Compatible(target, FpMode(w))) add(t);
  }
  if (self == nullptr || !self->is_conversion) {
    // FIFO: a regular request is also gated by every earlier queued waiter.
    for (const auto& w : entry.waiters) {
      if (w.get() == self) break;
      if (!w->granted &&
          w->killed.load(wm::relaxed) == KillReason::kNone) {
        add(w->txn);
      }
    }
  }
  return blockers;
}

void LockManager::GrantWaiters(Shard& shard, Entry& entry) {
  for (auto it = entry.waiters.begin(); it != entry.waiters.end();) {
    const std::shared_ptr<WaiterState>& w = *it;
    if (w->killed.load(wm::relaxed) != KillReason::kNone) {
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

// ---- Optimistic compatible-mode fast path --------------------------------

bool LockManager::TryFastpathAcquire(TxnLocks& t, ResourceId resource,
                                     LockMode mode) {
  // The caller gates the duration: fast-path holds are always short.
  if (draining_.load(wm::acquire)) return false;
  const TxnId txn = t.id();
  ebr::Reclaimer::Guard guard(ebr::Global());
  if (!guard.ok()) return false;  // registration table full: slow path only
  Shard& shard = ShardFor(resource);
  Entry* entry = FindEntry(shard, resource);
  if (entry == nullptr) return false;  // first toucher pays the slow path

  // Mutation point (kill-suite only): grant without the seqlock premise or
  // revalidation.  A shared mode then lands over an exclusive holder and
  // the compatibility oracle must see the impossible pair.
  const bool validate =
      !mutation::Enabled(mutation::Mutant::kFastpathSkipValidation);

  // Order-weakening mutation point (kill-suite only): the premise and
  // revalidation loads must be seq_cst — `codlock_wmc`'s
  // summary_publish_validate harness proves relaxed loads can validate
  // against a stale even summary and grant S over an X holder.
  const wm::MemoryOrder summary_mo = mutation::WeakenedOrder(
      mutation::Mutant::kWmSummaryLoadRelaxed, wm::seq_cst);
  const uint64_t s1 = entry->summary.load(summary_mo);
  if (validate) {
    // Premise: settled summary (even sequence), no queued waiter to be
    // fair to, not retired, and no vector holder whose mode conflicts
    // with ours.  Other *fast-path* holders are always S/IS and therefore
    // compatible by construction.
    if ((s1 & 1) != 0 || (s1 & (kSummaryWaiters | kSummaryRetired)) != 0) {
      return false;
    }
    const uint64_t mask = s1 >> kSummaryMaskShift;
    for (int m = 0; m < kNumModes; ++m) {
      if ((mask & (uint64_t{1} << m)) != 0 &&
          !Compatible(mode, static_cast<LockMode>(m))) {
        return false;
      }
    }
  }

  FpSlot* free_slot = nullptr;
  for (FpSlot& slot : entry->fp) {
    const TxnId owner = slot.txn.load(wm::seq_cst);
    if (owner == txn) {
      // Re-entrant covered acquisition: bump the count.  No revalidation —
      // a covered re-acquisition never changes the entry's conflict set
      // (the slow path bypasses the waiter queue for it too).
      uint64_t w = slot.word.load(wm::seq_cst);
      while (true) {
        if (w == 0 || !Covers(FpMode(w), mode)) return false;  // slow path
        if (slot.word.compare_exchange_weak(w, w + kFpCountOne,
                                            wm::seq_cst)) {
          stats_.fastpath_grants.Add();
          t.NoteFastpath(resource, FpMode(w));
          return true;
        }
      }
    }
    if (free_slot == nullptr && owner == kInvalidTxn) free_slot = &slot;
  }
  if (free_slot == nullptr) return false;  // slots saturated: slow path

  TxnId expected = kInvalidTxn;
  // Order-weakening mutation point: the claim must sit in the seq_cst
  // total order for the Dekker-style argument below — relaxed, a
  // mutex-side slot scan may legally read the stale empty slot
  // (codlock_wmc: summary_publish_validate, wm.slot-cas-relaxed).
  if (!free_slot->txn.compare_exchange_strong(
          expected, txn,
          mutation::WeakenedOrder(mutation::Mutant::kWmSlotCasRelaxed,
                                  wm::seq_cst))) {
    return false;  // lost the slot race; slow path rather than re-scan
  }
  free_slot->word.store(FpWord(mode, 1), wm::seq_cst);
  if (validate) {
    // Revalidate: a shard-mutex mutation between the two reads bumped the
    // sequence.  Mutators go odd *before* their compatibility scan, so in
    // the seq_cst total order either they see our claim or we see their
    // bump — never neither.
    const uint64_t s2 = entry->summary.load(summary_mo);
    if (s2 != s1) {
      UndoFastpathClaim(shard, *entry, *free_slot, /*fresh_claim=*/true);
      stats_.fastpath_failures.Add();
      return false;
    }
  }
  stats_.fastpath_grants.Add();
  NoteHolderAdded(stats_);
  t.NoteFastpath(resource, mode);
  AddHeld(t, {&resource, 1});
  return true;
}

void LockManager::UndoFastpathClaim(Shard& shard, Entry& entry, FpSlot& slot,
                                    bool fresh_claim) {
  slot.word.store(0, wm::seq_cst);
  if (fresh_claim) slot.txn.store(kInvalidTxn, wm::seq_cst);
  // A mutex-side grant decision may have counted the transient claim as a
  // holder (and parked a waiter against it), and the entry may now be
  // empty.  Repair under the mutex so no wakeup is lost.
  MutexLock lk(shard.mu);
  if ((entry.summary.load(wm::relaxed) & kSummaryRetired) != 0) {
    return;  // already unlinked; nothing to repair
  }
  EntryMutation em(entry);
  GrantWaiters(shard, entry);
  MaybeRetireEntry(shard, entry);
}

LockManager::FpRelease LockManager::FastpathRelease(TxnId txn,
                                                    ResourceId resource) {
  ebr::Reclaimer::Guard guard(ebr::Global());
  if (!guard.ok()) return FpRelease::kNoSlot;
  Shard& shard = ShardFor(resource);
  Entry* entry = FindEntry(shard, resource);
  if (entry == nullptr) return FpRelease::kNoSlot;
  for (FpSlot& slot : entry->fp) {
    if (slot.txn.load(wm::seq_cst) != txn) continue;
    uint64_t w = slot.word.load(wm::seq_cst);
    while (true) {
      if (w == 0) return FpRelease::kNoSlot;  // purged concurrently
      const uint64_t next = (w >> 8) > 1 ? w - kFpCountOne : 0;
      if (!slot.word.compare_exchange_weak(w, next,
                                           wm::seq_cst)) {
        continue;
      }
      stats_.releases.Add();
      if (next != 0) return FpRelease::kReleased;
      slot.txn.store(kInvalidTxn, wm::seq_cst);
      stats_.held_locks.fetch_sub(1, wm::relaxed);
      // Freed the last count.  If a waiter parked against this hold — or a
      // grant decision that could park one is in flight (odd sequence) —
      // repair under the mutex; otherwise an X waiter blocked only by our
      // S would sleep to its deadline.  Also repair when the entry is
      // plausibly empty, so it gets retired rather than lingering.
      const uint64_t s = entry->summary.load(wm::seq_cst);
      bool occupied = false;
      for (const FpSlot& other : entry->fp) {
        if (&other == &slot) continue;
        if (other.txn.load(wm::seq_cst) != kInvalidTxn ||
            other.word.load(wm::seq_cst) != 0) {
          occupied = true;
          break;
        }
      }
      const bool maybe_empty = (s >> kSummaryMaskShift) == 0 && !occupied;
      if ((s & 1) != 0 || (s & kSummaryWaiters) != 0 ||
          ((s & kSummaryRetired) == 0 && maybe_empty)) {
        MutexLock lk(shard.mu);
        if ((entry->summary.load(wm::relaxed) &
             kSummaryRetired) == 0) {
          EntryMutation em(*entry);
          GrantWaiters(shard, *entry);
          MaybeRetireEntry(shard, *entry);
        }
      }
      return FpRelease::kReleasedLast;
    }
  }
  return FpRelease::kNoSlot;
}

// ---- Acquire -------------------------------------------------------------

Status LockManager::Acquire(TxnId txn, ResourceId resource, LockMode mode,
                            const AcquireOptions& options, TxnLocks* locks) {
  if (txn == kInvalidTxn) {
    return Status::InvalidArgument("invalid transaction id");
  }
  if (mode == LockMode::kNL) {
    return Status::InvalidArgument("cannot acquire mode NL");
  }
  // Fast path: a covered re-acquisition is answered from the transaction's
  // own cache without touching any mutex.  A wound invalidates the cache
  // (see Wound), so a wounded transaction always falls through to the
  // slow path and fails there.
  // A hit pays exactly one atomic RMW: cache_hits.  Total requests =
  // requests + cache_hits and total grants = grants + cache_hits (see
  // metrics.h).
  if (locks != nullptr &&
      locks->TryHit(resource, mode, options.duration == LockDuration::kLong)) {
    stats_.cache_hits.Add();
    return Status::OK();
  }
  stats_.requests.Add();

  std::shared_ptr<TxnLocks> by_id;
  TxnLocks* t = locks;
  CODLOCK_RETURN_IF_ERROR(Resolve(txn, t, by_id));
  // Optimistic fast path: a short S/IS request against a settled entry is
  // granted by claiming a fast-path slot, seqlock-validated — no shard
  // mutex.  Gated on a handle, whose cache slot tells a release to probe
  // the fast-path slot.
  if (options_.enable_fastpath && locks != nullptr &&
      options.duration == LockDuration::kShort && FastpathEligible(mode) &&
      TryFastpathAcquire(*t, resource, mode)) {
    stats_.grants.Add();
    stats_.immediate_grants.Add();
    return Status::OK();
  }
  return AcquireSlow(*t, locks != nullptr, resource, mode, options);
}

Status LockManager::AcquireSlow(TxnLocks& t, bool cached, ResourceId resource,
                                LockMode mode, const AcquireOptions& options) {
  Shard& shard = ShardFor(resource);
  bool record_held = false;
  LockMode granted = LockMode::kNL;
  Status status;
  {
    MutexLock lk(shard.mu);
    status = AcquireLocked(shard, t, resource, mode, options, record_held,
                           granted);
  }
  if (status.ok()) {
    if (record_held) AddHeld(t, {&resource, 1});
    if (cached) {
      t.Note(resource, granted, options.duration == LockDuration::kLong);
    }
  }
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

  // Batched processing tracks path positions in 64-bit masks on the stack;
  // paths longer than that (never produced by the protocols — hierarchies
  // are ~4–13 levels) fall back to per-resource acquisition.
  constexpr size_t kMaxBatch = 64;
  if (n > kMaxBatch) {
    for (size_t i = 0; i < n; ++i) {
      CODLOCK_RETURN_IF_ERROR(Acquire(txn, path[i], mode_of(i), options,
                                      locks));
    }
    return Status::OK();
  }

  // Pass 1: answer covered re-acquisitions from the cache (no mutex).
  uint32_t shard_of[kMaxBatch];
  uint64_t todo_mask = 0;
  uint64_t hit_mask = 0;
  for (size_t i = 0; i < n; ++i) {
    if (locks != nullptr && locks->TryHit(path[i], mode_of(i), want_long)) {
      hit_mask |= uint64_t{1} << i;
      continue;
    }
    shard_of[i] = static_cast<uint32_t>(ShardIndexFor(path[i]));
    todo_mask |= uint64_t{1} << i;
  }
  // Total requests = requests + cache_hits (see metrics.h): one batched
  // RMW per counter for the whole path.
  const uint64_t hits = static_cast<uint64_t>(std::popcount(hit_mask));
  if (hits != 0) stats_.cache_hits.Add(hits);
  if (n - hits != 0) stats_.requests.Add(n - hits);
  if (todo_mask == 0) return Status::OK();

  // Pass 1.5: optimistic fast path for shared-mode positions (an S leaf
  // makes the *whole* path eligible: IS prefix + S leaf).  Successes are
  // fully accounted inside TryFastpathAcquire except for the batched
  // grants counters below.
  uint64_t fp_mask = 0;
  if (options_.enable_fastpath && locks != nullptr && !want_long) {
    for (uint64_t scan = todo_mask; scan != 0; scan &= scan - 1) {
      const size_t i = static_cast<size_t>(std::countr_zero(scan));
      if (!FastpathEligible(mode_of(i))) continue;
      if (TryFastpathAcquire(*t, path[i], mode_of(i))) {
        fp_mask |= uint64_t{1} << i;
        todo_mask &= ~(uint64_t{1} << i);
      }
    }
  }

  // Pass 2: group by shard and visit each shard mutex once.  Immediate
  // grants may land out of path order; that is invisible to other
  // transactions (each grant only *adds* to this transaction's hold set)
  // and the root-to-leaf order is restored for anything that must wait.
  LockMode granted_of[kMaxBatch];
  ResourceId newly_held[kMaxBatch];
  size_t num_newly_held = 0;
  uint64_t granted_mask = 0;
  uint64_t deferred_mask = 0;
  for (uint64_t rest = todo_mask; rest != 0;) {
    const size_t first = static_cast<size_t>(std::countr_zero(rest));
    const uint32_t shard_idx = shard_of[first];
    Shard& shard = shards_[shard_idx];
    MutexLock lk(shard.mu);
    for (uint64_t scan = rest; scan != 0; scan &= scan - 1) {
      const size_t i = static_cast<size_t>(std::countr_zero(scan));
      if (shard_of[i] != shard_idx) continue;
      rest &= ~(uint64_t{1} << i);
      Entry& entry = EntryFor(shard, path[i]);
      bool record_held = false;
      LockMode granted = LockMode::kNL;
      bool ok;
      {
        EntryMutation em(entry);
        ok = TryGrantLocked(shard, entry, txn, mode_of(i), options, granted,
                            record_held);
      }
      if (ok) {
        granted_of[i] = granted;
        granted_mask |= uint64_t{1} << i;
        if (record_held) newly_held[num_newly_held++] = path[i];
      } else {
        deferred_mask |= uint64_t{1} << i;
      }
    }
  }
  const uint64_t immediate = static_cast<uint64_t>(std::popcount(granted_mask) +
                                                   std::popcount(fp_mask));
  if (immediate != 0) {
    stats_.grants.Add(immediate);
    stats_.immediate_grants.Add(immediate);
  }
  if (num_newly_held != 0) {
    NoteHoldersAdded(stats_, static_cast<int64_t>(num_newly_held));
  }

  // One held-list append for the whole batch.
  AddHeld(*t, std::span<const ResourceId>(newly_held, num_newly_held));
  if (locks != nullptr) {
    for (uint64_t scan = granted_mask; scan != 0; scan &= scan - 1) {
      const size_t i = static_cast<size_t>(std::countr_zero(scan));
      locks->Note(path[i], granted_of[i], want_long);
    }
  }

  // Pass 3: whatever conflicted is acquired blocking, in path order
  // (rule 5 root-to-leaf waiting semantics; ascending bits = path order).
  // A mid-path failure (timeout, deadlock, shed, injected fault) rolls
  // back every acquisition *this call* made — cache hits, fast-path and
  // immediate grants and blocking grants — leaf-to-root, so the failed
  // path leaves no new intention locks behind for the retry loop to trip
  // over.
  Status status;
  uint64_t blocking_done = 0;
  for (uint64_t scan = deferred_mask; scan != 0; scan &= scan - 1) {
    const size_t i = static_cast<size_t>(std::countr_zero(scan));
    if (fault::FireResult f = g_fault_acquire_path.Fire()) {
      status = fault::StatusFor(f, g_fault_acquire_path.name());
      break;
    }
    status = AcquireSlow(*t, locks != nullptr, path[i], mode_of(i), options);
    if (!status.ok()) break;
    blocking_done |= uint64_t{1} << i;
  }
  if (status.ok()) return Status::OK();

  const uint64_t undo = hit_mask | fp_mask | granted_mask | blocking_done;
  for (size_t i = n; i-- > 0;) {
    if ((undo & (uint64_t{1} << i)) == 0) continue;
    // Count-paired: a re-entrant acquisition merely drops back to its
    // previous count; a fresh grant disappears.  Mode upgrades from
    // conversions persist (safe — strictly stronger).
    Release(txn, path[i], locks);
  }
  return status;
}

// ---- Locked grant/wait machinery -----------------------------------------

bool LockManager::TryGrantLocked(Shard& shard, Entry& entry, TxnId txn,
                                 LockMode mode, const AcquireOptions& options,
                                 LockMode& granted, bool& record_held) {
  Holder* mine = FindHolder(entry, txn);

  // Re-entrant acquisition of a covered mode: bump the count.  The caller
  // accounts grants/immediate_grants (batched in AcquirePath).
  if (mine != nullptr && Covers(mine->mode, mode)) {
    mine->count++;
    if (options.duration == LockDuration::kLong) {
      mine->duration = LockDuration::kLong;
    }
    granted = mine->mode;
    return true;
  }

  const LockMode target = mine != nullptr ? Supremum(mine->mode, mode) : mode;
  const bool is_conversion = mine != nullptr;

  const bool queue_clear = [&] {
    if (is_conversion) return true;  // conversions jump the queue
    for (const auto& w : entry.waiters) {
      if (!w->granted &&
          w->killed.load(wm::relaxed) == KillReason::kNone) {
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
      entry.holders.push_back(Holder{txn, target, 1, options.duration});
      record_held = true;  // caller bumps the held-locks gauge
    }
    granted = target;
    return true;
  }
  return false;
}

Status LockManager::AcquireLocked(Shard& shard, const TxnLocks& t,
                                  ResourceId resource, LockMode mode,
                                  const AcquireOptions& options,
                                  bool& record_held, LockMode& granted) {
  const TxnId txn = t.id();
  Entry& entry = EntryFor(shard, resource);
  std::shared_ptr<WaiterState> waiter;
  LockMode target = mode;
  bool is_conversion = false;
  {
    // One seqlock window spans the grant decision *and* the enqueue: a
    // fast-path release racing our compatibility scan then sees an odd
    // sequence (or the published waiter flag) and repairs under the mutex,
    // so its wakeup cannot fall between our scan and our park.
    EntryMutation em(entry);
    if (TryGrantLocked(shard, entry, txn, mode, options, granted,
                       record_held)) {
      stats_.grants.Add();
      stats_.immediate_grants.Add();
      if (record_held) NoteHolderAdded(stats_);
      return Status::OK();
    }

    const Holder* mine = FindHolder(entry, txn);
    target = mine != nullptr ? Supremum(mine->mode, mode) : mode;
    is_conversion = mine != nullptr;

    if (!options.wait) {
      MaybeRetireEntry(shard, entry);
      return Status::Conflict("lock " + std::string(LockModeName(mode)) +
                              " on " + resource.ToString() +
                              " conflicts and wait=false");
    }

    // Crash/restart drain: no new waiter may park once draining started.
    if (draining_.load(wm::acquire)) {
      MaybeRetireEntry(shard, entry);
      return Status::Aborted("lock manager is draining for shutdown");
    }

    // Overload shedding: beyond the blocked-waiter cap, rejecting is
    // kinder than queuing — the convoy would only deepen.  kShed tells the
    // caller "retry with backoff", unlike kConflict/kTimeout.
    if (options_.max_blocked_waiters != 0 &&
        blocked_waiters_.load(wm::acquire) >=
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

    // Enqueue; the window's closing store publishes the has-waiters flag.
    waiter = std::make_shared<WaiterState>();
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
    blocked_waiters_.fetch_add(1, wm::acq_rel);
  }

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
    blocked_waiters_.fetch_sub(1, wm::acq_rel);
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
          blocked_waiters_.fetch_sub(1, wm::acq_rel);
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
            blocked_waiters_.fetch_sub(1, wm::acq_rel);
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
          waiter->killed.store(KillReason::kWounded, wm::relaxed);
        }
        break;
      }
      case DeadlockPolicy::kTimeoutOnly:
        break;
    }

    auto wake_pred = [&] {
      return waiter->granted ||
             waiter->killed.load(wm::relaxed) !=
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
      blocked_waiters_.fetch_sub(1, wm::acq_rel);
      stats_.grants.Add();
      stats_.wait_ns.Record(waited.ElapsedNanos());
      if (!is_conversion) record_held = true;
      granted = target;
      return Status::OK();
    }
    KillReason reason = waiter->killed.load(wm::relaxed);
    if (reason != KillReason::kNone) {
      blocked_waiters_.fetch_sub(1, wm::acq_rel);
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
      blocked_waiters_.fetch_sub(1, wm::acq_rel);
      CleanupFailedWait(shard, entry, txn, waiter.get(), waited);
      stats_.timeouts.Add();
      return Status::Timeout("lock wait on " + resource.ToString() +
                             " exceeded " + std::to_string(timeout_ms) + "ms");
    }
    // Spurious wake-up or waits-for refresh: loop.
  }
}

void LockManager::CleanupFailedWait(Shard& shard, Entry& entry, TxnId txn,
                                    const WaiterState* waiter,
                                    const Stopwatch& waited) {
  {
    EntryMutation em(entry);
    EraseWaiter(shard, entry, waiter);
    // Our queue slot may have been the only thing blocking those behind us.
    GrantWaiters(shard, entry);
    MaybeRetireEntry(shard, entry);
  }
  wfg_.Remove(txn);
  stats_.wait_ns.Record(waited.ElapsedNanos());
}

// ---- Release -------------------------------------------------------------

Status LockManager::Release(TxnId txn, ResourceId resource,
                            TxnLocks* locks) {
  // Fast path: the matching acquisition never reached the shard either.
  if (locks != nullptr && locks->ConsumeRelease(resource)) {
    stats_.releases.Add();
    return Status::OK();
  }
  // Optimistic fast path: release a fast-path slot count without the
  // mutex.  The cache slot says whether a fast-path slot may back this
  // resource (after an invalidation the probe runs conservatively).
  // Fast-path grants are made only through a handle; an id-keyed release
  // takes the mutex path, which releases fast-path slots too.
  if (options_.enable_fastpath && locks != nullptr &&
      locks->MaybeFastpathHeld(resource)) {
    switch (FastpathRelease(txn, resource)) {
      case FpRelease::kReleased:
        return Status::OK();
      case FpRelease::kReleasedLast:
        // The slot is gone, and with it its held-list row.  A cached mode
        // may have been backed by it alone, so drop that too (safe: a
        // vector-side mode still held is re-noted on its next use).
        locks->Forget(resource);
        locks->Erase(resource);
        return Status::OK();
      case FpRelease::kNoSlot:
        break;
    }
  }
  Shard& shard = ShardFor(resource);
  bool forget = false;
  Status status = [&]() -> Status {
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, resource);
    if (e == nullptr) {
      return Status::NotFound("no lock entry for " + resource.ToString());
    }
    Entry& entry = *e;
    EntryMutation em(entry);
    for (size_t i = 0; i < entry.holders.size(); ++i) {
      if (entry.holders[i].txn != txn) continue;
      stats_.releases.Add();
      if (--entry.holders[i].count > 0) {
        return Status::OK();
      }
      entry.holders.erase(entry.holders.begin() + static_cast<long>(i));
      stats_.held_locks.fetch_sub(1, wm::relaxed);
      GrantWaiters(shard, entry);
      MaybeRetireEntry(shard, entry);
      forget = true;
      return Status::OK();
    }
    // Fast-path slot fallback: reached when the lock-free probe was
    // skipped or failed (id-keyed release, EBR registration exhausted).
    // Safe under the mutex: the owner's lock-free ops are CAS-based, so
    // this decrement linearizes against them.
    for (FpSlot& slot : entry.fp) {
      if (slot.txn.load(wm::seq_cst) != txn) continue;
      uint64_t w = slot.word.load(wm::seq_cst);
      while (w != 0) {
        const uint64_t next = (w >> 8) > 1 ? w - kFpCountOne : 0;
        if (!slot.word.compare_exchange_weak(w, next,
                                             wm::seq_cst)) {
          continue;
        }
        stats_.releases.Add();
        if (next == 0) {
          slot.txn.store(kInvalidTxn, wm::seq_cst);
          stats_.held_locks.fetch_sub(1, wm::relaxed);
          GrantWaiters(shard, entry);
          MaybeRetireEntry(shard, entry);
          forget = true;
        }
        return Status::OK();
      }
    }
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " holds no lock on " + resource.ToString());
  }();
  if (forget) {
    // One representation of the hold is gone: drop its held-list row, and
    // no cached mode may survive it.
    if (locks != nullptr) {
      locks->Forget(resource);
      locks->Erase(resource);
    } else if (std::shared_ptr<TxnLocks> t = Registered(txn)) {
      t->Forget(resource);
      t->Invalidate();
    }
  }
  return status;
}

size_t LockManager::ReleaseAll(TxnId txn) {
  // EOT: End() invalidates the cache before the locks disappear and hands
  // over the held list; a later acquire through the handle re-begins it.
  const std::vector<ResourceId> held = txns_.With(txn, [txn](auto& map) {
    std::vector<ResourceId> out;
    auto it = map.find(txn);
    if (it == map.end()) return out;
    out = it->second->End();
    map.erase(it);
    return out;
  });
  // Visit each shard once: group the held set by shard index, hashing each
  // resource a single time.
  std::vector<std::pair<uint32_t, ResourceId>> keyed;
  keyed.reserve(held.size());
  for (const ResourceId& r : held) {
    keyed.emplace_back(static_cast<uint32_t>(ShardIndexFor(r)), r);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t released = 0;
  for (size_t i = 0; i < keyed.size();) {
    const uint32_t shard_idx = keyed[i].first;
    Shard& shard = shards_[shard_idx];
    MutexLock lk(shard.mu);
    for (; i < keyed.size() && keyed[i].first == shard_idx; ++i) {
      Entry* e = FindEntry(shard, keyed[i].second);
      if (e == nullptr) continue;
      Entry& entry = *e;
      EntryMutation em(entry);
      bool changed = false;
      for (size_t h = 0; h < entry.holders.size(); ++h) {
        if (entry.holders[h].txn != txn) continue;
        entry.holders.erase(entry.holders.begin() + static_cast<long>(h));
        ++released;
        changed = true;
        break;
      }
      // Purge any fast-path slot of this transaction as well; the
      // exchange linearizes against the owner's CAS-based count updates.
      for (FpSlot& slot : entry.fp) {
        if (slot.txn.load(wm::seq_cst) != txn) continue;
        const uint64_t w = slot.word.exchange(0, wm::seq_cst);
        slot.txn.store(kInvalidTxn, wm::seq_cst);
        if (w != 0) {
          ++released;
          changed = true;
        }
      }
      if (changed) {
        GrantWaiters(shard, entry);
        MaybeRetireEntry(shard, entry);
      }
    }
  }
  // One RMW per counter for the whole transaction.
  if (released != 0) {
    stats_.held_locks.fetch_sub(static_cast<int64_t>(released),
                                wm::relaxed);
    stats_.releases.Add(released);
  }
  return released;
}

size_t LockManager::DrainForShutdown() {
  // From here on AcquireLocked refuses to park new waiters (they fail with
  // kAborted before enqueuing) and the optimistic fast path stands down.
  draining_.store(true, wm::release);
  size_t killed = 0;
  for (Shard& shard : shards_) {
    MutexLock lk(shard.mu);
    for (auto& head : shard.buckets) {
      for (Entry* e = head.load(wm::relaxed); e != nullptr;
           e = e->next.load(wm::relaxed)) {
        for (auto& w : e->waiters) {
          if (w->granted) continue;
          KillReason expected = KillReason::kNone;
          if (w->killed.compare_exchange_strong(expected,
                                                KillReason::kShutdown,
                                                wm::relaxed)) {
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
  while (blocked_waiters_.load(wm::acquire) != 0) {
    std::this_thread::yield();
  }
  return killed;
}

Status LockManager::Downgrade(TxnId txn, ResourceId resource, LockMode mode,
                              TxnLocks* locks) {
  Shard& shard = ShardFor(resource);
  Status status = [&]() -> Status {
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, resource);
    if (e == nullptr) {
      return Status::NotFound("no lock entry for " + resource.ToString());
    }
    Entry& entry = *e;
    EntryMutation em(entry);
    for (Holder& h : entry.holders) {
      if (h.txn != txn) continue;
      if (!Covers(h.mode, mode)) {
        return Status::InvalidArgument(
            "cannot downgrade " + std::string(LockModeName(h.mode)) + " to " +
            std::string(LockModeName(mode)));
      }
      h.mode = mode;
      // The narrower mode may unblock queued waiters.
      GrantWaiters(shard, entry);
      return Status::OK();
    }
    // Fast-path-only hold: rewrite the slot's mode in place.
    for (FpSlot& slot : entry.fp) {
      if (slot.txn.load(wm::seq_cst) != txn) continue;
      uint64_t w = slot.word.load(wm::seq_cst);
      while (w != 0) {
        if (!Covers(FpMode(w), mode)) {
          return Status::InvalidArgument(
              "cannot downgrade " + std::string(LockModeName(FpMode(w))) +
              " to " + std::string(LockModeName(mode)));
        }
        if (slot.word.compare_exchange_weak(w, FpWord(mode, w >> 8),
                                            wm::seq_cst)) {
          GrantWaiters(shard, entry);
          return Status::OK();
        }
      }
    }
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " holds no lock on " + resource.ToString());
  }();
  if (status.ok()) {
    // The held mode shrank: a cached (stronger) mode must not survive.
    if (locks != nullptr) {
      locks->Erase(resource);
    } else if (std::shared_ptr<TxnLocks> t = Registered(txn)) {
      t->Invalidate();
    }
  }
  return status;
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
  for (const FpSlot& slot : entry.fp) {
    if (slot.txn.load(wm::seq_cst) != txn) continue;
    const uint64_t w = slot.word.load(wm::seq_cst);
    if (w != 0) held.mode = Supremum(held.mode, FpMode(w));
  }
  return held;
}

LockMode LockManager::HeldMode(TxnId txn, ResourceId resource) const {
  Shard& shard = ShardFor(resource);
  MutexLock lk(shard.mu);
  Entry* e = FindEntry(shard, resource);
  return e == nullptr ? LockMode::kNL : HoldOf(*e, txn).mode;
}

LockMode LockManager::GroupMode(ResourceId resource) const {
  Shard& shard = ShardFor(resource);
  MutexLock lk(shard.mu);
  Entry* e = FindEntry(shard, resource);
  if (e == nullptr) return LockMode::kNL;
  LockMode m = LockMode::kNL;
  for (const Holder& h : e->holders) m = Supremum(m, h.mode);
  for (const FpSlot& slot : e->fp) {
    if (slot.txn.load(wm::seq_cst) == kInvalidTxn) continue;
    const uint64_t w = slot.word.load(wm::seq_cst);
    if (w != 0) m = Supremum(m, FpMode(w));
  }
  return m;
}

std::vector<HeldLock> LockManager::LocksOf(TxnId txn) const {
  const std::shared_ptr<TxnLocks> t = Registered(txn);
  if (t == nullptr) return {};
  std::vector<ResourceId> held = t->Held();
  std::vector<HeldLock> out;
  out.reserve(held.size());
  std::unordered_set<ResourceId, ResourceIdHash> seen;
  for (const ResourceId& resource : held) {
    // A vector holder and a fast-path slot are two rows of one resource.
    if (!seen.insert(resource).second) continue;
    Shard& shard = ShardFor(resource);
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, resource);
    if (e == nullptr) continue;
    const HeldLock h = HoldOf(*e, txn);
    if (h.mode != LockMode::kNL) out.push_back(h);
  }
  return out;
}

size_t LockManager::NumTxns() const { return txns_.Size(); }

size_t LockManager::NumEntries() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lk(shard.mu);
    for (const auto& head : shard.buckets) {
      for (Entry* e = head.load(wm::relaxed); e != nullptr;
           e = e->next.load(wm::relaxed)) {
        if (!e->holders.empty() || !e->waiters.empty() || !FpSlotsEmpty(*e)) {
          ++n;
        }
      }
    }
  }
  return n;
}

std::vector<LongLockRecord> LockManager::SnapshotLongLocks() const {
  std::vector<LongLockRecord> out;
  for (const Shard& shard : shards_) {
    MutexLock lk(shard.mu);
    for (const auto& head : shard.buckets) {
      for (Entry* e = head.load(wm::relaxed); e != nullptr;
           e = e->next.load(wm::relaxed)) {
        // Fast-path slots never contribute: those grants are always short.
        for (const Holder& h : e->holders) {
          if (h.duration == LockDuration::kLong) {
            out.push_back(LongLockRecord{h.txn, e->res, h.mode});
          }
        }
      }
    }
  }
  return out;
}

std::vector<LongLockRecord> LockManager::SnapshotAllLocks() const {
  std::vector<LongLockRecord> out;
  for (const Shard& shard : shards_) {
    MutexLock lk(shard.mu);
    for (const auto& head : shard.buckets) {
      for (Entry* e = head.load(wm::relaxed); e != nullptr;
           e = e->next.load(wm::relaxed)) {
        const size_t first_row = out.size();
        for (const Holder& h : e->holders) {
          out.push_back(LongLockRecord{h.txn, e->res, h.mode});
        }
        // Merge fast-path slots: a transaction with both a vector row and
        // a slot on one entry is reported once, at the supremum.
        for (const FpSlot& slot : e->fp) {
          const TxnId t = slot.txn.load(wm::seq_cst);
          if (t == kInvalidTxn) continue;
          const uint64_t w = slot.word.load(wm::seq_cst);
          if (w == 0) continue;
          bool merged = false;
          for (size_t r = first_row; r < out.size(); ++r) {
            if (out[r].txn == t) {
              out[r].mode = Supremum(out[r].mode, FpMode(w));
              merged = true;
              break;
            }
          }
          if (!merged) out.push_back(LongLockRecord{t, e->res, FpMode(w)});
        }
      }
    }
  }
  return out;
}

Status LockManager::RestoreLongLocks(
    const std::vector<LongLockRecord>& records) {
  // Pass 1 — validate without mutating: a record conflicts when any
  // *other* transaction already holds an incompatible mode (e.g. a short
  // lock taken before recovery ran).  All-or-nothing: one conflict and
  // nothing is installed, so a failed restore never leaves a half-adopted
  // lock table behind.
  for (const LongLockRecord& rec : records) {
    if (rec.txn == kInvalidTxn) {
      return Status::InvalidArgument("long-lock record with invalid txn");
    }
    Shard& shard = ShardFor(rec.resource);
    MutexLock lk(shard.mu);
    Entry* e = FindEntry(shard, rec.resource);
    if (e == nullptr) continue;
    if (!CompatibleWithHolders(shard, *e, rec.txn, rec.mode)) {
      return Status::Internal("long-lock restore conflict on " +
                              rec.resource.ToString() + ": txn " +
                              std::to_string(rec.txn) + " wants " +
                              std::string(LockModeName(rec.mode)) +
                              " against an incompatible holder");
    }
  }

  // Pass 2 — install.  Duplicate records for one (txn, resource) merge to
  // the supremum mode.  Runs during recovery quiescence, so the validated
  // facts still hold.
  for (const LongLockRecord& rec : records) {
    Shard& shard = ShardFor(rec.resource);
    bool record_held = false;
    {
      MutexLock lk(shard.mu);
      Entry& entry = EntryFor(shard, rec.resource);
      EntryMutation em(entry);
      if (Holder* mine = FindHolder(entry, rec.txn)) {
        mine->mode = Supremum(mine->mode, rec.mode);
        mine->duration = LockDuration::kLong;
      } else {
        entry.holders.push_back(
            Holder{rec.txn, rec.mode, 1, LockDuration::kLong});
        NoteHolderAdded(stats_);
        record_held = true;
      }
    }
    if (record_held) AddHeld(*Begin(rec.txn), {&rec.resource, 1});
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

  std::vector<TxnId> cycle;
  if (!FindCycle(self, &cycle)) return kInvalidTxn;

  // Victim selection: the youngest transaction in the cycle (largest id —
  // ids are assigned monotonically), which has done the least work.
  TxnId victim = *std::max_element(cycle.begin(), cycle.end());
  if (victim != self) {
    auto it = waiting_.find(victim);
    if (it == waiting_.end()) {
      // Should be impossible (all cycle members wait); fall back to self.
      victim = self;
    } else {
      it->second.waiter->killed.store(KillReason::kDeadlockVictim,
                                      wm::relaxed);
      it->second.waiter->cv.NotifyAll();
    }
  }
  return victim;
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
  it->second.waiter->killed.store(reason, wm::relaxed);
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
        it->second.waiter->killed.load(wm::relaxed) !=
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
