#include "ws/server.h"

#include <chrono>
#include <thread>

#include "fault/fault_injector.h"
#include "util/rng.h"

namespace codlock::ws {

namespace {
// Server dies between the transaction outcome and its frame reaching
// stable storage (the classic window a crash-consistency story must
// close).
fault::FaultPoint g_fault_persist{"ws/persist", fault::FaultKind::kCrash};
// Sweep windows: the server dies right as it picks up an expired lease
// (before any reclamation effect) ...
fault::FaultPoint g_fault_lease_expire{"ws.lease.expire",
                                       fault::FaultKind::kCrash};
// ... or after reclaiming in memory (epochs bumped, locks released,
// lease dropped) but before the persist — restart must re-converge.
fault::FaultPoint g_fault_lease_reclaim{"ws.lease.reclaim",
                                        fault::FaultKind::kCrash};
// The server dies at the very moment a stale fencing epoch is detected;
// the fenced ticket must stay fenced across the restart.
fault::FaultPoint g_fault_checkin_fenced{"ws.checkin.fenced",
                                         fault::FaultKind::kCrash};
}  // namespace

Server::Server(const nf2::Catalog* catalog, nf2::InstanceStore* store,
               Options options)
    : catalog_(catalog),
      store_(store),
      options_(options),
      graph_(logra::LockGraph::Build(*catalog)),
      stats_(query::Statistics::Collect(*catalog, *store)),
      leases_(&clock_, options_.lease) {
  RebuildEngine();
  if (!options_.storage_path.empty()) {
    long_store_.SetBackingFile(options_.storage_path);
    // Continue an existing file's generation sequence (salvaging load; a
    // missing file just means a fresh store).
    long_store_.LoadFromFile(options_.storage_path);
  }
}

void Server::RebuildEngine() {
  // Destruction order matters on rebuild: every component below holds a
  // raw pointer into the current lock manager (the TxnManager's
  // destructor, for one, detaches its per-transaction lock caches from
  // it), so the dependents must die before the manager they point into.
  executor_.reset();
  planner_.reset();
  protocol_.reset();
  txns_.reset();
  lm_ = std::make_unique<lock::LockManager>(options_.lock_manager);
  txns_ = std::make_unique<txn::TxnManager>(lm_.get(), &undo_, store_);
  protocol_ = std::make_unique<proto::ComplexObjectProtocol>(
      &graph_, store_, lm_.get(), &authz_, options_.protocol);
  planner_ = std::make_unique<query::LockPlanner>(&graph_, catalog_, &stats_,
                                                  options_.planner);
  query::QueryExecutor::Options exec_opts;
  exec_opts.apply_writes = true;  // check-in applies workstation changes
  exec_opts.undo = &undo_;
  executor_ = std::make_unique<query::QueryExecutor>(
      &graph_, catalog_, store_, protocol_.get(), exec_opts);
}

std::string_view CheckOutModeName(CheckOutMode mode) {
  switch (mode) {
    case CheckOutMode::kExclusive:
      return "exclusive";
    case CheckOutMode::kShared:
      return "shared";
    case CheckOutMode::kDerive:
      return "derive";
  }
  return "?";
}

Result<CheckOutTicket> Server::CheckOut(authz::UserId user,
                                        const query::Query& query,
                                        CheckOutMode mode) {
  // Shared and derivation check-outs only ever read the original.
  query::Query checkout_query = query;
  if (mode != CheckOutMode::kExclusive) {
    checkout_query.kind = query::AccessKind::kRead;
  }
  Result<query::QueryPlan> plan = planner_->Plan(checkout_query);
  if (!plan.ok()) return plan.status();

  txn::Transaction* txn = txns_->Begin(user, txn::TxnKind::kLong);
  const lock::TxnId id = txn->id();
  Result<query::QueryResult> data =
      executor_->Execute(*txn, checkout_query, *plan);
  if (!data.ok()) {
    if (txns_->Abort(txn).ok()) txns_->Forget(id);
    return data.status();
  }
  {
    MutexLock lk(tickets_mu_);
    long_txn_users_[id] = user;
  }
  // Long locks must reach stable storage before the ticket exists: a
  // check-out whose locks were never persisted would not survive the very
  // crash it is supposed to survive, so a persist failure aborts it.
  if (Status persisted = PersistLongLocks(id); !persisted.ok()) {
    {
      MutexLock lk(tickets_mu_);
      long_txn_users_.erase(id);
    }
    if (txns_->Abort(txn).ok()) txns_->Forget(id);
    // Best effort: bring stable storage back in line with the abort (if
    // the fault cleared); a second failure changes nothing durable.
    PersistLongLocks(id);
    return persisted;
  }

  CheckOutTicket ticket;
  ticket.txn = id;
  ticket.user = user;
  ticket.mode = mode;
  ticket.query = query;
  ticket.data = *data;
  // Fencing token: the check-out's roots with their *current* epochs.
  // Epochs only move when locks are reclaimed, so concurrent shared
  // check-outs of the same object see the same epoch and never fence
  // each other.
  for (const lock::ResourceId& root : RootsOf(ticket.txn)) {
    ticket.fence.push_back({root, long_store_.FenceEpochOf(root)});
  }
  const LeaseRecord lease =
      leases_.Grant(ticket.txn, mode, ticket.fence);
  ticket.lease_deadline_ms = lease.deadline_ms;
  ticket.lease_grace_ms = options_.lease.grace_ms;
  lm_->stats().leases_granted.Add();
  return ticket;
}

std::vector<lock::ResourceId> Server::RootsOf(lock::TxnId txn) const {
  std::vector<lock::ResourceId> roots;
  for (const lock::HeldLock& held : lm_->LocksOf(txn)) {
    if (held.duration == lock::LockDuration::kLong &&
        !lock::IsIntention(held.mode)) {
      roots.push_back(held.resource);
    }
  }
  return roots;
}

Status Server::CheckFence(const CheckOutTicket& ticket) {
  for (const RootFence& f : ticket.fence) {
    const uint64_t current = long_store_.FenceEpochOf(f.root);
    if (current == f.epoch) continue;
    if (fault::FireResult fr = g_fault_checkin_fenced.Fire()) {
      return fault::StatusFor(fr, "ws.checkin.fenced");
    }
    lm_->stats().fenced_checkins.Add();
    return Status::Fenced("ticket of txn " + std::to_string(ticket.txn) +
                          " is fenced: root " + f.root.ToString() +
                          " was granted at epoch " + std::to_string(f.epoch) +
                          ", store is at epoch " + std::to_string(current));
  }
  return Status::OK();
}

Status Server::RenewLease(const CheckOutTicket& ticket) {
  CODLOCK_RETURN_IF_ERROR(CheckFence(ticket));
  CODLOCK_RETURN_IF_ERROR(leases_.Renew(ticket.txn));
  lm_->stats().leases_renewed.Add();
  return Status::OK();
}

Result<CheckOutTicket> Server::ResumeSession(const CheckOutTicket& ticket) {
  CODLOCK_RETURN_IF_ERROR(CheckFence(ticket));
  // Renewal doubles as the liveness gate: it fails once the lease is
  // past its grace window, orphaned, or already reclaimed.
  CODLOCK_RETURN_IF_ERROR(leases_.Renew(ticket.txn));
  lm_->stats().leases_renewed.Add();
  Result<std::shared_ptr<txn::Transaction>> txn = txns_->Get(ticket.txn);
  if (!txn.ok()) return txn.status();
  // Hand the workstation a fresh copy of its data (its private database
  // may not have survived whatever killed the session).  The long locks
  // are still held, so this read-only re-execution cannot block.
  query::Query reread = ticket.query;
  reread.kind = query::AccessKind::kRead;
  Result<query::QueryPlan> plan = planner_->Plan(reread);
  if (!plan.ok()) return plan.status();
  Result<query::QueryResult> data = executor_->Execute(**txn, reread, *plan);
  if (!data.ok()) return data.status();

  CheckOutTicket fresh = ticket;
  fresh.data = *data;
  Result<LeaseRecord> lease = leases_.Get(ticket.txn);
  if (lease.ok()) fresh.lease_deadline_ms = lease->deadline_ms;
  fresh.lease_grace_ms = options_.lease.grace_ms;
  return fresh;
}

size_t Server::SweepExpiredLeases() {
  // Lifecycle exclusion: a sweep must never interleave with
  // CrashAndRestart's engine teardown (see lifecycle_mu_ in server.h).
  MutexLock lifecycle(lifecycle_mu_);
  size_t reaped = 0;
  for (const LeaseRecord& rec : leases_.ExpiredBeyondGrace()) {
    if (fault::FireResult fr = g_fault_lease_expire.Fire()) {
      // Simulated death before any reclamation effect: nothing durable
      // has changed, the next sweep (or restart) sees the lease again.
      (void)fault::StatusFor(fr, "ws.lease.expire");
      return reaped;
    }
    lm_->stats().leases_expired.Add();

    if (rec.mode == CheckOutMode::kExclusive &&
        options_.lease.exclusive_policy == ExpiredExclusivePolicy::kOrphanHold) {
      // Keep the zombie's locks and its epochs: a late exclusive
      // check-in still succeeds, capacity stays stranded until an
      // operator (or the workstation) resolves it.
      leases_.MarkOrphaned(rec.txn);
      ++reaped;
      continue;
    }

    // Reclaim: fence first (in memory), then revoke.  The epoch bump and
    // the lock release reach stable storage in one frame below; a crash
    // in between is covered by the restart's orphan reaper, which
    // re-bumps epochs for every root it reaps.
    size_t released = 0;
    for (const lock::ResourceId& root : RootsOf(rec.txn)) {
      long_store_.BumpFenceEpoch(root);
      ++released;
    }
    lm_->stats().reclaimed_long_locks.Add(released);
    // Plain abort, no cause classification: a reclaim is not a deadlock
    // casualty — `leases_expired` is its counter.
    if (Result<std::shared_ptr<txn::Transaction>> txn = txns_->Get(rec.txn);
        txn.ok()) {
      if (txns_->Abort(txn->get()).ok()) txns_->Forget(rec.txn);
    } else {
      lm_->ReleaseAll(rec.txn);
    }
    // Drop the ticket's registration *before* persisting: if the persist
    // (or the process) dies here, restart recovery finds long locks with
    // no registered ticket and reaps them — same end state.
    {
      MutexLock lk(tickets_mu_);
      long_txn_users_.erase(rec.txn);
    }
    leases_.Drop(rec.txn);
    if (fault::FireResult fr = g_fault_lease_reclaim.Fire()) {
      // Simulated death after the in-memory reclaim, before the persist.
      (void)fault::StatusFor(fr, "ws.lease.reclaim");
      return reaped + 1;
    }
    PersistLongLocks(rec.txn);
    ++reaped;
  }
  return reaped;
}

Result<nf2::ObjectId> Server::CheckInDerived(const CheckOutTicket& ticket,
                                             const std::string& new_key,
                                             nf2::Value derived) {
  if (ticket.mode != CheckOutMode::kDerive) {
    return Status::FailedPrecondition(
        "CheckInDerived requires a derivation check-out");
  }
  // Fence before anything else: a reclaimed ticket must not insert.
  CODLOCK_RETURN_IF_ERROR(CheckFence(ticket));
  Result<std::shared_ptr<txn::Transaction>> txn = txns_->Get(ticket.txn);
  if (!txn.ok()) return txn.status();
  if (!(*txn)->active()) {
    return Status::FailedPrecondition("check-out transaction not active");
  }
  // Insert the derived version as a new complex object: lock the relation
  // in IX and the (future) object's slot via the relation-level insert —
  // the store validates, assigns fresh instance ids and indexes new_key.
  lock::AcquireOptions opts;
  opts.duration = lock::LockDuration::kLong;
  const logra::LockGraph& g = graph_;
  const nf2::RelationDef& rdef = catalog_->relation(ticket.query.relation);
  for (logra::NodeId node :
       {g.DatabaseNode(rdef.database), g.SegmentNode(rdef.segment),
        g.RelationNode(ticket.query.relation)}) {
    CODLOCK_RETURN_IF_ERROR(lm_->Acquire((*txn)->id(), {node, 0},
                                         lock::LockMode::kIX, opts));
  }
  // Make sure the derived object's references to common data are visible
  // before the object becomes reachable.
  CODLOCK_RETURN_IF_ERROR(protocol_->LockNewValueRefs(
      **txn, derived, lock::LockMode::kX));

  // The derived version carries the new key in its key attribute.
  if (rdef.key_attr != nf2::kInvalidAttr && derived.is_tuple()) {
    const nf2::AttrDef& root_def = catalog_->attr(rdef.root);
    for (size_t i = 0; i < root_def.children.size(); ++i) {
      if (root_def.children[i] == rdef.key_attr) {
        derived.children()[i].set_string(new_key);
        break;
      }
    }
  }
  Result<nf2::ObjectId> inserted =
      store_->Insert(ticket.query.relation, std::move(derived));
  if (!inserted.ok()) return inserted.status();

  CODLOCK_RETURN_IF_ERROR(txns_->Commit(txn->get()));
  {
    MutexLock lk(tickets_mu_);
    long_txn_users_.erase(ticket.txn);
  }
  leases_.Drop(ticket.txn);
  txns_->Forget(ticket.txn);
  // The commit stands; a persist failure means stable storage still names
  // the released locks.  Surface it — recovery reaps such orphans.
  CODLOCK_RETURN_IF_ERROR(PersistLongLocks(ticket.txn));
  return inserted;
}

Status Server::CheckIn(const CheckOutTicket& ticket) {
  // Fence before touching any data: a zombie whose locks were reclaimed
  // (and whose object may since have been re-granted and changed) must
  // fail here, deterministically, with kFenced.
  CODLOCK_RETURN_IF_ERROR(CheckFence(ticket));
  Result<std::shared_ptr<txn::Transaction>> txn = txns_->Get(ticket.txn);
  if (!txn.ok()) return txn.status();
  if (!(*txn)->active()) {
    return Status::FailedPrecondition("check-out transaction not active");
  }
  // Apply the workstation's changes to the central database.  All needed
  // locks are already held (they were acquired at check-out and survived
  // any crash), so this re-execution cannot block.  Shared/derivation
  // check-outs never write back in place.
  if (ticket.mode == CheckOutMode::kExclusive && ticket.query.is_write()) {
    Result<query::QueryPlan> plan = planner_->Plan(ticket.query);
    if (!plan.ok()) return plan.status();
    Result<query::QueryResult> applied =
        executor_->Execute(**txn, ticket.query, *plan);
    if (!applied.ok()) return applied.status();
  }
  CODLOCK_RETURN_IF_ERROR(txns_->Commit(txn->get()));
  {
    MutexLock lk(tickets_mu_);
    long_txn_users_.erase(ticket.txn);
  }
  leases_.Drop(ticket.txn);
  txns_->Forget(ticket.txn);
  return PersistLongLocks(ticket.txn);
}

Status Server::CancelCheckOut(const CheckOutTicket& ticket) {
  CODLOCK_RETURN_IF_ERROR(CheckFence(ticket));
  Result<std::shared_ptr<txn::Transaction>> txn = txns_->Get(ticket.txn);
  if (!txn.ok()) return txn.status();
  CODLOCK_RETURN_IF_ERROR(txns_->Abort(txn->get()));
  {
    MutexLock lk(tickets_mu_);
    long_txn_users_.erase(ticket.txn);
  }
  leases_.Drop(ticket.txn);
  txns_->Forget(ticket.txn);
  return PersistLongLocks(ticket.txn);
}

Status Server::PersistLongLocks(lock::TxnId txn) {
  if (fault::FireResult f = g_fault_persist.Fire()) {
    return fault::StatusFor(f, "ws/persist");
  }
  return long_store_.Append(txn, *lm_);
}

Status Server::CrashAndRestart() {
  // Lifecycle exclusion: an in-flight lease sweep finishes (or a pending
  // one waits for the rebuilt engine) before the teardown starts — a
  // sweep spanning the rebuild would release a dead engine's locks into
  // the new one (double release).
  MutexLock lifecycle(lifecycle_mu_);
  // Nobody may stay parked inside the dying lock manager: kill every
  // blocked waiter (their Acquire calls fail with kAborted) and wait for
  // them to unwind before tearing the engine down.
  lm_->DrainForShutdown();
  // Volatile state (the lock table, transaction registry, every *short*
  // lock and waiter) is lost; only the LongLockStore survives.
  RebuildEngine();
  if (const std::string path = long_store_.backing_file(); !path.empty()) {
    // Recover from disk, not from memory: what the crash left in the file
    // is the truth (salvaging load — corruption costs at most the torn
    // generation, never the recovery).
    Status load = long_store_.LoadFromFile(path);
    if (!load.ok() && !load.IsNotFound()) return load;
  }
  Status restored = long_store_.Restore(lm_.get());
  // New incarnation, new txn-id era: the store generation is durable and
  // bumped by every persisted check-out/check-in, so ids issued after
  // the restart can never alias a pre-crash ticket's id (a zombie
  // presenting a stale ticket must not act on someone else's
  // transaction).  Adoption below re-registers survivors under their
  // original (older-era) ids.
  txns_->ReserveIds((long_store_.generation() + 1) << 32);
  MutexLock lk(tickets_mu_);
  // Reap orphaned long locks: a crash between a commit/abort and its
  // persist leaves stable storage naming locks whose transaction no
  // longer has a ticket.  Nobody could ever release them — drop them
  // before adopting the live ones.  Reaping revokes locks a workstation
  // may still believe it holds, so every reaped root's fencing epoch is
  // bumped: this also re-fences a reclaim whose epoch bump died with the
  // crash before reaching stable storage (the locks it released are
  // still in the recovered generation, so they are reaped — and
  // re-fenced — here).
  bool reaped_any = false;
  for (const lock::LongLockRecord& rec : long_store_.records()) {
    if (long_txn_users_.find(rec.txn) != long_txn_users_.end()) continue;
    if (!lock::IsIntention(rec.mode)) {
      long_store_.BumpFenceEpoch(rec.resource);
    }
    lm_->ReleaseAll(rec.txn);
    leases_.Drop(rec.txn);
    reaped_any = true;
  }
  if (reaped_any) {
    // Make the reap (and its epoch bumps) durable immediately; a persist
    // failure here leaves the old generation, which the next restart
    // reaps to the same end state.
    Status saved = long_store_.Save(*lm_);
    if (restored.ok() && !saved.ok()) restored = saved;
  }
  for (const auto& [txn_id, user] : long_txn_users_) {
    txns_->Adopt(txn_id, user, txn::TxnKind::kLong);
  }
  // Surviving check-outs get a full renewal window: the outage must not
  // eat the workstations' grace budget.
  leases_.ReissueAll();
  return restored;
}

Result<query::QueryResult> Server::RunShortTxn(authz::UserId user,
                                               const query::Query& query) {
  Result<query::QueryPlan> plan = planner_->Plan(query);
  if (!plan.ok()) return plan.status();
  for (int attempt = 1;; ++attempt) {
    txn::Transaction* txn = txns_->Begin(user, txn::TxnKind::kShort);
    const lock::TxnId id = txn->id();
    Result<query::QueryResult> result = executor_->Execute(*txn, query, *plan);
    if (result.ok()) {
      CODLOCK_RETURN_IF_ERROR(txns_->Commit(txn));
      txns_->Forget(id);
      return result;
    }
    const Status failure = result.status();
    // Abort classifies the cause into stats.
    if (txns_->Abort(txn, failure).ok()) txns_->Forget(id);
    if (!options_.retry.ShouldRetry(failure, attempt)) return failure;
    lm_->stats().retries.Add();
    // Jitter is seeded from the aborted attempt's id: deterministic for a
    // deterministic schedule, distinct for concurrent victims.
    Rng rng(0x9E3779B97F4A7C15ULL ^ (id * 0xBF58476D1CE4E5B9ULL));
    const uint64_t backoff_us = options_.retry.BackoffUs(attempt, rng);
    if (backoff_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

size_t Server::ActiveLongTxns() const {
  MutexLock lk(tickets_mu_);
  return long_txn_users_.size();
}

std::vector<Server::LeaseView> Server::LeaseTable() const {
  std::vector<LeaseView> table;
  for (const LeaseRecord& rec : leases_.Snapshot()) {
    LeaseView row;
    row.txn = rec.txn;
    {
      MutexLock lk(tickets_mu_);
      auto it = long_txn_users_.find(rec.txn);
      if (it != long_txn_users_.end()) row.user = it->second;
    }
    row.mode = rec.mode;
    row.state = leases_.StateOf(rec);
    row.deadline_ms = rec.deadline_ms;
    row.renewals = rec.renewals;
    row.fence = rec.fence;
    for (const lock::HeldLock& held : lm_->LocksOf(rec.txn)) {
      if (held.duration == lock::LockDuration::kLong) {
        row.held.push_back(held.resource);
      }
    }
    table.push_back(std::move(row));
  }
  return table;
}

}  // namespace codlock::ws
