#include "txn/txn_manager.h"

#include "fault/fault_injector.h"

namespace codlock::txn {

namespace {
// Crash at end-of-transaction, *after* the state flip but before any lock
// is released: the transaction's locks stay behind exactly as a process
// death mid-EOT would leave them.  The crashpoint sweep asserts that a
// restart reaps them.
fault::FaultPoint g_fault_finish_crash{"txn/finish-crash",
                                       fault::FaultKind::kCrash};
}  // namespace

TxnManager::~TxnManager() {
  MutexLock lk(mu_);
  for (const auto& [id, txn] : txns_) lock_manager_->DetachCache(id);
}

Transaction* TxnManager::Begin(authz::UserId user, TxnKind kind) {
  TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_shared<Transaction>(id, user, kind);
  Transaction* raw = txn.get();
  lock_manager_->AttachCache(id, &raw->lock_cache());
  MutexLock lk(mu_);
  txns_.emplace(id, std::move(txn));
  return raw;
}

Transaction* TxnManager::Adopt(TxnId id, authz::UserId user, TxnKind kind) {
  auto txn = std::make_shared<Transaction>(id, user, kind);
  Transaction* raw = txn.get();
  lock_manager_->AttachCache(id, &raw->lock_cache());
  MutexLock lk(mu_);
  // Keep future ids younger than every adopted id.
  TxnId next = next_id_.load(std::memory_order_relaxed);
  while (next <= id && !next_id_.compare_exchange_weak(
                           next, id + 1, std::memory_order_relaxed)) {
  }
  txns_[id] = std::move(txn);
  return raw;
}

void TxnManager::ReserveIds(TxnId floor) {
  TxnId next = next_id_.load(std::memory_order_relaxed);
  while (next < floor && !next_id_.compare_exchange_weak(
                             next, floor, std::memory_order_relaxed)) {
  }
}

Status TxnManager::Finish(Transaction* txn, TxnState final_state) {
  if (txn == nullptr) return Status::InvalidArgument("null transaction");
  TxnState expected = TxnState::kActive;
  if (!txn->state_.compare_exchange_strong(expected, final_state,
                                           std::memory_order_acq_rel)) {
    return Status::FailedPrecondition(
        "transaction " + std::to_string(txn->id()) + " is not active");
  }
  if (fault::FireResult f = g_fault_finish_crash.Fire()) {
    // Simulated process death mid-EOT: no undo, no release, no detach.
    return fault::StatusFor(f, "txn/finish-crash");
  }
  Status undo_status;
  if (undo_log_ != nullptr && store_ != nullptr) {
    if (final_state == TxnState::kAborted) {
      // Undo before releasing: the exclusive locks still protect the
      // before-images being written back.
      undo_status = undo_log_->Rollback(txn->id(), store_);
    } else {
      undo_log_->Discard(txn->id());
    }
  }
  lock_manager_->ReleaseAll(txn->id());
  // EOT: no further acquisitions may use this transaction's cache, so the
  // registration can go (ReleaseAll already invalidated the cache).
  lock_manager_->DetachCache(txn->id());
  return undo_status;
}

Status TxnManager::Commit(Transaction* txn) {
  return Finish(txn, TxnState::kCommitted);
}

Status TxnManager::Abort(Transaction* txn) {
  return Finish(txn, TxnState::kAborted);
}

Status TxnManager::Abort(Transaction* txn, const Status& cause) {
  LockStats& stats = lock_manager_->stats();
  if (cause.IsTimeout()) {
    stats.aborts_timeout.Add();
  } else if (cause.IsDeadlock() || cause.IsAborted()) {
    // kAborted here is a wound-wait preemption — a prevented deadlock.
    stats.aborts_deadlock.Add();
  } else if (cause.IsShed()) {
    stats.aborts_shed.Add();
  }
  return Finish(txn, TxnState::kAborted);
}

Result<std::shared_ptr<Transaction>> TxnManager::Get(TxnId id) const {
  MutexLock lk(mu_);
  auto it = txns_.find(id);
  if (it == txns_.end()) {
    return Status::NotFound("transaction " + std::to_string(id) +
                            " not found");
  }
  return it->second;
}

void TxnManager::Forget(TxnId id) {
  lock_manager_->DetachCache(id);
  MutexLock lk(mu_);
  txns_.erase(id);
}

size_t TxnManager::ActiveCount() const {
  MutexLock lk(mu_);
  size_t n = 0;
  for (const auto& [id, txn] : txns_) {
    if (txn->active()) ++n;
  }
  return n;
}

}  // namespace codlock::txn
