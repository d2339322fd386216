/// \file txn_manager.h
/// \brief Transactions and their lifecycle.
///
/// A transaction is "defined as widely accepted (cf. [Date85])" and the
/// system provides degree 3 of consistency [GLPT76]: all locks are held to
/// EOT (strict two-phase locking), so multiple reads of the same data
/// within one transaction yield the same result.
///
/// Two kinds of transactions (§1):
///  * **short** — conventional, centralized-DBMS transactions,
///  * **long**  — conversational (workstation–server) transactions whose
///    locks are long locks that survive crashes (check-out/check-in, §3.1).

#ifndef CODLOCK_TXN_TXN_MANAGER_H_
#define CODLOCK_TXN_TXN_MANAGER_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "authz/authz.h"
#include "lock/lock_manager.h"
#include "lock/txn_lock_cache.h"
#include "nf2/store.h"
#include "txn/undo_log.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace codlock::txn {

using lock::TxnId;

enum class TxnKind : uint8_t {
  kShort,  ///< conventional transaction; short locks
  kLong    ///< conversational/check-out transaction; long locks
};

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// \brief A transaction handle.
///
/// Owned by the `TxnManager`; the pointer `Begin` returns stays valid until
/// `Forget` (or manager destruction), a handle from `Get` for as long as
/// the caller keeps it.  All lock acquisitions of the transaction go
/// through a `LockProtocol` which records them in the lock manager under
/// this transaction's id.
class Transaction {
 public:
  Transaction(TxnId id, authz::UserId user, TxnKind kind)
      : id_(id), user_(user), kind_(kind) {}

  TxnId id() const { return id_; }
  authz::UserId user() const { return user_; }
  TxnKind kind() const { return kind_; }
  TxnState state() const { return state_.load(std::memory_order_acquire); }
  bool active() const { return state() == TxnState::kActive; }

  /// Lock duration for this transaction's locks.
  lock::LockDuration lock_duration() const {
    return kind_ == TxnKind::kLong ? lock::LockDuration::kLong
                                   : lock::LockDuration::kShort;
  }

  /// The transaction's held-lock cache (acquisition fast path).  The
  /// `TxnManager` attaches it to the lock manager at Begin/Adopt so that
  /// wounds and foreign releases invalidate it; protocols pass it to
  /// `LockManager::Acquire`/`AcquirePath`.  Owner-thread only (the thread
  /// driving this transaction's calls).
  lock::TxnLockCache& lock_cache() { return lock_cache_; }

 private:
  friend class TxnManager;

  TxnId id_;
  authz::UserId user_;
  TxnKind kind_;
  std::atomic<TxnState> state_{TxnState::kActive};
  lock::TxnLockCache lock_cache_;
};

/// \brief Creates, commits and aborts transactions; enforces strict 2PL by
/// releasing all locks only at EOT.
class TxnManager {
 public:
  /// \p undo_log and \p store are optional: when both are given, Abort
  /// rolls the transaction's data changes back (before releasing locks)
  /// and Commit discards its undo records.
  TxnManager(lock::LockManager* lock_manager, UndoLog* undo_log,
             nf2::InstanceStore* store)
      : lock_manager_(lock_manager), undo_log_(undo_log), store_(store) {}
  explicit TxnManager(lock::LockManager* lock_manager)
      : TxnManager(lock_manager, nullptr, nullptr) {}

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Detaches every live transaction's lock cache from the lock manager
  /// (the caches die with the transactions owned here).
  ~TxnManager();

  /// Starts a transaction for \p user.  Ids are monotonically increasing —
  /// a larger id is a younger transaction (deadlock victim order).
  Transaction* Begin(authz::UserId user, TxnKind kind = TxnKind::kShort);

  /// Re-registers a long transaction recovered after a crash under its
  /// original id (its long locks were re-installed from stable storage).
  Transaction* Adopt(TxnId id, authz::UserId user, TxnKind kind);

  /// Raises the id floor: every future `Begin` id is >= \p floor.  A
  /// rebuilt manager would otherwise restart at 1 and re-issue ids that
  /// pre-crash tickets still name — recovery derives a fresh era from
  /// the durable store generation so stale ids can never alias live
  /// transactions.  No-op when ids are already past the floor.
  void ReserveIds(TxnId floor);

  /// Commits: releases every lock of the transaction (degree 3: nothing was
  /// released before this point).
  Status Commit(Transaction* txn);

  /// Aborts: releases every lock.  Data rollback is the storage layer's
  /// concern and out of scope for the lock technique.
  Status Abort(Transaction* txn);

  /// Aborts and classifies \p cause into the lock manager's abort-by-cause
  /// counters (`aborts_timeout` / `aborts_deadlock` / `aborts_shed`);
  /// retry loops use this overload so operators can tell *why* work was
  /// lost, not just that it was.
  Status Abort(Transaction* txn, const Status& cause);

  /// Looks up a registered transaction by id.  The handle shares ownership,
  /// so a concurrent `Forget` (another caller finishing the same
  /// transaction) cannot free it under the caller.
  Result<std::shared_ptr<Transaction>> Get(TxnId id) const;

  /// Drops the bookkeeping for a finished transaction; `Get` returns
  /// NotFound afterwards.  Callers forget every transaction they finish,
  /// or the manager grows with every transaction ever begun.
  void Forget(TxnId id);

  /// Number of transactions in state Active.
  size_t ActiveCount() const;

  lock::LockManager& lock_manager() { return *lock_manager_; }

 private:
  Status Finish(Transaction* txn, TxnState final_state);

  lock::LockManager* lock_manager_;
  UndoLog* undo_log_ = nullptr;
  nf2::InstanceStore* store_ = nullptr;
  std::atomic<TxnId> next_id_{1};
  mutable Mutex mu_;
  std::unordered_map<TxnId, std::shared_ptr<Transaction>> txns_
      CODLOCK_GUARDED_BY(mu_);
};

}  // namespace codlock::txn

#endif  // CODLOCK_TXN_TXN_MANAGER_H_
