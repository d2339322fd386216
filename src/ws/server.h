/// \file server.h
/// \brief Workstation–server environment: check-out / check-in with long
/// locks surviving crashes.
///
/// §1/§3.1: "different users or user groups may check-out complex objects
/// of a central database onto workstations.  Data which are checked out
/// can be regarded (at least temporarily) as private, local databases.  A
/// check-in back into the central database may be done for data which have
/// been changed on a workstation." — and "long locks must survive system
/// shutdowns and system crashes."
///
/// The `Server` wires the whole stack (lock manager, transaction manager,
/// lock graph, the paper's protocol, planner, executor) over a shared
/// catalog + instance store, appends each check-out's, check-in's, cancel's
/// and reclaim's long-lock change to a `LongLockStore`, and can simulate a
/// crash: the volatile lock manager is rebuilt, short transactions lose
/// everything, long (conversational) transactions are recovered with their
/// locks intact.  Every finished transaction is forgotten by the
/// transaction manager, so a long-running server does not grow with the
/// number of sessions it has served.

#ifndef CODLOCK_WS_SERVER_H_
#define CODLOCK_WS_SERVER_H_

#include <memory>
#include <unordered_map>

#include "authz/authz.h"
#include "lock/long_lock_store.h"
#include "proto/co_protocol.h"
#include "query/executor.h"
#include "query/planner.h"
#include "txn/txn_manager.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/thread_annotations.h"
#include "ws/lease.h"

namespace codlock::ws {

/// How a workstation checks data out (§5 cites [LoPl83, KSUW85] for
/// special workstation–server lock modes; these are the three classic
/// check-out disciplines of design databases).
enum class CheckOutMode : uint8_t {
  /// Update-in-place: long X locks; check-in writes back.
  kExclusive,
  /// Read-only copy: long S locks; others may read concurrently.
  kShared,
  /// Derivation [KLMP84]: long S locks on the original; check-in creates
  /// a *new* complex object (a derived version) instead of modifying the
  /// original — many workstations can derive from the same object
  /// concurrently.
  kDerive,
};

std::string_view CheckOutModeName(CheckOutMode mode);

/// \brief Handle to a checked-out data set (a "private database" on a
/// workstation).
///
/// Besides the data, the ticket is the workstation's *liveness token*: it
/// names the lease deadline the workstation must renew against and carries
/// the fencing epochs of its checked-out roots.  Check-in, renewal and
/// session resume all present the ticket; a stale fencing epoch (the lease
/// was reclaimed, the data possibly re-granted) fails deterministically
/// with `StatusCode::kFenced`.
struct CheckOutTicket {
  lock::TxnId txn = lock::kInvalidTxn;
  authz::UserId user = authz::kInvalidUser;
  CheckOutMode mode = CheckOutMode::kExclusive;
  query::Query query;
  query::QueryResult data;  ///< what was copied to the workstation
  /// Virtual-clock lease deadline at grant; refreshed by `RenewLease` /
  /// `ResumeSession` (the returned ticket carries the new deadline).
  uint64_t lease_deadline_ms = 0;
  /// Reconnection window past the deadline (copied from the server's
  /// `LeaseOptions` so the workstation can pace its renewals).
  uint64_t lease_grace_ms = 0;
  /// Fencing token: checked-out roots with their grant-time epochs.
  std::vector<RootFence> fence;
};

/// \brief The central database server.
class Server {
 public:
  struct Options {
    query::LockPlanner::Options planner;
    proto::ComplexObjectProtocol::Options protocol;
    lock::LockManager::Options lock_manager;
    /// When non-empty, long locks are persisted to this file on every
    /// check-out/check-in (crash-consistent, see `LongLockStore`) and
    /// `CrashAndRestart` recovers from the *file* rather than from the
    /// in-memory store.  An existing file is loaded at construction so
    /// generations continue across server instances.
    std::string storage_path;
    /// Retry/backoff for `RunShortTxn`: deadlock victims, timeouts,
    /// wounds and shed requests are re-run transparently (the abort cause
    /// and each re-run are counted in the lock manager's stats).
    RetryPolicy retry;
    /// Lease duration / grace window / expired-exclusive policy for
    /// check-outs (virtual-clock driven; see `ws/lease.h`).
    LeaseOptions lease;
  };

  Server(const nf2::Catalog* catalog, nf2::InstanceStore* store,
         Options options);
  Server(const nf2::Catalog* catalog, nf2::InstanceStore* store)
      : Server(catalog, store, Options()) {}

  /// Checks out \p query's data for \p user under a *long* transaction.
  /// The acquired long locks are persisted to stable storage.
  /// `kExclusive` follows the query's declared access kind; `kShared` and
  /// `kDerive` force read (S) locks.
  Result<CheckOutTicket> CheckOut(authz::UserId user,
                                  const query::Query& query,
                                  CheckOutMode mode);
  Result<CheckOutTicket> CheckOut(authz::UserId user,
                                  const query::Query& query) {
    return CheckOut(user, query, CheckOutMode::kExclusive);
  }

  /// Checks in a `kDerive` ticket: inserts the workstation's derived
  /// version as a NEW complex object keyed \p new_key into the ticket's
  /// relation (the original stays untouched), then commits the long
  /// transaction.  \p derived must validate against the relation schema.
  Result<nf2::ObjectId> CheckInDerived(const CheckOutTicket& ticket,
                                       const std::string& new_key,
                                       nf2::Value derived);

  /// Checks the ticket's data back in: re-executes the query's writes on
  /// the central database (the workstation's changes), commits the long
  /// transaction and releases its locks.
  Status CheckIn(const CheckOutTicket& ticket);

  /// Abandons a check-out without applying changes.
  Status CancelCheckOut(const CheckOutTicket& ticket);

  /// Heartbeat: extends the ticket's lease to now + duration.  Succeeds
  /// while the lease is active or inside its grace window; fails with
  /// kFenced when the ticket's fencing epochs are stale (the lease was
  /// reclaimed and the data possibly re-granted), kFailedPrecondition
  /// when expired/orphaned, kNotFound when the lease is already gone.
  Status RenewLease(const CheckOutTicket& ticket);

  /// Session recovery: a workstation that lost contact (its own reboot, a
  /// partition, a server crash) presents its old ticket and — if the
  /// lease is still within deadline + grace and the fencing epochs still
  /// match — receives a fresh ticket with a renewed lease and a re-read
  /// copy of the data.  Past the grace window (or once fenced) the
  /// session is unrecoverable and the workstation must check out anew.
  Result<CheckOutTicket> ResumeSession(const CheckOutTicket& ticket);

  /// Reclamation sweep (steppable; drive the clock, then call this):
  /// every lease past deadline + grace is reaped — kShared/kDerive and
  /// (under kReclaimAbort) kExclusive check-outs have their long
  /// transactions aborted and long locks released, and the fencing epoch
  /// of each checked-out root is bumped and persisted so the zombie
  /// workstation can never check in; kExclusive under kOrphanHold is
  /// marked orphaned and keeps its locks.  Returns the number of leases
  /// reaped (orphaned ones count — their lease did end).
  size_t SweepExpiredLeases();

  /// Simulates a server crash + restart: blocked lock waits are drained
  /// (they fail with kAborted), the lock manager and transaction manager
  /// are rebuilt; short transactions are gone; long locks and their
  /// transactions are recovered from stable storage (the backing file
  /// when one is configured).  Recovered long locks whose transaction has
  /// no live check-out ticket are reaped — nobody could ever release
  /// them.  Returns the first recovery error (restore conflicts); the
  /// server is still usable, with whatever was recovered.
  Status CrashAndRestart();

  /// Runs a regular (short) transaction executing \p query.
  Result<query::QueryResult> RunShortTxn(authz::UserId user,
                                         const query::Query& query);

  lock::LockManager& lock_manager() { return *lm_; }
  txn::TxnManager& txn_manager() { return *txns_; }
  authz::AuthorizationManager& authorization() { return authz_; }
  const logra::LockGraph& graph() const { return graph_; }
  const lock::LongLockStore& stable_storage() const { return long_store_; }
  query::LockPlanner& planner() { return *planner_; }

  /// The lease subsystem's time source; tests/sims advance it manually.
  VirtualClock& clock() { return clock_; }
  const LeaseManager& leases() const { return leases_; }

  /// Number of live (recovered or active) long transactions.
  size_t ActiveLongTxns() const;

  /// One row of the lease table (`codlock_dbtool leases`).
  struct LeaseView {
    lock::TxnId txn = lock::kInvalidTxn;
    authz::UserId user = authz::kInvalidUser;
    CheckOutMode mode = CheckOutMode::kExclusive;
    LeaseState state = LeaseState::kActive;
    uint64_t deadline_ms = 0;
    uint64_t renewals = 0;
    std::vector<RootFence> fence;        ///< roots + granted epochs
    std::vector<lock::ResourceId> held;  ///< long locks currently held
  };

  /// Active check-out leases with their held long locks, ascending txn
  /// order (deterministic).
  std::vector<LeaseView> LeaseTable() const;

 private:
  void RebuildEngine();

  /// Makes \p txn's current long locks (none once it has finished) durable
  /// as one `LongLockStore::Append` frame built from `LocksOf(txn)` (fault
  /// point `ws/persist`).
  Status PersistLongLocks(lock::TxnId txn);

  /// Verifies the ticket's fencing epochs against stable storage.  Runs
  /// *first* in every ticket-presenting operation: a fenced ticket must
  /// fail before any lock or data is touched.  Fires `ws.checkin.fenced`
  /// and counts `fenced_checkins` on mismatch.
  Status CheckFence(const CheckOutTicket& ticket);

  /// The check-out's root resources: its long locks held in non-intention
  /// modes (S/SIX/X) — what the fencing epochs key on.
  std::vector<lock::ResourceId> RootsOf(lock::TxnId txn) const;

  const nf2::Catalog* catalog_;
  nf2::InstanceStore* store_;
  Options options_;
  logra::LockGraph graph_;
  authz::AuthorizationManager authz_;
  txn::UndoLog undo_;
  lock::LongLockStore long_store_;
  query::Statistics stats_;
  // Lease state is *server* state, not engine state: it survives
  // `CrashAndRestart` (leases are reissued, not forgotten — the outage
  // must not eat the workstations' renewal budget).
  VirtualClock clock_;
  LeaseManager leases_;

  // Volatile components, rebuilt on crash.
  std::unique_ptr<lock::LockManager> lm_;
  std::unique_ptr<txn::TxnManager> txns_;
  std::unique_ptr<proto::ComplexObjectProtocol> protocol_;
  std::unique_ptr<query::LockPlanner> planner_;
  std::unique_ptr<query::QueryExecutor> executor_;

  /// Serializes whole-engine lifecycle transitions against the
  /// reclamation sweep: `SweepExpiredLeases` walks `lm_`/`txns_` and
  /// releases locks step by step, while `CrashAndRestart` (via
  /// `RebuildEngine`) destroys and re-creates those very objects.  A
  /// sweep running concurrently with a restart could otherwise abort a
  /// transaction in the dying engine and then release its locks again in
  /// the rebuilt one (a double release against a fresh grant).  Acquired
  /// before `tickets_mu_`; never taken by per-ticket operations.
  mutable Mutex lifecycle_mu_;
  mutable Mutex tickets_mu_;
  /// Users of live long (check-out) transactions, re-adopted after a crash.
  std::unordered_map<lock::TxnId, authz::UserId> long_txn_users_
      CODLOCK_GUARDED_BY(tickets_mu_);
};

}  // namespace codlock::ws

#endif  // CODLOCK_WS_SERVER_H_
