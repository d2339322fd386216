/// \file workload.h
/// \brief Scripted multi-transaction workloads for the model checker.
///
/// A `WorkloadSpec` is a small, fixed script: 2–4 transactions, each a
/// sequence of protocol operations against the Figure-1/Figure-7 fixture
/// (whose robots share effectors — the non-disjoint case the paper's
/// protocol exists for).  A `WorkloadRun` instantiates one complete fresh
/// stack — fixture, lock graph, lock manager, transaction manager,
/// protocol — and compiles the script into per-transaction thread bodies
/// for the `DetScheduler`.  The explorer re-runs a `WorkloadRun` from
/// scratch for every schedule it explores (stateless model checking).
///
/// The runner records the *logical data operations* of the execution (one
/// `proto::HistoryOp` per successful lock call, in execution order — the
/// cooperative scheduler makes that order well defined) so the oracles can
/// decide conflict-serializability of the committed schedule, and keeps
/// finished `Transaction` objects alive so the held-row oracle can audit
/// their rows *after* commit (the window where rows left behind would
/// claim holds `ReleaseAll` freed).

#ifndef CODLOCK_MC_WORKLOAD_H_
#define CODLOCK_MC_WORKLOAD_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "authz/authz.h"
#include "lock/lock_manager.h"
#include "proto/co_protocol.h"
#include "proto/validator.h"
#include "sim/fixtures.h"
#include "txn/txn_manager.h"

namespace codlock::mc {

/// \brief One scripted protocol operation.
struct OpSpec {
  enum class Kind : uint8_t {
    kLockRobot,     ///< Lock a robot of cell "c1" by key (access path)
    kLockEffector,  ///< Lock a shared effector object by key (side entry)
    kLockRelation,  ///< Lock the "effectors" relation singleton
    kCommit,        ///< Commit the transaction
  };
  Kind kind = Kind::kCommit;
  std::string key;  ///< robot/effector key for the lock kinds
  lock::LockMode mode = lock::LockMode::kS;

  static OpSpec LockRobot(std::string key, lock::LockMode mode) {
    return OpSpec{Kind::kLockRobot, std::move(key), mode};
  }
  static OpSpec LockEffector(std::string key, lock::LockMode mode) {
    return OpSpec{Kind::kLockEffector, std::move(key), mode};
  }
  static OpSpec LockRelation(lock::LockMode mode) {
    return OpSpec{Kind::kLockRelation, {}, mode};
  }
  static OpSpec Commit() { return OpSpec{Kind::kCommit, {}, lock::LockMode::kNL}; }
};

/// \brief One scripted transaction.
struct TxnSpec {
  authz::UserId user = 1;
  bool can_modify_cells = true;
  bool can_modify_effectors = false;
  std::vector<OpSpec> ops;  ///< last op should be kCommit
};

/// \brief A complete scripted workload.
struct WorkloadSpec {
  std::string name;
  std::vector<TxnSpec> txns;
};

/// Two robot writers sharing effector e2 (Q2 ∥ Q3 of Figure 7): the
/// smallest non-disjoint workload; exercises rule 4′ and both propagation
/// directions.
WorkloadSpec SharedEffectorWorkload();

/// The §4.4 side-entry scenario, three transactions: a robot writer
/// (implicit S on its effectors), a from-the-side effector writer
/// (explicit X on the shared entry point) and a relation-level reader
/// (S on relation "effectors", downward-propagating onto every entry
/// point).  The implicit/explicit lock collisions are exactly what the
/// visibility oracle checks.
WorkloadSpec SideEntryWorkload();

/// Two transactions acquiring robots r1/r2 in opposite orders — the
/// canonical deadlock; every deadlock policy must terminate it.
WorkloadSpec CrossDeadlockWorkload();

/// All of the above (CLI convenience).
std::vector<WorkloadSpec> AllWorkloads();

/// \brief Per-execution knobs (the explorer crosses these).
struct RunOptions {
  lock::DeadlockPolicy policy = lock::DeadlockPolicy::kDetect;
  bool use_rule4_prime = true;
};

/// \brief One fresh instantiation of the full stack plus the compiled
/// script.  See file comment.
class WorkloadRun {
 public:
  enum class TxnOutcome : uint8_t { kRunning, kCommitted, kAborted };

  WorkloadRun(const WorkloadSpec& spec, const RunOptions& opts);

  /// One body per scripted transaction, for `DetScheduler::Launch`.  Each
  /// body runs its ops in order, calling `yield` between consecutive ops
  /// (the operation-boundary scheduling point); a failed op aborts the
  /// transaction and ends the body.
  std::vector<std::function<void()>> MakeBodies(std::function<void()> yield);

  int num_txns() const { return static_cast<int>(txns_.size()); }
  txn::Transaction* txn(int i) { return txns_[i]; }
  TxnOutcome outcome(int i) const { return outcomes_[i]; }

  const logra::LockGraph& graph() const { return graph_; }
  const nf2::InstanceStore& store() const { return *fixture_.store; }
  lock::LockManager& lock_manager() { return lm_; }
  const lock::LockManager& lock_manager() const { return lm_; }
  const RunOptions& options() const { return opts_; }

  /// Committed transaction ids (stable once the run is quiescent).
  std::unordered_set<lock::TxnId> CommittedIds() const;

  /// The logical history so far.  Caller must be quiescent (controller
  /// between steps); the vector is appended to only by the single running
  /// controlled thread.
  std::vector<proto::HistoryOp> History() const;

 private:
  void RunTxn(int i, const std::function<void()>& yield);
  Result<proto::LockTarget> TargetFor(const OpSpec& op);
  /// Executes one op; returns false when the transaction is finished
  /// (committed, or aborted after a failed lock).
  bool ExecOp(int i, const OpSpec& op);

  WorkloadSpec spec_;
  RunOptions opts_;
  sim::CellsFixture fixture_;
  logra::LockGraph graph_;
  lock::LockManager lm_;
  txn::TxnManager tm_;
  authz::AuthorizationManager authz_;
  std::unique_ptr<proto::ComplexObjectProtocol> proto_;
  std::vector<txn::Transaction*> txns_;
  std::vector<TxnOutcome> outcomes_;

  mutable std::mutex history_mu_;
  std::vector<proto::HistoryOp> history_;
};

}  // namespace codlock::mc

#endif  // CODLOCK_MC_WORKLOAD_H_
