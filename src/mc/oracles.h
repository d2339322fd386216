/// \file oracles.h
/// \brief Correctness oracles checked on every explored interleaving.
///
/// The model checker replays each schedule through the real lock-manager /
/// protocol / transaction-manager stack and judges the observed states
/// against five independent oracles:
///
///  (a) **compatibility soundness** — at every step, any two granted locks
///      of distinct transactions on the same resource are compatible under
///      a *pristine* copy of the §3 matrix (the production matrix is a
///      mutation target and cannot be trusted to judge itself);
///  (b) **implicit-lock visibility** — at quiescent points (no transaction
///      mid-operation), the grant-set auditor (`proto::ProtocolValidator`)
///      finds no undetected conflict: the §4.4 side-entry guarantee.
///      Mid-operation states are skipped because partially propagated lock
///      sets legally show conflicting *coverage* until the op completes;
///  (c) **conflict-serializability** — at the end of the execution, the
///      recorded history of committed transactions has an acyclic
///      precedence graph (what strict 2PL must deliver);
///  (d) **held-row coherence** — at every step, every entry of every held
///      row of every transaction, committed ones included (the instance
///      resource, or each lane in the row's mask), is held by that
///      transaction in the lock table, and those holds together cover the
///      row's mode.  A row answers hits, so a row that claims more than the
///      table holds would grant what nobody holds (e.g. rows left behind
///      at commit).  A singleton row is not compared with the
///      transaction's own lane: while an S/X waits at lane k, the row
///      already shows the intention part of the lanes before k;
///  (e) **termination / policy soundness** — every schedule terminates,
///      and under every policy except timeout-only it terminates without
///      the explorer having to inject a timeout (a needed injection means
///      a lost wakeup or an unhandled deadlock).

#ifndef CODLOCK_MC_ORACLES_H_
#define CODLOCK_MC_ORACLES_H_

#include <string>
#include <vector>

#include "mc/workload.h"

namespace codlock::mc {

/// \brief Pristine §3 compatibility matrix, independent of
/// `lock::Compatible` (see oracle (a) above).
bool PristineCompatible(lock::LockMode a, lock::LockMode b);

/// \brief Runs oracles (a)–(e) against one `WorkloadRun`.  The explorer
/// calls `CheckStep` after every scheduler step (when every controlled
/// thread is suspended) and `CheckTerminal` once the run completed.
class OracleSuite {
 public:
  explicit OracleSuite(WorkloadRun* run) : run_(run) {}

  /// Per-step oracles.  \p quiescent: no thread is mid-operation (all at
  /// op boundaries or done) — enables the visibility oracle (b).
  void CheckStep(bool quiescent);

  /// End-of-execution oracles (serializability of the committed history).
  void CheckTerminal();

  /// The explorer had to inject a timeout to make progress (oracle (e)):
  /// a violation under every policy except kTimeoutOnly.
  void NoteForcedTimeout();

  /// The execution exceeded its step budget (oracle (e)).
  void NoteNonTermination();

  bool clean() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void AddViolation(std::string msg);
  void CheckCompatibility();  // (a)
  void CheckVisibility();     // (b)
  void CheckHeldRows();       // (d)

  WorkloadRun* run_;
  std::vector<std::string> violations_;
};

}  // namespace codlock::mc

#endif  // CODLOCK_MC_ORACLES_H_
