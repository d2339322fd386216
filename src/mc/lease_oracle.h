/// \file lease_oracle.h
/// \brief Exhaustive interleaving exploration of the lease protocol.
///
/// The main explorer (`mc/explorer.h`) enumerates thread schedules at
/// lock-operation granularity.  The lease protocol's steps — clock
/// advance, reclamation sweep, server crash, a second workstation's
/// check-out/check-in, the zombie's late check-in — are synchronous
/// server calls, so its state space is explored more directly: every
/// interleaving (order-preserving merge) of the per-actor scripts is
/// enumerated and each one is replayed against a fresh server stack.
///
/// The scenario is the lost-update race the fencing epochs exist to
/// close.  Workstation W1 checks a cell out exclusively, then goes
/// silent.  Time passes, the sweep reclaims, workstation W2 checks the
/// same cell out, modifies it and checks it in.  W1 then wakes up and
/// tries to check in its stale ticket.  The oracles, checked on every
/// interleaving:
///
///  (a) **no lost update through a fenced check-in** — once W2's
///      check-out succeeded, W1's late check-in must fail (kFenced or
///      the transaction being gone); both check-ins succeeding with
///      W1's ordered after W2's check-out is the lost update;
///  (b) **mutual exclusion** — W2's check-out must not succeed while W1
///      still holds its long locks;
///  (c) **reclaim completeness** — after a sweep that ran with W1's
///      lease expired beyond grace, W1 holds no locks and no lease
///      (reclaim-abort policy);
///  (d) **epoch monotonicity** — fencing epochs never decrease across a
///      crash or a sweep (`Server::Audit`, run after each);
///  (e) `Server::Audit` also holds at the end: the protocol validator
///      finds the final grant set consistent, and no lock is orphaned.

#ifndef CODLOCK_MC_LEASE_ORACLE_H_
#define CODLOCK_MC_LEASE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace codlock::mc {

/// \brief Lease-protocol exploration knobs.
struct LeaseExploreOptions {
  /// Also interleave a server crash+restart into the schedule (bigger
  /// space: the crash may land before/after expiry, sweep, W2's ops).
  bool with_server_crash = false;
  /// At most this many violation messages are kept verbatim.
  size_t max_violation_messages = 20;
};

/// \brief Outcome of a lease-protocol exploration.
struct LeaseExploreStats {
  uint64_t executions = 0;
  uint64_t violating_executions = 0;
  /// How often each interesting terminal was reached (sanity: the space
  /// must contain both the reclaim path and the graceful path).
  uint64_t w1_checkin_ok = 0;      ///< W1 checked in before losing the lease
  uint64_t w1_fenced = 0;          ///< W1's late check-in was fenced/refused
  uint64_t w2_checkout_ok = 0;     ///< W2 got the cell (after reclaim/checkin)
  std::vector<std::string> violation_messages;  ///< capped, deduplicated

  bool clean() const { return violating_executions == 0; }
};

/// Explores every interleaving of the lease scenario.  See file comment.
LeaseExploreStats ExploreLeaseProtocol(const LeaseExploreOptions& opts);

}  // namespace codlock::mc

#endif  // CODLOCK_MC_LEASE_ORACLE_H_
