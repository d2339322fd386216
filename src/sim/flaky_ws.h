/// \file flaky_ws.h
/// \brief Flaky-workstation workload: check-outs under random deaths,
/// zombies and server crashes.
///
/// The closed/open harnesses stress the *short*-transaction path; this
/// workload stresses the workstation–server liveness machinery instead.
/// A fleet of simulated workstations checks cells out, renews leases,
/// dies without warning, comes back inside or outside the grace window,
/// and occasionally keeps acting on a reclaimed ticket (a zombie).  The
/// server is crashed and restarted mid-run.  Everything is driven by the
/// server's `VirtualClock` and a seeded `Rng`: a (seed, config) pair
/// replays the exact same history.
///
/// The run self-checks the lease protocol's safety properties and
/// reports violations instead of asserting, so the workload can be used
/// from tests, the fault sweeps and the chaos CI job alike:
///  * a check-in on a ticket whose lease was reclaimed must never
///    succeed (zombie fencing),
///  * `Server::Audit` after every sweep and server crash: fencing epochs
///    never regress, a reclaimed check-out leaves no lock behind, and
///    the protocol validator finds the grant set consistent,
///  * `Server::AuditDrained` after a final drain (clock advance + sweep):
///    no lease and no long transaction survives, except exclusive
///    check-outs held as orphans under kOrphanHold.

#ifndef CODLOCK_SIM_FLAKY_WS_H_
#define CODLOCK_SIM_FLAKY_WS_H_

#include <string>
#include <vector>

#include "sim/fixtures.h"
#include "ws/server.h"

namespace codlock::sim {

/// \brief Flaky-workstation workload configuration.
///
/// The fixture must have at least `workstations + shared_cells` cells:
/// workstation i owns cell "c(i+1)" for its exclusive check-outs (so two
/// live workstations never contend on X locks and the single-threaded
/// driver cannot block); shared/derivation check-outs draw from the
/// `shared_cells` cells after the owned ones, under S locks.
struct FlakyWsConfig {
  int workstations = 8;
  int shared_cells = 4;
  int ticks = 300;
  uint64_t tick_ms = 1000;  ///< virtual-clock advance per tick
  uint64_t seed = 1;
  int sweep_every_ticks = 5;  ///< lease reclamation cadence

  // Per-tick Bernoulli probabilities of the state machine.
  double p_checkout = 0.5;      ///< idle → active
  double p_checkin = 0.15;      ///< active → idle (check-in / cancel)
  double p_renew = 0.7;         ///< active: heartbeat this tick
  double p_die = 0.04;          ///< active → dead (no goodbye)
  double p_resurrect = 0.25;    ///< dead: come back, try session resume
  double p_zombie_op = 0.15;    ///< dead: act on the stale ticket anyway
  double p_server_crash = 0.01; ///< server CrashAndRestart this tick
};

/// \brief Aggregated outcome of a flaky-workstation run.
struct FlakyWsReport {
  uint64_t checkouts = 0;
  uint64_t checkins = 0;
  uint64_t cancels = 0;
  uint64_t renewals = 0;
  uint64_t renewal_failures = 0;  ///< renew refused (expired/fenced/gone)
  uint64_t deaths = 0;
  uint64_t resumes = 0;           ///< sessions recovered in grace
  uint64_t resume_failures = 0;   ///< resume refused (fenced/expired/gone)
  uint64_t zombie_ok = 0;         ///< zombie check-in while lease alive (legal)
  uint64_t zombie_rejected = 0;   ///< zombie op refused (fenced/gone)
  uint64_t reclaimed_leases = 0;  ///< leases reaped by the sweep
  uint64_t server_crashes = 0;
  uint64_t sweeps = 0;

  /// Safety-property violations (empty = the run is sound).
  std::vector<std::string> violations;

  bool clean() const { return violations.empty(); }
  std::string Summary() const;
};

/// Runs the workload against \p server (built over \p fixture).  The
/// server's clock is advanced `ticks * tick_ms` virtual milliseconds; at
/// the end the run drains: every lease is allowed to expire, a final
/// sweep reclaims them, and the final-state invariants are checked.
FlakyWsReport RunFlakyWorkstations(ws::Server& server,
                                   const CellsFixture& fixture,
                                   const FlakyWsConfig& config);

}  // namespace codlock::sim

#endif  // CODLOCK_SIM_FLAKY_WS_H_
