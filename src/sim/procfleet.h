/// \file procfleet.h
/// \brief Fork-based multi-process chaos harness for the shm job ring.
///
/// The fleet driver (sim/fleet.h) chaoses *simulated* clients inside one
/// address space; this harness forks **real child processes** that attach
/// to the host's shm segment (`ShmRing::AttachTo`), publish real job
/// frames through the process-shared futex transport, and are SIGKILLed
/// at seeded protocol points (the ring's named crash hooks plus the
/// torn-write / die-mid-write publish faults).  No destructor, no signal
/// handler, no atexit runs in a killed child — exactly the failure the
/// slot state machine and the PID reaper claim to survive.
///
/// Flow: the parent builds a `ws::Host` over a fresh segment and
/// pre-attaches one handle per child, forks the children while still
/// single-threaded (no worker threads exist yet, so the children inherit
/// no locked mutexes), binds each child's PID to its handle, starts the
/// workers, and opens the cross-process run gate.  Children park on the
/// gate, then run their job script; crash-assigned children die at their
/// point.  The parent reaps zombies (`waitpid`) concurrently with the
/// dead-handle sweep — kill-0 only reports ESRCH after the wait, which
/// is the ordering the sweep documents.  Post-mortem it advances the
/// virtual clock past every lease, loops sweep+drain until quiescent,
/// and asserts the recovery invariants:
///
///  * **`Host::AuditDrained`** — no slot leaked (every strand reclaimed),
///    the shared counter ledger balances, the dead children's check-outs
///    were reclaimed by the lease sweep (no lock, lease or long
///    transaction left), and the protocol validator is clean;
///  * **incarnation fencing** — an attach expecting a stale incarnation
///    fails with kFenced, before and after a host restart;
///  * **process accounting** — every crash-assigned child died by
///    SIGKILL, every clean child exited 0.
///
/// Violations are collected, not asserted, so the codlock_procchaos tool
/// can report all of them and exit non-zero.

#ifndef CODLOCK_SIM_PROCFLEET_H_
#define CODLOCK_SIM_PROCFLEET_H_

#include <cstdint>
#include <string>
#include <vector>

namespace codlock::sim {

/// \brief Knobs for one multi-process chaos round.
struct ProcFleetConfig {
  /// Segment name ("/codlock-..."); uniquified per run by the tool.
  std::string shm_name = "/codlock-procchaos";
  /// Real child processes to fork.  Crash points are assigned cyclically
  /// (1 clean script + 7 crash kinds), so >= 8 exercises every one; the
  /// default kills 35 of 40 — past the 32-SIGKILL acceptance floor.
  size_t children = 40;
  /// Ping jobs per child (the crash, when assigned, fires mid-script).
  size_t jobs_per_child = 6;
  /// Every 3rd child also checks a cell out (and, if it survives, back
  /// in) so SIGKILLs leak real long locks + leases for the sweep.
  size_t ring_slots = 0;  ///< 0 = derive 2*children + 8
  size_t payload_capacity = 768;
  int workers = 2;
  uint64_t seed = 1;
  /// Wall-clock budget for one child's publish→take round trip (us).
  uint64_t child_wait_us = 5'000'000;
};

/// \brief Outcome of one round.
struct ProcFleetReport {
  size_t children_spawned = 0;
  size_t children_killed = 0;     ///< died by the assigned SIGKILL
  size_t children_exited_ok = 0;  ///< clean script, exit 0
  size_t sweep_rounds = 0;        ///< post-mortem sweeps until quiescent
  uint64_t frames_published = 0;
  uint64_t frames_completed = 0;
  uint64_t frames_salvaged = 0;
  uint64_t frames_reclaimed = 0;
  uint64_t handles_fenced = 0;
  std::vector<std::string> violations;

  bool clean() const { return violations.empty(); }
  std::string Summary() const;
  std::string Json() const;
};

/// Runs one round: fork, chaos, reap, converge, assert.  Never throws;
/// every failure lands in `violations`.
ProcFleetReport RunProcFleet(const ProcFleetConfig& config);

}  // namespace codlock::sim

#endif  // CODLOCK_SIM_PROCFLEET_H_
