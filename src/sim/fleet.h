/// \file fleet.h
/// \brief Fleet chaos driver: many client handles through the host's
/// shared-memory job ring, under kill / wedge / zombie / torn-write /
/// host-crash chaos.
///
/// Where `flaky_ws` stresses the lease machinery by calling the server
/// directly, this driver goes through the full out-of-process path
/// (`ws::Handle` → job ring → `ws::Host` → `ws::Server`), so every
/// failure also exercises the transport: clients die with frames half
/// written (torn, salvaged by CRC), wedge without draining responses
/// (slots reclaimed by the dead-handle sweep), act as zombies on fenced
/// handles or across host incarnations (rejected `kFenced`), and the
/// host itself crashes and restarts mid-run.  Everything is driven by
/// the server's `VirtualClock` and a seeded `Rng` in steppable mode (no
/// threads, no sleeps): a (seed, config) pair replays exactly.
///
/// The run self-checks and reports violations instead of asserting:
///  * a zombie check-in must fail once its lease was reclaimed,
///  * `Host::Audit` after every sweep and host crash (fencing epochs of
///    roots and handles never regress; no reclaimed check-out leaves a
///    lock behind; the protocol validator finds the grant set
///    consistent),
///  * `Host::AuditDrained` after the final drain (the ring is empty and
///    its ledger balances; no lease and no long transaction is left).

#ifndef CODLOCK_SIM_FLEET_H_
#define CODLOCK_SIM_FLEET_H_

#include <string>
#include <vector>

#include "sim/fixtures.h"
#include "ws/host.h"

namespace codlock::sim {

/// \brief Fleet chaos configuration.
///
/// The fixture must have at least `owned_cells + shared_cells` cells:
/// client i < owned_cells exclusively checks out cell "c(i+1)" (two live
/// clients never contend on X locks, so the single-threaded steppable
/// driver cannot block); every other client draws kShared/kDerive
/// check-outs from the pool of `shared_cells` cells after the owned
/// ones.
struct FleetConfig {
  int clients = 1000;      ///< simulated client processes (handles)
  int owned_cells = 32;    ///< exclusive owners (must be <= clients)
  int shared_cells = 8;
  int ticks = 120;
  uint64_t tick_ms = 500;  ///< virtual-clock advance per tick
  uint64_t seed = 1;
  int sweep_every_ticks = 4;  ///< dead-handle + lease sweep cadence

  // Per-tick Bernoulli probabilities of the client state machine.
  double p_checkout = 0.10;       ///< idle → active
  double p_checkin = 0.20;        ///< active → idle (check-in / cancel)
  double p_renew = 0.50;          ///< active: heartbeat this tick
  double p_die = 0.02;            ///< active → dead (silent, no goodbye)
  double p_wedge = 0.01;          ///< active → wedged (publishes, never drains)
  double p_zombie_op = 0.10;      ///< dead/wedged: act on the stale state
  double p_torn_publish = 0.005;  ///< idle: die mid-write, frame torn
  double p_die_mid_publish = 0.005;  ///< idle: die in kWriting, slot strands
  double p_host_crash = 0.015;    ///< host CrashAndRestart this tick
  double p_reattach = 0.6;        ///< post-crash: reattach promptly

  ws::HostOptions host;

  FleetConfig() {
    // Fences must actually fire within a run: a client silent for ~8
    // virtual seconds is fenced, its lease reclaimed a sweep later.
    host.handle_lease_ms = 8'000;
    host.server.lease.duration_ms = 6'000;
    host.server.lease.grace_ms = 2'000;
    host.ring.slots = 128;
    host.max_inflight_per_handle = 4;
  }
};

/// \brief Aggregated outcome of a fleet chaos run.
struct FleetReport {
  uint64_t checkouts = 0;
  uint64_t checkins = 0;
  uint64_t cancels = 0;
  uint64_t renewals = 0;
  uint64_t renewal_failures = 0;
  uint64_t deaths = 0;
  uint64_t wedges = 0;
  uint64_t torn_publishes = 0;
  uint64_t stranded_publishes = 0;  ///< die-mid-write strands injected
  uint64_t zombie_rejected = 0;     ///< stale op refused (fenced/gone)
  uint64_t zombie_legal = 0;        ///< stale op inside its lease (legal)
  uint64_t sheds_seen = 0;          ///< admission-control rejections observed
  uint64_t shed_retries = 0;        ///< re-submissions after a shed
  uint64_t host_crashes = 0;
  uint64_t reattaches = 0;          ///< handles revalidated after a crash
  uint64_t respawns = 0;            ///< fenced clients that attached anew
  uint64_t handles_fenced = 0;      ///< fenced by the dead-handle sweep
  uint64_t sweeps = 0;

  /// Safety-property violations (empty = the run is sound).
  std::vector<std::string> violations;

  bool clean() const { return violations.empty(); }
  std::string Summary() const;
};

/// Runs the fleet against \p host (built over \p fixture).  Steppable:
/// the driver's thread pumps the host; no workers, no wall-clock time.
FleetReport RunFleet(ws::Host& host, const CellsFixture& fixture,
                     const FleetConfig& config);

}  // namespace codlock::sim

#endif  // CODLOCK_SIM_FLEET_H_
