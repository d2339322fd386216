/// \file ring_oracle.h
/// \brief Exhaustive interleaving exploration of the ring slot protocol.
///
/// The job ring's crash story (shm_ring.h) is a state machine of atomic
/// words plus a reclaimer: a party may die at any protocol point and the
/// sweep must put its slot back without losing or double-counting a
/// frame.  The procchaos harness exercises that with real SIGKILLed
/// processes but can only sample schedules; this explorer enumerates the
/// *whole* space of a small scenario — every order-preserving merge of
///
///   P1 {publish, take} × P2 {publish, take} × C {consume×3} × R {reap}
///
/// crossed with every crash flavor for P1 (alive, die at
/// `publish.claimed` / mid-write / torn-write / `publish.copied` /
/// `publish.published` / `take.taking`) — and replays each one against a
/// fresh in-process ring.  Crash points strand the slot in exactly the
/// state a SIGKILL there would (the hook unwinds out of the call), and
/// the reap step models the PID reaper: it only acts once P1 is dead,
/// with `ReclaimScope::taking` set (the owner is provably gone).
///
/// Oracles, checked on every schedule:
///
///  (a) **reclaim completeness** — after a reap of dead P1 returns, no
///      slot owned by P1 remains in a reclaimable state (kWriting,
///      kPublished, kDone, kTaking).  This is the oracle that kills the
///      `ring.skip-reclaim` mutant: a skipped kPublished strand is later
///      executed on behalf of a corpse.
///  (b) **frame conservation** — at quiescence the ledger balances
///      (`ShmRing::Counters::Imbalances`).
///  (c) **quiescence** — the post-mortem convergence loop (reap → drain
///      → final takes, the host's sweep discipline) reaches
///      InFlight() == 0 within a bounded number of rounds.
///  (d) **survivor liveness** — P2, which never crashes, completes its
///      round trip (publish → response taken) in every schedule; a
///      neighbour's death never wedges it.

#ifndef CODLOCK_MC_RING_ORACLE_H_
#define CODLOCK_MC_RING_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace codlock::mc {

/// \brief Ring-protocol exploration knobs.
struct RingExploreOptions {
  /// At most this many violation messages are kept verbatim.
  size_t max_violation_messages = 20;
};

/// \brief Outcome of a ring-protocol exploration.
struct RingExploreStats {
  uint64_t executions = 0;
  uint64_t violating_executions = 0;
  /// Terminal diversity (sanity: the space must reach both the graceful
  /// and every post-mortem path).
  uint64_t p1_take_ok = 0;       ///< P1 survived and took its response
  uint64_t p1_reclaimed = 0;     ///< schedules where the reap freed >= 1 slot
  uint64_t frames_salvaged = 0;  ///< torn publishes caught by the consumer
  std::vector<std::string> violation_messages;  ///< capped, deduplicated

  bool clean() const { return violating_executions == 0; }
};

/// Explores every interleaving × crash flavor of the ring scenario.
RingExploreStats ExploreRingProtocol(const RingExploreOptions& opts);

}  // namespace codlock::mc

#endif  // CODLOCK_MC_RING_ORACLE_H_
