#include "mc/ring_oracle.h"

#include <set>
#include <string>
#include <vector>

#include "mc/interleave.h"
#include "ws/shm_ring.h"

namespace codlock::mc {

namespace {

/// One atomic step of the scenario, attributed to its actor.
enum class Step : uint8_t {
  kP1Publish,  ///< P1: claim + write + publish one frame
  kP1Take,     ///< P1: take its response (no-op while not done)
  kP2Publish,  ///< P2: the never-crashing neighbour's publish
  kP2Take,     ///< P2: its take
  kConsume,    ///< C: consume one published frame and complete it
  kReap,       ///< R: the PID reaper (acts only once P1 is dead)
};

/// Where P1 dies, crossed against every interleaving.  Each flavor
/// strands its slot in exactly the state a SIGKILL there would.
enum class CrashFlavor : uint8_t {
  kAlive = 0,    ///< P1 completes its round trip
  kAtClaimed,    ///< dead at "publish.claimed": kWriting, owner stamped
  kMidWrite,     ///< PublishFault::kDieMidWrite: kWriting, half a frame
  kTornWrite,    ///< publishes a torn frame, then dies (CRC mismatch)
  kAtCopied,     ///< dead at "publish.copied": kWriting, frame complete
  kAtPublished,  ///< dead at "publish.published": kPublished, counted
  kAtTaking,     ///< dead at "take.taking": kTaking, response pending
};

const char* StepName(Step s) {
  switch (s) {
    case Step::kP1Publish:
      return "p1-publish";
    case Step::kP1Take:
      return "p1-take";
    case Step::kP2Publish:
      return "p2-publish";
    case Step::kP2Take:
      return "p2-take";
    case Step::kConsume:
      return "consume";
    case Step::kReap:
      return "reap";
  }
  return "?";
}

const char* FlavorName(CrashFlavor f) {
  switch (f) {
    case CrashFlavor::kAlive:
      return "alive";
    case CrashFlavor::kAtClaimed:
      return "die@publish.claimed";
    case CrashFlavor::kMidWrite:
      return "die-mid-write";
    case CrashFlavor::kTornWrite:
      return "torn-write";
    case CrashFlavor::kAtCopied:
      return "die@publish.copied";
    case CrashFlavor::kAtPublished:
      return "die@publish.published";
    case CrashFlavor::kAtTaking:
      return "die@take.taking";
  }
  return "?";
}

std::string ScheduleName(CrashFlavor flavor,
                         const std::vector<Step>& schedule) {
  std::string out = FlavorName(flavor);
  out += ":";
  for (Step s : schedule) {
    out += " ";
    out += StepName(s);
  }
  return out;
}

/// Thrown out of the crash hook: unwinding out of Publish/TakeResponse
/// leaves the slot in exactly the state a SIGKILL at that point would.
struct P1Dies {};

/// Replays one schedule × flavor on a fresh ring; appends violations.
void RunSchedule(CrashFlavor flavor, const std::vector<Step>& schedule,
                 RingExploreStats& stats, std::set<std::string>& messages,
                 size_t max_messages) {
  ws::RingOptions opts;
  opts.slots = 4;
  opts.payload_capacity = 64;
  ws::ShmRing ring(opts);

  auto fail = [&](const std::string& msg) {
    if (messages.size() < max_messages) {
      messages.insert(msg +
                      " [schedule: " + ScheduleName(flavor, schedule) + "]");
    }
    ++stats.violating_executions;
  };

  // The hook fires for every party; it is armed only around P1's calls.
  const char* armed = nullptr;
  ring.SetCrashHook([&](std::string_view point) {
    if (armed != nullptr && point == armed) throw P1Dies{};
  });

  bool p1_dead = false, p1_took = false, p2_took = false;
  bool p1_published = false, p2_published = false;
  size_t p1_slot = 0, p2_slot = 0;
  bool reclaimed_any = false;
  std::vector<ws::ShmRing::SalvagedFrame> salvaged;

  // Oracle (a): once the reaper has processed dead P1, none of its slots
  // may remain in a state the reclaim was supposed to cover.
  auto reap = [&] {
    if (!p1_dead) return;  // the PID probe cannot see a live process dead
    ws::ReclaimScope scope;
    scope.taking = true;  // P1 is SIGKILLed: no thread is inside a take
    if (ring.ReclaimHandleSlots(1, scope) > 0) reclaimed_any = true;
    for (size_t i = 0; i < ring.slots(); ++i) {
      const ws::SlotState st = ring.StateOf(i);
      if (st == ws::SlotState::kFree || st == ws::SlotState::kExecuting) {
        continue;
      }
      if (ring.OwnerOf(i) == 1) {
        fail(std::string("reap left dead P1's slot in ") +
             std::string(ws::SlotStateName(st)));
      }
    }
  };

  auto consume_one = [&] {
    Result<ws::ShmRing::Job> job = ring.Consume(&salvaged);
    if (job.ok()) ring.Complete(job->slot, "resp");
  };

  auto p1_publish = [&] {
    if (p1_dead) return;
    ws::FrameHeader h;
    h.handle_id = 1;
    h.job_id = 11;
    switch (flavor) {
      case CrashFlavor::kMidWrite:
        (void)ring.Publish(h, "p1", ws::PublishFault::kDieMidWrite);
        p1_dead = true;
        return;
      case CrashFlavor::kTornWrite:
        (void)ring.Publish(h, "p1-torn", ws::PublishFault::kTornFrame);
        p1_dead = true;  // a torn frame *is* a mid-write death
        return;
      case CrashFlavor::kAtClaimed:
        armed = "publish.claimed";
        break;
      case CrashFlavor::kAtCopied:
        armed = "publish.copied";
        break;
      case CrashFlavor::kAtPublished:
        armed = "publish.published";
        break;
      default:
        break;
    }
    try {
      Result<size_t> slot = ring.Publish(h, "p1");
      armed = nullptr;
      if (slot.ok()) {
        p1_published = true;
        p1_slot = *slot;
      }
    } catch (const P1Dies&) {
      armed = nullptr;
      p1_dead = true;
    }
  };

  auto p1_take = [&] {
    if (p1_dead || !p1_published || p1_took) return;
    if (flavor == CrashFlavor::kAtTaking) armed = "take.taking";
    try {
      Result<std::string> r = ring.TakeResponse(p1_slot, 11);
      armed = nullptr;
      if (r.ok()) p1_took = true;
    } catch (const P1Dies&) {
      armed = nullptr;
      p1_dead = true;
    }
  };

  auto p2_publish = [&] {
    ws::FrameHeader h;
    h.handle_id = 2;
    h.job_id = 22;
    Result<size_t> slot = ring.Publish(h, "p2");
    if (slot.ok()) {
      p2_published = true;
      p2_slot = *slot;
    } else {
      fail("P2's publish failed: " + slot.status().ToString());
    }
  };

  auto p2_take = [&] {
    if (!p2_published || p2_took) return;
    if (ring.TakeResponse(p2_slot, 22).ok()) p2_took = true;
  };

  for (Step step : schedule) {
    switch (step) {
      case Step::kP1Publish:
        p1_publish();
        break;
      case Step::kP1Take:
        p1_take();
        break;
      case Step::kP2Publish:
        p2_publish();
        break;
      case Step::kP2Take:
        p2_take();
        break;
      case Step::kConsume:
        consume_one();
        break;
      case Step::kReap:
        reap();
        break;
    }
  }

  // Post-mortem convergence: the host's sweep discipline — reap dead
  // handles, drain what remains, let survivors pick up their responses —
  // iterated until quiescent.  Oracle (c) bounds the rounds.
  for (int round = 0; round < 6; ++round) {
    reap();
    for (size_t i = 0; i < ring.slots() + 1; ++i) consume_one();
    p2_take();
    p1_take();
    if (ring.InFlight() == 0 && (p2_took || !p2_published)) break;
  }

  if (ring.InFlight() != 0) {
    fail("ring not quiescent after the convergence loop");
  }
  if (p2_published && !p2_took) {
    fail("survivor P2 never took its response");  // oracle (d)
  }
  if (!p1_dead && p1_published && !p1_took) {
    fail("alive P1 never took its response");
  }

  // Oracle (b): the ledger balances at quiescence.
  for (const std::string& imbalance : ring.counters().Imbalances()) {
    fail(imbalance);
  }

  if (p1_took) ++stats.p1_take_ok;
  if (reclaimed_any) ++stats.p1_reclaimed;
  stats.frames_salvaged += salvaged.size();
}

}  // namespace

RingExploreStats ExploreRingProtocol(const RingExploreOptions& opts) {
  const std::vector<std::vector<Step>> actors = {
      {Step::kP1Publish, Step::kP1Take},
      {Step::kP2Publish, Step::kP2Take},
      {Step::kConsume, Step::kConsume, Step::kConsume},
      {Step::kReap}};
  const std::vector<std::vector<Step>> schedules = Interleavings(actors);

  RingExploreStats stats;
  std::set<std::string> messages;
  for (CrashFlavor flavor :
       {CrashFlavor::kAlive, CrashFlavor::kAtClaimed, CrashFlavor::kMidWrite,
        CrashFlavor::kTornWrite, CrashFlavor::kAtCopied,
        CrashFlavor::kAtPublished, CrashFlavor::kAtTaking}) {
    for (const std::vector<Step>& schedule : schedules) {
      const uint64_t before = stats.violating_executions;
      RunSchedule(flavor, schedule, stats, messages,
                  opts.max_violation_messages);
      // Count each schedule once, however many oracles it tripped.
      if (stats.violating_executions > before) {
        stats.violating_executions = before + 1;
      }
      ++stats.executions;
    }
  }
  stats.violation_messages.assign(messages.begin(), messages.end());
  return stats;
}

}  // namespace codlock::mc
