#include "sim/procfleet.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string_view>

#include "sim/fixtures.h"
#include "util/json.h"
#include "ws/handle.h"
#include "ws/host.h"
#include "ws/shm_ring.h"

namespace codlock::sim {

namespace {

/// Where an assigned child dies.  The hook points strand the slot in
/// exactly the state the reclaimer must handle; the two publish faults
/// model deaths the CRC (torn) and the owner stamp (mid-write) catch.
enum class CrashKind : uint8_t {
  kNone = 0,
  kTorn,         ///< publishes a CRC-mismatched frame, then dies
  kMidWrite,     ///< PublishFault::kDieMidWrite, then dies
  kAtClaimed,    ///< SIGKILL at "publish.claimed"
  kAtStamped,    ///< SIGKILL at "publish.stamped"
  kAtCopied,     ///< SIGKILL at "publish.copied"
  kAtPublished,  ///< SIGKILL at "publish.published"
  kAtTaking,     ///< SIGKILL at "take.taking"
};
constexpr size_t kNumCrashKinds = 8;

const char* HookPoint(CrashKind k) {
  switch (k) {
    case CrashKind::kAtClaimed:
      return "publish.claimed";
    case CrashKind::kAtStamped:
      return "publish.stamped";
    case CrashKind::kAtCopied:
      return "publish.copied";
    case CrashKind::kAtPublished:
      return "publish.published";
    case CrashKind::kAtTaking:
      return "take.taking";
    default:
      return nullptr;
  }
}

/// Everything a forked child needs; plain data captured before fork.
struct ChildPlan {
  size_t index = 0;
  std::string shm_name;
  uint64_t incarnation = 0;
  ws::HandleInfo info;
  CrashKind crash = CrashKind::kNone;
  size_t crash_at = 0;  ///< job index the crash fires on
  size_t jobs = 0;
  bool checkout = false;        ///< job 0 checks a cell out
  std::string checkout_frame;   ///< pre-encoded kCheckOut request
  uint64_t wait_us = 5'000'000;
};

/// Child exit codes (diagnosed by the parent for clean children).
enum ChildExit : int {
  kChildOk = 0,
  kChildAttachFailed = 3,
  kChildGateTimeout = 4,
  kChildPublishFailed = 5,
  kChildWaitDoneTimeout = 6,
  kChildTakeFailed = 7,
};

[[noreturn]] void DieNow() {
  kill(getpid(), SIGKILL);
  for (;;) pause();  // SIGKILL cannot be blocked; this never runs
}

/// Runs in the forked child.  Only the shared segment is touched — the
/// inherited Host/Server objects belong to the parent and are never
/// used.  Exits via _exit/SIGKILL only: no destructors, no atexit.
[[noreturn]] void ChildMain(const ChildPlan& plan) {
  ws::ShmRing ring(
      ws::RingOptions::AttachTo(plan.shm_name, plan.incarnation));
  if (!ring.init_status().ok()) _exit(kChildAttachFailed);
  if (ring.WaitRunStateAtLeast(1, 10'000'000) < 1) _exit(kChildGateTimeout);

  // Armed only for the crash job: kill(2) at the named protocol point.
  bool die_armed = false;
  const char* point = HookPoint(plan.crash);
  if (point != nullptr) {
    ring.SetCrashHook([&die_armed, point](std::string_view at) {
      if (die_armed && at == point) DieNow();
    });
  }

  ws::CheckOutTicket ticket;
  bool have_ticket = false;
  for (size_t k = 0; k < plan.jobs; ++k) {
    const bool crash_job = plan.crash != CrashKind::kNone && k == plan.crash_at;
    const uint64_t job_id = plan.index * 1'000 + k + 1;

    ws::wire::JobOp op = ws::wire::JobOp::kPing;
    std::string payload;
    if (plan.checkout && k == 0) {
      op = ws::wire::JobOp::kCheckOut;
      payload = plan.checkout_frame;
    } else if (have_ticket && k + 1 == plan.jobs && !crash_job) {
      op = ws::wire::JobOp::kCheckIn;
      payload = ws::wire::EncodeTicketRequest(ws::wire::JobOp::kCheckIn, ticket);
    } else {
      payload = ws::wire::EncodePingRequest();
    }

    ws::PublishFault fault = ws::PublishFault::kNone;
    if (crash_job) {
      switch (plan.crash) {
        case CrashKind::kTorn:
          fault = ws::PublishFault::kTornFrame;
          // A torn 1-byte ping whose slot last held an identical ping is
          // undetectably "un-torn" (the CRC still matches the leftover
          // byte); a fat distinctive payload guarantees the mismatch the
          // salvage path exists for.
          payload.assign(256, static_cast<char>('A' + plan.index % 26));
          break;
        case CrashKind::kMidWrite:
          fault = ws::PublishFault::kDieMidWrite;
          break;
        case CrashKind::kAtTaking:
          break;  // publish normally; die inside the take below
        default:
          die_armed = true;  // die inside the publish below
          break;
      }
    }

    ws::FrameHeader header;
    header.handle_id = plan.info.handle_id;
    header.handle_epoch = plan.info.epoch;
    header.job_id = job_id;
    Result<size_t> slot(0);
    for (int attempt = 0; attempt < 500; ++attempt) {
      slot = ring.Publish(header, payload, fault);
      if (slot.ok() || !slot.status().IsShed()) break;
      usleep(2'000);  // transport backpressure: dumb bounded retry
    }
    if (crash_job && plan.crash != CrashKind::kAtTaking) {
      // Torn/mid-write children die right after their broken publish;
      // hook children never reach here.
      DieNow();
    }
    if (!slot.ok()) _exit(kChildPublishFailed);
    if (!ring.WaitDone(*slot, job_id, plan.wait_us)) {
      _exit(kChildWaitDoneTimeout);
    }
    if (crash_job) die_armed = true;  // kAtTaking: die at "take.taking"
    Result<std::string> resp = ring.TakeResponse(*slot, job_id);
    if (!resp.ok()) _exit(kChildTakeFailed);
    if (op == ws::wire::JobOp::kCheckOut) {
      have_ticket = ws::wire::DecodeResponse(*resp, &ticket).ok();
    }
  }
  _exit(kChildOk);
}

query::Query ChildQuery(const CellsFixture& fx, size_t child_index) {
  query::Query q;
  q.name = "procchaos-" + std::to_string(child_index);
  q.relation = fx.cells;
  q.object_key = std::string("c").append(std::to_string(child_index + 1));
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = query::AccessKind::kUpdate;
  return q;
}

}  // namespace

std::string ProcFleetReport::Summary() const {
  return "procfleet: spawned=" + std::to_string(children_spawned) +
         " killed=" + std::to_string(children_killed) +
         " clean=" + std::to_string(children_exited_ok) +
         " published=" + std::to_string(frames_published) +
         " completed=" + std::to_string(frames_completed) +
         " salvaged=" + std::to_string(frames_salvaged) +
         " reclaimed=" + std::to_string(frames_reclaimed) +
         " fenced=" + std::to_string(handles_fenced) +
         " sweep_rounds=" + std::to_string(sweep_rounds) +
         " violations=" + std::to_string(violations.size());
}

std::string ProcFleetReport::Json() const {
  std::string out = "{\"children_spawned\":" + std::to_string(children_spawned) +
                    ",\"children_killed\":" + std::to_string(children_killed) +
                    ",\"children_exited_ok\":" +
                    std::to_string(children_exited_ok) +
                    ",\"frames_published\":" + std::to_string(frames_published) +
                    ",\"frames_completed\":" + std::to_string(frames_completed) +
                    ",\"frames_salvaged\":" + std::to_string(frames_salvaged) +
                    ",\"frames_reclaimed\":" + std::to_string(frames_reclaimed) +
                    ",\"handles_fenced\":" + std::to_string(handles_fenced) +
                    ",\"sweep_rounds\":" + std::to_string(sweep_rounds) +
                    ",\"violations\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) out += ",";
    out += '"';
    out += JsonEscape(violations[i]);
    out += '"';
  }
  out += "]}";
  return out;
}

ProcFleetReport RunProcFleet(const ProcFleetConfig& config) {
  ProcFleetReport report;
  auto fail = [&](std::string msg) { report.violations.push_back(std::move(msg)); };

  // One cell per child so the check-out children never conflict — every
  // leaked lock at the end is a reclaim bug, not a timeout artifact.
  CellsParams cells;
  cells.num_cells = static_cast<int>(config.children) + 1;
  CellsFixture fx = BuildCellsEffectors(cells);

  ws::HostOptions opts;
  opts.ring.backend = ws::RingBackend::kShmCreate;
  opts.ring.shm_name = config.shm_name;
  opts.ring.slots = config.ring_slots != 0 ? config.ring_slots
                                           : 2 * config.children + 8;
  opts.ring.payload_capacity = config.payload_capacity;
  // Liveness comes from the PID probe here; the lease exists for the
  // silent-but-alive case, which this harness does not script.
  opts.handle_lease_ms = 3'600'000;
  opts.max_inflight_per_handle = config.jobs_per_child + 1;
  ws::Host host(fx.catalog.get(), fx.store.get(), opts);
  if (!host.ring_status().ok()) {
    fail("ring init: " + host.ring_status().ToString());
    return report;
  }
  const uint64_t incarnation = host.incarnation();

  // Plans are built (and their frames encoded) before any fork.
  std::vector<ChildPlan> plans(config.children);
  for (size_t i = 0; i < config.children; ++i) {
    ChildPlan& p = plans[i];
    p.index = i;
    p.shm_name = config.shm_name;
    p.incarnation = incarnation;
    p.info = host.Attach();
    p.crash = static_cast<CrashKind>(i % kNumCrashKinds);
    p.jobs = config.jobs_per_child;
    p.crash_at = p.jobs / 2;
    p.checkout = (i % 3) == 0;
    p.wait_us = config.child_wait_us;
    if (p.checkout) {
      p.checkout_frame = ws::wire::EncodeCheckOutRequest(
          static_cast<authz::UserId>(i + 1), ws::CheckOutMode::kExclusive,
          ChildQuery(fx, i));
    }
  }

  // Fork while single-threaded: StartWorkers comes after, so children
  // inherit no locked mutexes and no stray threads.
  fflush(nullptr);
  std::map<pid_t, size_t> child_of;
  for (size_t i = 0; i < config.children; ++i) {
    const pid_t pid = fork();
    if (pid == 0) ChildMain(plans[i]);  // never returns
    if (pid < 0) {
      fail("fork failed for child " + std::to_string(i));
      continue;
    }
    child_of[pid] = i;
    (void)host.BindPid(plans[i].info.handle_id, pid);
    ++report.children_spawned;
  }

  host.StartWorkers(config.workers);
  host.ring().SetRunState(1);

  // Reap zombies concurrently with the dead-handle sweep: kill-0 only
  // reports ESRCH once the zombie is waited, so the sweep interleaves
  // with (and depends on) this loop — which is exactly the production
  // ordering the sweep documents.
  std::vector<bool> killed(config.children, false);
  size_t unreaped = child_of.size();
  while (unreaped > 0) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      const size_t i = child_of.at(pid);
      --unreaped;
      if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
        killed[i] = true;
        ++report.children_killed;
      } else if (WIFEXITED(status) && WEXITSTATUS(status) == kChildOk) {
        ++report.children_exited_ok;
      } else {
        fail("child " + std::to_string(i) + " failed with exit code " +
             std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
      }
      continue;  // drain further zombies before sleeping
    }
    report.handles_fenced += host.SweepDeadHandles();
    usleep(2'000);
  }

  // Process accounting: the assigned deaths happened, nothing else did.
  for (size_t i = 0; i < config.children; ++i) {
    const bool should_die = plans[i].crash != CrashKind::kNone;
    if (should_die && !killed[i]) {
      fail("child " + std::to_string(i) + " was assigned a crash but exited");
    }
    if (!should_die && killed[i]) {
      fail("clean child " + std::to_string(i) + " died by SIGKILL");
    }
  }

  // Post-mortem convergence: all children are reaped, so every dead PID
  // probes ESRCH.  Advance the virtual clock past every lease so the
  // dead check-outs fall to the lease sweep, then loop sweep+drain.
  host.server().clock().AdvanceMs(
      host.server().leases().options().duration_ms +
      host.server().leases().options().grace_ms + opts.handle_lease_ms + 1);
  bool quiescent = false;
  for (int round = 0; round < 10; ++round) {
    ++report.sweep_rounds;
    report.handles_fenced += host.SweepDeadHandles();
    (void)host.Drain();
    if (host.ring().InFlight() == 0 && host.server().ActiveLongTxns() == 0 &&
        host.server().leases().size() == 0) {
      quiescent = true;
      break;
    }
  }
  host.StopWorkers();

  for (std::string& v : host.AuditDrained()) fail(std::move(v));
  if (!quiescent && report.violations.empty()) {
    fail("convergence loop never went quiescent");
  }
  const ws::ShmRing::Counters c = host.ring().counters();
  if (c.published == 0 || c.completed == 0) {
    fail("no traffic flowed — the harness proved nothing");
  }
  report.frames_published = c.published;
  report.frames_completed = c.completed;
  report.frames_salvaged = c.salvaged;
  report.frames_reclaimed = c.Reclaimed();

  // Incarnation fencing: a zombie expecting yesterday's incarnation is
  // fenced at the segment boundary — before and after a host restart.
  {
    ws::ShmRing stale(
        ws::RingOptions::AttachTo(config.shm_name, incarnation + 999));
    if (!stale.init_status().IsFenced()) {
      fail("stale-incarnation attach was not fenced: " +
           stale.init_status().ToString());
    }
    ws::ShmRing fresh(ws::RingOptions::AttachTo(config.shm_name, incarnation));
    if (!fresh.init_status().ok()) {
      fail("current-incarnation attach failed: " +
           fresh.init_status().ToString());
    }
  }
  Status restarted = host.CrashAndRestart();
  if (!restarted.ok()) {
    fail("host restart failed: " + restarted.ToString());
  } else {
    ws::ShmRing zombie(ws::RingOptions::AttachTo(config.shm_name, incarnation));
    if (!zombie.init_status().IsFenced()) {
      fail("pre-restart incarnation still attaches after restart: " +
           zombie.init_status().ToString());
    }
  }

  return report;
}

}  // namespace codlock::sim
