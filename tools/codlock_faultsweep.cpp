// codlock_faultsweep — crashpoint sweep over every registered fault point.
//
// For each fault point linked into the binary (fault/fault_injector.h) the
// sweep builds a fresh workstation–server stack with a file-backed long
// lock store, establishes a baseline check-out, arms the point with its
// declared worst plausible failure (Trigger::Once), drives check-out /
// conflicting check-out / check-in traffic through it, then simulates the
// restart (`Server::CrashAndRestart`) and asserts:
//
//   * recovery itself reports no error,
//   * the baseline check-out's long locks survived,
//   * `Server::Audit` holds: no blocked waiter, no lock owned by a dead
//     transaction (orphan reap), no long lock without a lease, and the
//     protocol validator finds no undetected conflict in the recovered
//     grant set,
//   * the server is usable: the surviving ticket checks in cleanly and a
//     fresh check-out of the same data succeeds.
//
// Each `store/*` point runs twice: once where the victim traffic hits it on
// the long-lock log's append path, and once after a torn tail has been
// salvaged at a restart, so that the victim's first persist is a snapshot
// and hits it on the compaction path.
//
// The separate `truncate` mode is the torn-write sweep: it writes a
// snapshot and three log frames, then truncates the store file at *every*
// byte offset and asserts that loading never fails and recovers exactly
// the longest intact prefix of those writes (the empty generation 0 before
// the snapshot is whole).
//
// The `leases` mode crash-injects the lease subsystem's own fault points
// (`ws.lease.expire`, `ws.lease.reclaim`, `ws.checkin.fenced`): an
// exclusive check-out is driven past its lease deadline + grace, the
// reclamation sweep (or the fenced zombie check-in) crashes at the armed
// point, the server restarts, and the post-restart state must converge —
// the expired ticket holds no locks, `Server::Audit` holds (fencing epochs
// never regress below what the audit saw before the crash), the zombie
// check-in is refused, and the cell can be checked out again.
//
// The `ring` mode (also reachable as `--ring`) crash-injects the
// out-of-process serving surface (`ws.ring.publish`, `ws.ring.torn_frame`,
// `ws.ring.consume`, `ws.host.crash`, `ws.handle.die`, `ws.handle.wedge`):
// a baseline check-out is established *through* a client handle and the
// shared-memory job ring, victim traffic is driven into the armed point,
// then the host crashes and restarts.  Every point must converge — the
// baseline's long locks survive and its ticket still checks in, zombie
// handles are rejected with kFenced until they re-attach, and after the
// sweeps `Host::AuditDrained` holds: no orphan lock, no blocked waiter,
// no lease left, the ring drained to empty with its frame-conservation
// identities intact (every published frame consumed, salvaged or
// reclaimed), and no fencing or handle epoch regressed.  The mode
// finishes with a fleet chaos run (default 1000 handles) whose
// self-checks must come back clean.
//
// The `shm` mode (also reachable as `--shm`) sweeps the real segment
// layer (ws/shm_segment.h).  Syscall leg: each of `ws.shm.open`,
// `ws.shm.truncate`, `ws.shm.map` is armed while a host builds its ring
// over a fresh `shm_open` segment — the failure must surface as the
// ring's init Status (never an abort), and a rebuild with nothing armed
// must serve a full cross-process publish/drain/take round trip over the
// same name.  Corruption leg: every single-byte flip of the 256-byte
// superblock header must salvage the surviving copy (newest valid wins,
// and an attacher pinned to the newer incarnation is fenced when only
// the older copy survives); flipping the same byte in both copies must
// fail closed with kCorrupt; every truncation of the segment file must
// fail closed; a stale expected incarnation must fence.
//
// Usage:
//   codlock_faultsweep [--json] [--dir <scratch-dir>] [--ring] [--shm]
//                      [--fleet-handles <n>] [--fleet-ticks <n>]
//                      [sweep|truncate|leases|ring|shm|all]

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "lock/lock_manager.h"
#include "lock/long_lock_store.h"
#include "sim/fixtures.h"
#include "sim/fleet.h"
#include "tool_common.h"
#include "util/json.h"
#include "ws/host.h"
#include "ws/server.h"

using namespace codlock;

namespace {

struct PointResult {
  std::string point;
  std::string kind;
  bool fired = false;  ///< the armed fault actually triggered
  bool passed = false;
  std::string detail;  ///< first failed assertion (empty when passed)
};

std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/' || c == ' ') c = '_';
  }
  return out;
}

/// Runs the victim workload with \p point armed and checks recovery.  With
/// \p compaction the store file first gets a torn tail that a restart
/// salvages, so the victim's first persist writes a snapshot instead of
/// appending a frame.
PointResult SweepOne(fault::FaultPoint* point, const std::string& dir,
                     bool compaction) {
  PointResult res;
  res.point = point->name() + (compaction ? " [compaction]" : "");
  res.kind = std::string(fault::FaultKindName(point->sweep_kind()));
  auto fail = [&res](const std::string& why) {
    res.passed = false;
    res.detail = why;
    return res;
  };

  sim::CellsFixture f = sim::BuildFigure7Instance();
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 100;  // conflicting check-outs fail fast
  opts.lock_manager.default_timeout_ms = 200;
  opts.storage_path = dir + "/" + Sanitize(res.point) + ".locks";
  std::filesystem::remove(opts.storage_path);
  std::filesystem::remove(opts.storage_path + ".tmp");
  ws::Server server(f.catalog.get(), f.store.get(), opts);

  // Baseline: user 1 holds long X locks on robot r1 before any fault.
  Result<ws::CheckOutTicket> baseline =
      server.CheckOut(1, query::MakeQ2(f.cells));
  if (!baseline.ok()) {
    return fail("baseline check-out failed: " + baseline.status().ToString());
  }
  if (compaction) {
    // A torn tail left by an earlier crash: the restart salvages it, and
    // the store never appends after garbage.
    {
      std::ofstream tail(opts.storage_path, std::ios::binary | std::ios::app);
      tail << "torn";
    }
    Status restarted = server.CrashAndRestart();
    if (!restarted.ok()) {
      return fail("torn-tail restart failed: " + restarted.ToString());
    }
    if (!server.stable_storage().last_load().salvaged) {
      return fail("torn tail was not salvaged");
    }
  }

  // Arm the worst plausible failure of this point, exactly once.
  fault::FaultSpec spec;
  spec.kind = point->sweep_kind();
  spec.trigger = fault::Trigger::Once();
  point->Arm(spec);

  // Victim traffic: a disjoint check-out (persist path), a conflicting
  // check-out (wait path), a check-in (EOT path).  Failures are expected
  // here — they *are* the injected faults.
  Result<ws::CheckOutTicket> disjoint =
      server.CheckOut(2, query::MakeQ1(f.cells));
  server.CheckOut(3, query::MakeQ2(f.cells));  // conflicts with baseline
  if (disjoint.ok()) server.CheckIn(*disjoint);

  res.fired = !point->armed();  // Trigger::Once auto-disarms on fire
  point->Disarm();

  // The crash and the restart.
  Status restarted = server.CrashAndRestart();
  if (!restarted.ok()) {
    return fail("CrashAndRestart failed: " + restarted.ToString());
  }

  // Baseline long locks survived.
  if (server.lock_manager().LocksOf(baseline->txn).empty()) {
    return fail("baseline long locks lost in recovery");
  }

  // No orphans (nothing blocked, every held lock has a live owner and
  // every long lock a lease), and the recovered grant set is coherent.
  if (std::vector<std::string> found = server.Audit(); !found.empty()) {
    return fail(found.front());
  }

  // The server still works: check the baseline in, check the data out
  // again.
  Status checked_in = server.CheckIn(*baseline);
  if (!checked_in.ok()) {
    return fail("post-recovery check-in failed: " + checked_in.ToString());
  }
  Result<ws::CheckOutTicket> again =
      server.CheckOut(9, query::MakeQ2(f.cells));
  if (!again.ok()) {
    return fail("post-recovery check-out failed: " +
                again.status().ToString());
  }
  server.CheckIn(*again);

  res.passed = true;
  return res;
}

/// The exclusive check-out the lease scenarios revolve around: cell c1's
/// local objects (`c_objects`), disjoint from every other cell.
query::Query LeaseCellQuery(const sim::CellsFixture& f) {
  query::Query q;
  q.name = "lease-sweep";
  q.relation = f.cells;
  q.object_key = "c1";
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = query::AccessKind::kUpdate;
  return q;
}

/// Crashes at one lease fault point mid-reclaim (or mid-fenced-check-in)
/// and asserts the restart converges: no expired ticket keeps locks, no
/// fencing epoch regresses, the zombie stays fenced, the cell is
/// re-grantable.
PointResult LeaseSweepOne(fault::FaultPoint* point, const std::string& dir) {
  PointResult res;
  res.point = point->name();
  res.kind = std::string(fault::FaultKindName(point->sweep_kind()));
  auto fail = [&res](const std::string& why) {
    res.passed = false;
    res.detail = why;
    return res;
  };

  sim::CellsFixture f = sim::BuildFigure7Instance();
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 100;
  opts.lock_manager.default_timeout_ms = 200;
  opts.lease.duration_ms = 1000;
  opts.lease.grace_ms = 500;
  opts.storage_path = dir + "/" + Sanitize(point->name()) + ".locks";
  std::filesystem::remove(opts.storage_path);
  std::filesystem::remove(opts.storage_path + ".tmp");
  ws::Server server(f.catalog.get(), f.store.get(), opts);

  Result<ws::CheckOutTicket> w1 = server.CheckOut(
      1, LeaseCellQuery(f), ws::CheckOutMode::kExclusive);
  if (!w1.ok()) {
    return fail("lease check-out failed: " + w1.status().ToString());
  }

  // The audit records the fence-epoch floors the restart may never fall
  // below.
  if (std::vector<std::string> found = server.Audit(); !found.empty()) {
    return fail("before the fault: " + found.front());
  }

  // Let the lease run out completely.
  server.clock().AdvanceMs(opts.lease.duration_ms + opts.lease.grace_ms + 1);

  // `ws.checkin.fenced` only fires on an epoch mismatch, which needs the
  // reclaim to have happened first — sweep cleanly, then present the
  // zombie ticket into the armed point.  The two sweep points crash the
  // reclamation itself.
  const bool fenced_point = point->name() == "ws.checkin.fenced";
  if (fenced_point) server.SweepExpiredLeases();

  fault::FaultSpec spec;
  spec.kind = point->sweep_kind();
  spec.trigger = fault::Trigger::Once();
  point->Arm(spec);
  if (fenced_point) {
    Status s = server.CheckIn(*w1);
    if (s.ok()) {
      point->Disarm();
      return fail("zombie check-in succeeded into the armed fence point");
    }
  } else {
    server.SweepExpiredLeases();
  }
  res.fired = !point->armed();  // Trigger::Once auto-disarms on fire
  point->Disarm();

  Status restarted = server.CrashAndRestart();
  if (!restarted.ok()) {
    return fail("CrashAndRestart failed: " + restarted.ToString());
  }

  // Post-restart convergence: surviving leases were reissued with fresh
  // deadlines — run them out again and sweep with nothing armed.  The end
  // state must be identical to a crash-free reclaim.
  server.clock().AdvanceMs(opts.lease.duration_ms + opts.lease.grace_ms + 1);
  server.SweepExpiredLeases();

  if (!server.lock_manager().LocksOf(w1->txn).empty()) {
    return fail("expired ticket still holds long locks after restart");
  }
  if (server.leases().Has(w1->txn)) {
    return fail("expired lease survived restart + sweep");
  }
  if (std::vector<std::string> found = server.Audit(); !found.empty()) {
    return fail("across the crash: " + found.front());
  }

  // The zombie must stay fenced out...
  Status zombie = server.CheckIn(*w1);
  if (zombie.ok()) {
    return fail("zombie check-in succeeded after reclaim + restart");
  }
  // ...while the cell is re-grantable to someone else.
  Result<ws::CheckOutTicket> w2 = server.CheckOut(
      2, LeaseCellQuery(f), ws::CheckOutMode::kExclusive);
  if (!w2.ok()) {
    return fail("post-reclaim re-grant failed: " + w2.status().ToString());
  }
  Status in = server.CheckIn(*w2);
  if (!in.ok()) {
    return fail("re-granted check-in failed: " + in.ToString());
  }
  if (std::vector<std::string> found = server.Audit(); !found.empty()) {
    return fail(found.front());
  }

  res.passed = true;
  return res;
}

/// The exclusive check-out the ring scenarios revolve around: one cell's
/// local objects, disjoint from every other cell.
query::Query RingCellQuery(const sim::CellsFixture& f, int cell_index) {
  query::Query q;
  q.name = "ring-sweep";
  q.relation = f.cells;
  q.object_key = "c" + std::to_string(cell_index + 1);
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = query::AccessKind::kUpdate;
  return q;
}

/// Crashes at one ring/host/handle fault point mid-traffic, then crashes
/// and restarts the host and asserts the system converges: the baseline
/// ticket survives and checks in, zombies stay fenced until re-attach, no
/// orphan lock remains, the ring drains to empty with its conservation
/// identities intact, and fencing epochs never regress.
PointResult RingSweepOne(fault::FaultPoint* point, const std::string& dir) {
  PointResult res;
  res.point = point->name();
  res.kind = std::string(fault::FaultKindName(point->sweep_kind()));
  auto fail = [&res](const std::string& why) {
    res.passed = false;
    res.detail = why;
    return res;
  };

  sim::CellsFixture f =
      sim::BuildCellsEffectors(sim::CellsParams{4, 4, 2, 8, 2, 42});
  ws::HostOptions opts;
  opts.ring.slots = 8;
  opts.handle_lease_ms = 2'000;
  opts.server.protocol.timeout_ms = 100;
  opts.server.lock_manager.default_timeout_ms = 200;
  opts.server.lease.duration_ms = 1'000;
  opts.server.lease.grace_ms = 500;
  opts.server.storage_path = dir + "/" + Sanitize(point->name()) + ".locks";
  std::filesystem::remove(opts.server.storage_path);
  std::filesystem::remove(opts.server.storage_path + ".tmp");
  ws::Host host(f.catalog.get(), f.store.get(), opts);

  // Baseline: user 1 checks cell c1 out through the ring before any fault.
  ws::Handle baseline(&host);
  if (!baseline.Attach().ok()) return fail("baseline attach failed");
  Result<ws::CheckOutTicket> t =
      baseline.CheckOut(1, RingCellQuery(f, 0), ws::CheckOutMode::kExclusive);
  if (!t.ok()) {
    return fail("baseline check-out failed: " + t.status().ToString());
  }

  // The audit records the fence-epoch and handle-epoch floors the restart
  // may never fall below.
  if (std::vector<std::string> found = host.Audit(); !found.empty()) {
    return fail("before the fault: " + found.front());
  }

  fault::FaultSpec spec;
  spec.kind = point->sweep_kind();
  spec.trigger = fault::Trigger::Once();
  point->Arm(spec);

  // Victim traffic through a second handle: a ping (publish + consume +
  // execute), a disjoint check-out/check-in, an undrained publish, and a
  // final drain.  Failures here *are* the injected faults.
  ws::Handle victim(&host);
  (void)victim.Attach();
  (void)victim.Ping();
  Result<ws::CheckOutTicket> vt =
      victim.CheckOut(2, RingCellQuery(f, 1), ws::CheckOutMode::kExclusive);
  if (vt.ok()) (void)victim.CheckIn(*vt);
  (void)victim.SubmitNoWait(ws::wire::JobOp::kPing, nullptr);
  (void)host.Drain();

  res.fired = !point->armed();  // Trigger::Once auto-disarms on fire
  point->Disarm();

  // The host dies and restarts: a new incarnation over durable state.
  Status restarted = host.CrashAndRestart();
  if (!restarted.ok()) {
    return fail("host CrashAndRestart failed: " + restarted.ToString());
  }

  // Un-reattached handles are zombies: no pre-crash handle may act.
  Status zombie = victim.dead() ? Status::OK() : victim.Ping();
  if (!victim.dead() && zombie.ok()) {
    return fail("zombie submit succeeded after the host restart");
  }

  // The baseline re-attaches; its lease survived the crash (reissued),
  // its long locks were recovered, and its ticket still checks in.
  if (!baseline.Attach().ok()) return fail("baseline re-attach failed");
  if (host.server().lock_manager().LocksOf(t->txn).empty()) {
    return fail("baseline long locks lost in recovery");
  }
  Status checked_in = baseline.CheckIn(*t);
  if (!checked_in.ok()) {
    return fail("post-recovery check-in failed: " + checked_in.ToString());
  }

  // Run every remaining lease out and sweep twice (the second pass mops
  // slots that completed after the first pass fenced their handle).
  host.server().clock().AdvanceMs(opts.handle_lease_ms +
                                  opts.server.lease.duration_ms +
                                  opts.server.lease.grace_ms + 1);
  host.SweepDeadHandles();
  (void)host.Drain();
  host.SweepDeadHandles();

  // Convergence: nothing blocked, no orphan lock, no epoch regressed, no
  // lease left, the ring is empty and every frame is accounted.
  if (std::vector<std::string> found = host.AuditDrained(); !found.empty()) {
    return fail("after restart + sweeps: " + found.front());
  }

  // The ring still serves: a fresh handle checks the cell out and in.
  ws::Handle fresh(&host);
  if (!fresh.Attach().ok()) return fail("fresh attach failed");
  Result<ws::CheckOutTicket> again =
      fresh.CheckOut(9, RingCellQuery(f, 0), ws::CheckOutMode::kExclusive);
  if (!again.ok()) {
    return fail("post-recovery check-out failed: " +
                again.status().ToString());
  }
  Status in = fresh.CheckIn(*again);
  if (!in.ok()) {
    return fail("post-recovery re-grant check-in failed: " + in.ToString());
  }
  if (std::vector<std::string> found = host.Audit(); !found.empty()) {
    return fail(found.front());
  }

  res.passed = true;
  return res;
}

/// Arms one shm syscall fault point under a host building its ring over
/// a real segment: the failure must surface as the ring's init Status,
/// and a rebuild (nothing armed) must serve a cross-process round trip.
PointResult ShmSyscallSweepOne(fault::FaultPoint* point) {
  PointResult res;
  res.point = point->name();
  res.kind = std::string(fault::FaultKindName(point->sweep_kind()));
  auto fail = [&res](const std::string& why) {
    res.passed = false;
    res.detail = why;
    return res;
  };
  const std::string shm_name =
      "/codlock-faultsweep-" + Sanitize(point->name()) + "-" +
      std::to_string(static_cast<long>(getpid()));

  sim::CellsFixture f = sim::BuildFigure7Instance();
  ws::HostOptions opts;
  opts.ring.backend = ws::RingBackend::kShmCreate;
  opts.ring.shm_name = shm_name;
  opts.ring.slots = 8;

  fault::FaultSpec spec;
  spec.kind = point->sweep_kind();
  spec.trigger = fault::Trigger::Once();
  point->Arm(spec);
  {
    ws::Host broken(f.catalog.get(), f.store.get(), opts);
    res.fired = !point->armed();  // Trigger::Once auto-disarms on fire
    point->Disarm();
    if (broken.ring_status().ok()) {
      return fail("ring init succeeded into the armed point");
    }
  }

  // Recovery: the same name must come up fresh and serve end to end.
  ws::Host host(f.catalog.get(), f.store.get(), opts);
  if (!host.ring_status().ok()) {
    return fail("rebuild failed: " + host.ring_status().ToString());
  }
  ws::ShmRing client(
      ws::RingOptions::AttachTo(shm_name, host.incarnation()));
  if (!client.init_status().ok()) {
    return fail("client attach failed: " + client.init_status().ToString());
  }
  ws::HandleInfo info = host.Attach();
  ws::FrameHeader header;
  header.handle_id = info.handle_id;
  header.handle_epoch = info.epoch;
  header.job_id = 1;
  Result<size_t> slot = client.Publish(header, ws::wire::EncodePingRequest());
  if (!slot.ok()) {
    return fail("publish failed: " + slot.status().ToString());
  }
  if (!host.Drain().ok()) return fail("drain failed");
  Result<std::string> resp = client.TakeResponse(*slot, 1);
  if (!resp.ok()) {
    return fail("take failed: " + resp.status().ToString());
  }
  (void)ws::ShmSegment::UnlinkName(shm_name);
  res.passed = true;
  return res;
}

struct ShmCorruptionResult {
  size_t flips = 0;             ///< single-byte flips attached through
  size_t salvaged_newest = 0;   ///< attach salvaged the newer generation
  size_t salvaged_older = 0;    ///< attach fell back to the older copy
  size_t double_corrupt = 0;    ///< both-copy corruptions (must fail closed)
  size_t truncations = 0;       ///< truncated lengths (must fail closed)
  bool fenced_on_stale = false;
  bool fenced_on_salvage = false;
  bool passed = false;
  std::string detail;
};

/// The byte-level segment sweep: single flips salvage, double flips and
/// truncations fail closed, stale incarnations fence.
ShmCorruptionResult ShmCorruptionSweep() {
  ShmCorruptionResult res;
  auto fail = [&res](const std::string& why) {
    if (res.detail.empty()) res.detail = why;
    return res;
  };
  const std::string name =
      "/codlock-faultsweep-corrupt-" +
      std::to_string(static_cast<long>(getpid()));
  const std::string path = "/dev/shm" + name;  // Linux shm_open backing
  constexpr uint64_t kPayload = 64;
  const size_t full = ws::ShmSegment::kHeaderBytes + kPayload;
  {
    ws::ShmSegment created;
    ws::SegmentConfig cfg;
    cfg.name = name;
    cfg.payload_bytes = kPayload;
    cfg.incarnation = 7;
    Status s = created.Create(cfg);
    if (!s.ok()) return fail("seed create failed: " + s.ToString());
    s = created.StampIncarnation(8);  // generation 2 onto copy B
    if (!s.ok()) return fail("seed stamp failed: " + s.ToString());
  }
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    image = buf.str();
  }
  if (image.size() != full) return fail("segment file has unexpected size");

  auto restore = [&] {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  };
  auto flip = [&](size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(image[offset] ^ 0xFF));
  };

  // Single flips: the other copy must salvage, newest valid copy wins.
  for (size_t off = 0; off < ws::ShmSegment::kHeaderBytes; ++off) {
    restore();
    flip(off);
    ws::ShmSegment seg;
    Status s = seg.Attach(name, 0);
    ++res.flips;
    if (!s.ok()) {
      fail("flip at " + std::to_string(off) + " did not salvage: " +
           s.ToString());
      continue;
    }
    if (seg.incarnation() == 8) {
      ++res.salvaged_newest;
    } else if (seg.incarnation() == 7) {
      ++res.salvaged_older;
    } else {
      fail("flip at " + std::to_string(off) + " salvaged incarnation " +
           std::to_string(seg.incarnation()));
    }
  }
  // An attacher pinned to the newer incarnation must be fenced when only
  // the older copy survived — never silently served stale geometry.
  restore();
  flip(ws::ShmSegment::kSuperblockBytes + 16);
  {
    ws::ShmSegment pinned;
    res.fenced_on_salvage = pinned.Attach(name, 8).IsFenced();
    if (!res.fenced_on_salvage) fail("salvage to older copy did not fence");
  }
  // Both copies corrupted at the same offset: fail closed.
  for (size_t off = 0; off < ws::ShmSegment::kSuperblockBytes; ++off) {
    restore();
    flip(off);
    flip(ws::ShmSegment::kSuperblockBytes + off);
    ws::ShmSegment seg;
    if (!seg.Attach(name, 0).IsCorrupt()) {
      fail("double corruption at " + std::to_string(off) +
           " did not fail closed");
    }
    ++res.double_corrupt;
  }
  // Every truncation: fail closed, never a fault.
  for (size_t len = 0; len < full; ++len) {
    restore();
    if (truncate(path.c_str(), static_cast<off_t>(len)) != 0) {
      fail("truncate syscall failed");
      break;
    }
    ws::ShmSegment seg;
    if (!seg.Attach(name, 0).IsCorrupt()) {
      fail("truncation to " + std::to_string(len) + " did not fail closed");
    }
    ++res.truncations;
  }
  restore();
  {
    ws::ShmSegment stale;
    res.fenced_on_stale = stale.Attach(name, 99).IsFenced();
    if (!res.fenced_on_stale) fail("stale incarnation did not fence");
  }
  (void)ws::ShmSegment::UnlinkName(name);
  res.passed = res.detail.empty() && res.salvaged_newest > 0 &&
               res.salvaged_older > 0;
  if (!res.passed && res.detail.empty()) {
    res.detail = "expected both salvage directions to occur";
  }
  return res;
}

struct FleetRunResult {
  int clients = 0;
  int ticks = 0;
  std::string summary;
  std::vector<std::string> violations;
  bool passed = false;
};

/// The 1000-handle (by default) fleet chaos run: kills, wedges, zombies,
/// torn publishes and host crashes, with the driver's self-checking
/// invariants as the pass criterion.
FleetRunResult FleetRun(int clients, int ticks) {
  FleetRunResult res;
  res.clients = clients;
  res.ticks = ticks;
  sim::FleetConfig cfg;
  cfg.clients = clients;
  cfg.ticks = ticks;
  cfg.owned_cells = std::min(32, clients);
  cfg.shared_cells = 8;
  cfg.seed = 20260808;
  sim::CellsFixture f = sim::BuildCellsEffectors(sim::CellsParams{
      cfg.owned_cells + cfg.shared_cells, 4, 2, 16, 2, 42});
  ws::Host host(f.catalog.get(), f.store.get(), cfg.host);
  sim::FleetReport report = sim::RunFleet(host, f, cfg);
  res.summary = report.Summary();
  res.violations = report.violations;
  res.passed = report.clean();
  return res;
}

struct TruncateResult {
  size_t offsets = 0;       ///< truncation points exercised
  size_t failed_loads = 0;  ///< loads that failed or recovered anything but
                            ///< the longest intact prefix (must be 0)
  std::vector<size_t> recovered;  ///< cuts that recovered generation g
  bool passed = false;
  std::string detail;
};

/// A store's content as sorted text, comparable across stores.
std::vector<std::string> StoreState(const lock::LongLockStore& store) {
  std::vector<std::string> out;
  for (const lock::LongLockRecord& r : store.records()) {
    out.push_back("lock " + std::to_string(r.txn) + " " +
                  r.resource.ToString() + " " +
                  std::to_string(static_cast<int>(r.mode)));
  }
  for (const lock::FenceEpochRecord& e : store.FenceEpochs()) {
    out.push_back("epoch " + e.root.ToString() + " " +
                  std::to_string(e.epoch));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Writes a [snapshot][frame][frame][frame] store file, truncates it at
/// every byte offset and asserts the load recovers exactly the longest
/// intact prefix of those writes.
TruncateResult TruncateSweep(const std::string& dir) {
  TruncateResult res;
  const std::string path = dir + "/truncate.locks";
  const std::string cut = dir + "/truncate.cut.locks";
  std::filesystem::remove(path);

  lock::LockManager lm;
  lock::AcquireOptions long_opts;
  long_opts.duration = lock::LockDuration::kLong;
  lock::LongLockStore store;
  store.SetBackingFile(path);
  // State and file length after each write; index = generation.
  std::vector<std::vector<std::string>> states = {{}};
  std::vector<uintmax_t> ends = {0};
  Status written;
  auto wrote = [&](Status s) {
    if (written.ok()) written = s;
    states.push_back(StoreState(store));
    std::error_code ec;
    ends.push_back(std::filesystem::file_size(path, ec));
  };
  lm.Acquire(1, {1, 1}, lock::LockMode::kX, long_opts);
  lm.Acquire(1, {2, 7}, lock::LockMode::kS, long_opts);
  wrote(store.Save(lm));  // 1: the snapshot
  lm.Acquire(2, {3, 9}, lock::LockMode::kX, long_opts);
  wrote(store.Append(2, lm));  // 2: a check-out's frame
  store.BumpFenceEpoch({1, 1});
  lm.ReleaseAll(1);
  wrote(store.Append(1, lm));  // 3: a reclaim's frame (drop + epoch)
  lm.Acquire(3, {1, 1}, lock::LockMode::kX, long_opts);
  wrote(store.Append(3, lm));  // 4: a re-grant's frame
  if (!written.ok()) {
    res.detail = "seeding writes failed: " + written.ToString();
    return res;
  }

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string image = buf.str();
  if (image.size() != ends.back()) {
    res.detail = "store image has unexpected size";
    return res;
  }

  res.recovered.assign(states.size(), 0);
  for (size_t len = 0; len <= image.size(); ++len) {
    {
      std::ofstream out(cut, std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(len));
    }
    lock::LongLockStore probe;
    Status loaded = probe.LoadFromFile(cut);
    ++res.offsets;
    // The longest intact prefix: every write that ends within the cut.
    const size_t want = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), len) - ends.begin() - 1);
    std::string why;
    if (!loaded.ok()) {
      why = "load failed: " + loaded.ToString();
    } else if (probe.generation() != want) {
      why = "recovered generation " + std::to_string(probe.generation()) +
            ", want " + std::to_string(want);
    } else if (StoreState(probe) != states[want]) {
      why = "recovered state differs from generation " + std::to_string(want);
    }
    if (!why.empty()) {
      ++res.failed_loads;
      if (res.detail.empty()) {
        res.detail = why + " at offset " + std::to_string(len);
      }
      continue;
    }
    ++res.recovered[want];
  }
  res.passed = res.failed_loads == 0 &&
               std::find(res.recovered.begin(), res.recovered.end(), 0u) ==
                   res.recovered.end();
  if (!res.passed && res.detail.empty()) {
    res.detail = "expected every generation to be recoverable";
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/codlock_faultsweep";
  std::string mode = "all";
  int fleet_handles = 1000;
  int fleet_ticks = 120;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--ring") {
      mode = "ring";
    } else if (arg == "--shm") {
      mode = "shm";
    } else if (arg == "--fleet-handles" && i + 1 < argc) {
      fleet_handles = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--fleet-ticks" && i + 1 < argc) {
      fleet_ticks = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "sweep" || arg == "truncate" || arg == "leases" ||
               arg == "ring" || arg == "shm" || arg == "all") {
      mode = arg;
    } else {
      std::cerr << "usage: codlock_faultsweep [--json] [--dir <d>] [--ring] "
                   "[--shm] [--fleet-handles <n>] [--fleet-ticks <n>] "
                   "[sweep|truncate|leases|ring|shm|all]\n";
      return toolcli::kExitUsage;
    }
  }
  std::filesystem::create_directories(dir);

  std::vector<PointResult> points;
  std::vector<PointResult> leases;
  std::vector<PointResult> ring;
  std::vector<PointResult> shm;
  FleetRunResult fleet;
  TruncateResult trunc;
  ShmCorruptionResult corrupt;
  bool ok = true;
  const bool ring_mode = mode == "ring" || mode == "all";
  const bool shm_mode = mode == "shm" || mode == "all";

  if (mode == "sweep" || mode == "all") {
    for (fault::FaultPoint* p : fault::AllPoints()) {
      for (bool compaction : {false, true}) {
        if (compaction && !p->name().starts_with("store/")) continue;
        PointResult r = SweepOne(p, dir, compaction);
        fault::DisarmAll();  // belt and braces between scenarios
        ok = ok && r.passed;
        points.push_back(std::move(r));
      }
    }
  }
  if (mode == "leases" || mode == "all") {
    for (const char* name :
         {"ws.lease.expire", "ws.lease.reclaim", "ws.checkin.fenced"}) {
      fault::FaultPoint* p = fault::FindPoint(name);
      if (p == nullptr) {
        PointResult r;
        r.point = name;
        r.detail = "fault point not registered";
        ok = false;
        leases.push_back(std::move(r));
        continue;
      }
      PointResult r = LeaseSweepOne(p, dir);
      fault::DisarmAll();
      ok = ok && r.passed;
      leases.push_back(std::move(r));
    }
  }
  if (ring_mode) {
    for (const char* name :
         {"ws.ring.publish", "ws.ring.torn_frame", "ws.ring.consume",
          "ws.host.crash", "ws.handle.die", "ws.handle.wedge"}) {
      fault::FaultPoint* p = fault::FindPoint(name);
      if (p == nullptr) {
        PointResult r;
        r.point = name;
        r.detail = "fault point not registered";
        ok = false;
        ring.push_back(std::move(r));
        continue;
      }
      PointResult r = RingSweepOne(p, dir);
      fault::DisarmAll();
      ok = ok && r.passed;
      ring.push_back(std::move(r));
    }
    fleet = FleetRun(fleet_handles, fleet_ticks);
    ok = ok && fleet.passed;
  }
  if (shm_mode) {
    for (const char* name : {"ws.shm.open", "ws.shm.truncate", "ws.shm.map"}) {
      fault::FaultPoint* p = fault::FindPoint(name);
      if (p == nullptr) {
        PointResult r;
        r.point = name;
        r.detail = "fault point not registered";
        ok = false;
        shm.push_back(std::move(r));
        continue;
      }
      PointResult r = ShmSyscallSweepOne(p);
      fault::DisarmAll();
      ok = ok && r.passed;
      shm.push_back(std::move(r));
    }
    corrupt = ShmCorruptionSweep();
    ok = ok && corrupt.passed;
  }
  if (mode == "truncate" || mode == "all") {
    trunc = TruncateSweep(dir);
    ok = ok && trunc.passed;
  }

  if (json) {
    std::ostringstream os;
    os << "{\n  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const PointResult& r = points[i];
      os << "    {\"point\": \"" << JsonEscape(r.point)
         << "\", \"kind\": \""
         << r.kind << "\", \"fired\": " << (r.fired ? "true" : "false")
         << ", \"passed\": " << (r.passed ? "true" : "false")
         << ", \"detail\": \"" << JsonEscape(r.detail) << "\"}"
         << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"leases\": [\n";
    for (size_t i = 0; i < leases.size(); ++i) {
      const PointResult& r = leases[i];
      os << "    {\"point\": \"" << JsonEscape(r.point)
         << "\", \"kind\": \""
         << r.kind << "\", \"fired\": " << (r.fired ? "true" : "false")
         << ", \"passed\": " << (r.passed ? "true" : "false")
         << ", \"detail\": \"" << JsonEscape(r.detail) << "\"}"
         << (i + 1 < leases.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"ring\": [\n";
    for (size_t i = 0; i < ring.size(); ++i) {
      const PointResult& r = ring[i];
      os << "    {\"point\": \"" << JsonEscape(r.point)
         << "\", \"kind\": \""
         << r.kind << "\", \"fired\": " << (r.fired ? "true" : "false")
         << ", \"passed\": " << (r.passed ? "true" : "false")
         << ", \"detail\": \"" << JsonEscape(r.detail) << "\"}"
         << (i + 1 < ring.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"shm\": [\n";
    for (size_t i = 0; i < shm.size(); ++i) {
      const PointResult& r = shm[i];
      os << "    {\"point\": \"" << JsonEscape(r.point)
         << "\", \"kind\": \""
         << r.kind << "\", \"fired\": " << (r.fired ? "true" : "false")
         << ", \"passed\": " << (r.passed ? "true" : "false")
         << ", \"detail\": \"" << JsonEscape(r.detail) << "\"}"
         << (i + 1 < shm.size() ? "," : "") << "\n";
    }
    os << "  ]";
    if (shm_mode) {
      os << ",\n  \"shm_corruption\": {\"flips\": " << corrupt.flips
         << ", \"salvaged_newest\": " << corrupt.salvaged_newest
         << ", \"salvaged_older\": " << corrupt.salvaged_older
         << ", \"double_corrupt\": " << corrupt.double_corrupt
         << ", \"truncations\": " << corrupt.truncations
         << ", \"fenced_on_stale\": "
         << (corrupt.fenced_on_stale ? "true" : "false")
         << ", \"fenced_on_salvage\": "
         << (corrupt.fenced_on_salvage ? "true" : "false")
         << ", \"passed\": " << (corrupt.passed ? "true" : "false")
         << ", \"detail\": \"" << JsonEscape(corrupt.detail) << "\"}";
    }
    if (ring_mode) {
      os << ",\n  \"fleet\": {\"handles\": " << fleet.clients
         << ", \"ticks\": " << fleet.ticks << ", \"violations\": [";
      for (size_t i = 0; i < fleet.violations.size(); ++i) {
        os << (i ? ", " : "") << "\""
           << JsonEscape(fleet.violations[i]) << "\"";
      }
      os << "], \"passed\": " << (fleet.passed ? "true" : "false")
         << ", \"summary\": \"" << JsonEscape(fleet.summary) << "\"}";
    }
    if (mode == "truncate" || mode == "all") {
      os << ",\n  \"truncate\": {\"offsets\": " << trunc.offsets
         << ", \"failed_loads\": " << trunc.failed_loads
         << ", \"recovered_per_generation\": [";
      for (size_t g = 0; g < trunc.recovered.size(); ++g) {
        os << (g ? ", " : "") << trunc.recovered[g];
      }
      os << "], \"passed\": " << (trunc.passed ? "true" : "false")
         << ", \"detail\": \"" << JsonEscape(trunc.detail) << "\"}";
    }
    os << ",\n  \"passed\": " << (ok ? "true" : "false") << "\n}\n";
    std::cout << os.str();
  } else {
    for (const PointResult& r : points) {
      std::cout << (r.passed ? "PASS " : "FAIL ") << r.point << " ("
                << r.kind << (r.fired ? ", fired" : ", not traversed")
                << ")" << (r.detail.empty() ? "" : ": " + r.detail) << "\n";
    }
    for (const PointResult& r : leases) {
      std::cout << (r.passed ? "PASS " : "FAIL ") << "lease scenario "
                << r.point << " (" << r.kind
                << (r.fired ? ", fired" : ", not traversed") << ")"
                << (r.detail.empty() ? "" : ": " + r.detail) << "\n";
    }
    for (const PointResult& r : ring) {
      std::cout << (r.passed ? "PASS " : "FAIL ") << "ring scenario "
                << r.point << " (" << r.kind
                << (r.fired ? ", fired" : ", not traversed") << ")"
                << (r.detail.empty() ? "" : ": " + r.detail) << "\n";
    }
    for (const PointResult& r : shm) {
      std::cout << (r.passed ? "PASS " : "FAIL ") << "shm scenario "
                << r.point << " (" << r.kind
                << (r.fired ? ", fired" : ", not traversed") << ")"
                << (r.detail.empty() ? "" : ": " + r.detail) << "\n";
    }
    if (shm_mode) {
      std::cout << (corrupt.passed ? "PASS " : "FAIL ")
                << "shm corruption sweep: " << corrupt.flips << " flips ("
                << corrupt.salvaged_newest << " newest / "
                << corrupt.salvaged_older << " older salvages), "
                << corrupt.double_corrupt << " double corruptions, "
                << corrupt.truncations << " truncations, fenced stale="
                << (corrupt.fenced_on_stale ? "yes" : "no") << " salvage="
                << (corrupt.fenced_on_salvage ? "yes" : "no")
                << (corrupt.detail.empty() ? "" : ": " + corrupt.detail)
                << "\n";
    }
    if (ring_mode) {
      std::cout << (fleet.passed ? "PASS " : "FAIL ") << "fleet chaos: "
                << fleet.clients << " handles, " << fleet.ticks << " ticks, "
                << fleet.violations.size() << " violations; " << fleet.summary
                << "\n";
      for (const std::string& v : fleet.violations) {
        std::cout << "  violation: " << v << "\n";
      }
    }
    if (mode == "truncate" || mode == "all") {
      std::cout << (trunc.passed ? "PASS " : "FAIL ")
                << "truncate sweep: " << trunc.offsets << " offsets, "
                << trunc.failed_loads
                << " failed loads, cuts recovering generation 0.."
                << (trunc.recovered.empty() ? 0 : trunc.recovered.size() - 1)
                << " =";
      for (size_t n : trunc.recovered) std::cout << " " << n;
      std::cout << (trunc.detail.empty() ? "" : ": " + trunc.detail) << "\n";
    }
    std::cout << (ok ? "crashpoint sweep passed" : "crashpoint sweep FAILED")
              << "\n";
  }
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}
