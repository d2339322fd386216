/// Tests for the out-of-process serving split: the shared-memory job
/// ring (CRC-stamped frames, slot state machine, torn-write salvage),
/// the host's handle registry (admission control, dead-handle fencing,
/// host-crash zombies), the client handle (wire codec, shed retry
/// loop), the sweep-vs-restart lifecycle race regression, and the fleet
/// chaos driver's self-checks.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "fault/fault_injector.h"
#include "proto/validator.h"
#include "util/futex.h"
#include "sim/fixtures.h"
#include "sim/fleet.h"
#include "ws/handle.h"
#include "ws/host.h"
#include "ws/shm_ring.h"

namespace codlock::ws {
namespace {

using sim::BuildCellsEffectors;
using sim::CellsFixture;
using sim::CellsParams;

query::Query CellQuery(const CellsFixture& fx, int cell_index,
                       query::AccessKind kind = query::AccessKind::kUpdate) {
  query::Query q;
  q.name = "T" + std::to_string(cell_index + 1);
  q.relation = fx.cells;
  q.object_key = "c" + std::to_string(cell_index + 1);
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = kind;
  return q;
}

// --- wire codec ---------------------------------------------------------

TEST(WireTest, QueryRoundTrip) {
  query::Query q;
  q.name = "Q2";
  q.relation = 7;
  q.object_key = "c1";
  q.path = {nf2::PathStep::Field("robots"),
            nf2::PathStep::Elem("robots", "r1"), nf2::PathStep::At("arms", 2)};
  q.kind = query::AccessKind::kUpdate;
  q.selectivity = 0.25;
  q.access_implies_refs = false;

  wire::Writer w;
  wire::EncodeQuery(w, q);
  const std::string frame = w.Take();
  wire::Reader r(frame);
  query::Query back;
  ASSERT_TRUE(wire::DecodeQuery(r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.name, q.name);
  EXPECT_EQ(back.relation, q.relation);
  EXPECT_EQ(back.object_key, q.object_key);
  ASSERT_EQ(back.path.size(), q.path.size());
  EXPECT_EQ(back.path[1].elem_key, "r1");
  EXPECT_EQ(back.path[2].index, 2);
  EXPECT_EQ(back.kind, q.kind);
  EXPECT_DOUBLE_EQ(back.selectivity, q.selectivity);
  EXPECT_FALSE(back.access_implies_refs);
}

TEST(WireTest, ResponseCarriesStatusAndTicket) {
  CheckOutTicket t;
  t.txn = 42;
  t.user = 7;
  t.mode = CheckOutMode::kDerive;
  t.query.name = "Q1";
  t.lease_deadline_ms = 1234;
  t.lease_grace_ms = 99;
  t.fence.push_back({lock::ResourceId{3, 17}, 5});

  const std::string ok = wire::EncodeResponse(Status::OK(), &t);
  CheckOutTicket back;
  EXPECT_TRUE(wire::DecodeResponse(ok, &back).ok());
  EXPECT_EQ(back.txn, t.txn);
  EXPECT_EQ(back.mode, CheckOutMode::kDerive);
  ASSERT_EQ(back.fence.size(), 1u);
  EXPECT_EQ(back.fence[0].root.node, 3u);
  EXPECT_EQ(back.fence[0].root.instance, 17u);
  EXPECT_EQ(back.fence[0].epoch, 5u);

  const std::string fenced =
      wire::EncodeResponse(Status::Fenced("stale epoch"), nullptr);
  Status s = wire::DecodeResponse(fenced, nullptr);
  EXPECT_TRUE(s.IsFenced());
  EXPECT_EQ(s.message(), "stale epoch");
}

TEST(WireTest, MalformedFramesNeverDecode) {
  // Truncations of a valid request must fail cleanly, never read OOB.
  CheckOutTicket t;
  t.query.path = {nf2::PathStep::Field("c_objects")};
  const std::string frame =
      wire::EncodeTicketRequest(wire::JobOp::kCheckIn, t);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    wire::Request req;
    EXPECT_FALSE(wire::DecodeRequest(frame.substr(0, cut), &req))
        << "cut=" << cut;
  }
  wire::Request req;
  EXPECT_TRUE(wire::DecodeRequest(frame, &req));
  EXPECT_EQ(req.op, wire::JobOp::kCheckIn);
}

// --- ring state machine -------------------------------------------------

RingOptions Opts(size_t slots, size_t payload_capacity) {
  RingOptions o;
  o.slots = slots;
  o.payload_capacity = payload_capacity;
  return o;
}

TEST(ShmRingTest, PublishConsumeCompleteTake) {
  ShmRing ring(Opts(4, 256));
  FrameHeader h;
  h.handle_id = 1;
  h.handle_epoch = 1;
  h.job_id = 9;
  Result<size_t> slot = ring.Publish(h, "payload");
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(ring.StateOf(*slot), SlotState::kPublished);

  Result<ShmRing::Job> job = ring.Consume();
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->slot, *slot);
  EXPECT_EQ(job->payload, "payload");
  EXPECT_EQ(job->header.job_id, 9u);
  EXPECT_FALSE(ring.Done(*slot, 9));

  ring.Complete(job->slot, "response");
  EXPECT_TRUE(ring.Done(*slot, 9));
  Result<std::string> resp = ring.TakeResponse(*slot, 9);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, "response");
  EXPECT_EQ(ring.StateOf(*slot), SlotState::kFree);
  EXPECT_EQ(ring.InFlight(), 0u);

  const ShmRing::Counters c = ring.counters();
  EXPECT_EQ(c.published, 1u);
  EXPECT_EQ(c.consumed, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.taken, 1u);
}

TEST(ShmRingTest, FullRingShedsAndOversizeRejected) {
  ShmRing ring(Opts(2, 64));
  FrameHeader h;
  h.handle_id = 1;
  ASSERT_TRUE(ring.Publish(h, "a").ok());
  ASSERT_TRUE(ring.Publish(h, "b").ok());
  EXPECT_TRUE(ring.Publish(h, "c").status().IsShed());
  EXPECT_TRUE(
      ring.Publish(h, std::string(65, 'x')).status().IsInvalidArgument());
}

TEST(ShmRingTest, TornFrameIsSalvagedNotExecuted) {
  ShmRing ring(Opts(4, 256));
  FrameHeader torn;
  torn.handle_id = 5;
  torn.job_id = 1;
  ASSERT_TRUE(ring.Publish(torn, "half-written payload",
                           PublishFault::kTornFrame)
                  .ok());
  FrameHeader good;
  good.handle_id = 6;
  good.job_id = 2;
  ASSERT_TRUE(ring.Publish(good, "intact").ok());

  std::vector<ShmRing::SalvagedFrame> salvaged;
  Result<ShmRing::Job> job = ring.Consume(&salvaged);
  ASSERT_TRUE(job.ok());
  // The torn frame was skipped and its slot freed; only the intact one
  // reached execution.
  EXPECT_EQ(job->header.handle_id, 6u);
  ASSERT_EQ(salvaged.size(), 1u);
  EXPECT_EQ(salvaged[0].handle_id, 5u);
  const ShmRing::Counters c = ring.counters();
  EXPECT_EQ(c.salvaged, 1u);
  EXPECT_EQ(c.torn_writes, 1u);
  EXPECT_EQ(c.published, 2u);
}

TEST(ShmRingTest, DieMidWriteStrandsUntilReclaimed) {
  ShmRing ring(Opts(2, 64));
  FrameHeader h;
  h.handle_id = 3;
  h.job_id = 1;
  Status died =
      ring.Publish(h, "never finished", PublishFault::kDieMidWrite).status();
  EXPECT_TRUE(died.IsAborted()) << died.ToString();
  EXPECT_EQ(ring.InFlight(), 1u);
  EXPECT_TRUE(ring.Consume().status().IsNotFound());  // not published

  EXPECT_EQ(ring.ReclaimHandleSlots(3), 1u);
  EXPECT_EQ(ring.InFlight(), 0u);
  EXPECT_EQ(ring.counters().reclaimed_writing, 1u);
  EXPECT_EQ(ring.counters().crashed_writes, 1u);
}

TEST(ShmRingTest, TakeVerifiesJobStampAcrossReuse) {
  ShmRing ring(Opts(1, 64));
  FrameHeader h;
  h.handle_id = 1;
  h.job_id = 1;
  Result<size_t> slot = ring.Publish(h, "first");
  ASSERT_TRUE(slot.ok());
  // The handle dies; its slot is reclaimed and reused by another job.
  ASSERT_EQ(ring.ReclaimHandleSlots(1), 1u);
  FrameHeader h2;
  h2.handle_id = 2;
  h2.job_id = 7;
  ASSERT_TRUE(ring.Publish(h2, "second").ok());
  // A zombie take for the dead job must not steal the new occupant.
  EXPECT_TRUE(ring.TakeResponse(*slot, 1).status().IsNotFound());
  Result<ShmRing::Job> job = ring.Consume();
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->payload, "second");
}

TEST(ShmRingTest, ResetAccountsEveryLostFrame) {
  ShmRing ring(Opts(4, 64));
  FrameHeader h;
  h.handle_id = 1;
  ASSERT_TRUE(ring.Publish(h, "published-not-consumed").ok());
  h.job_id = 2;
  Result<size_t> s2 = ring.Publish(h, "executing");
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(ring.Consume().ok());  // s2 now kExecuting... or s1
  ring.Reset();
  EXPECT_EQ(ring.InFlight(), 0u);
  const ShmRing::Counters c = ring.counters();
  // Conservation across the crash: both frames are accounted.
  EXPECT_EQ(c.published, 2u);
  EXPECT_EQ(c.consumed + c.reclaimed_published, 2u);
  EXPECT_EQ(c.consumed, c.completed + c.reclaimed_executing);
}

// --- shm backend + futex wait + reclaim scopes --------------------------

RingOptions ShmOpts(const char* name, size_t slots, size_t cap,
                    uint64_t incarnation) {
  RingOptions o = Opts(slots, cap);
  o.backend = RingBackend::kShmCreate;
  o.shm_name = name;
  o.incarnation = incarnation;
  return o;
}

TEST(ShmRingTest, ShmBackendCrossAttachRoundTrip) {
  ShmRing host(ShmOpts("/codlock-test-roundtrip", 4, 256, 7));
  ASSERT_TRUE(host.init_status().ok()) << host.init_status().ToString();
  EXPECT_EQ(host.incarnation(), 7u);

  // A second ring attaches to the same segment — the stand-in for a
  // client process; geometry and counters come from the superblock.
  ShmRing client(RingOptions::AttachTo("/codlock-test-roundtrip", 7));
  ASSERT_TRUE(client.init_status().ok()) << client.init_status().ToString();
  EXPECT_EQ(client.slots(), 4u);
  EXPECT_EQ(client.payload_capacity(), 256u);

  FrameHeader h;
  h.handle_id = 1;
  h.job_id = 5;
  Result<size_t> slot = client.Publish(h, "cross-process ping");
  ASSERT_TRUE(slot.ok());
  // The host sees the client's frame through the shared image.
  Result<ShmRing::Job> job = host.Consume();
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->payload, "cross-process ping");
  EXPECT_TRUE(host.Complete(job->slot, "pong"));
  EXPECT_TRUE(client.WaitDone(*slot, 5, 1'000'000));
  Result<std::string> resp = client.TakeResponse(*slot, 5);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(*resp, "pong");

  // One shared ledger: the client's publish/take and the host's
  // consume/complete all landed in the same counters.
  const ShmRing::Counters c = host.counters();
  EXPECT_EQ(c.published, 1u);
  EXPECT_EQ(c.consumed, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.taken, 1u);
  EXPECT_EQ(client.counters().published, 1u);
}

TEST(ShmRingTest, ShmAttachStaleIncarnationIsFenced) {
  ShmRing host(ShmOpts("/codlock-test-fence", 2, 64, 3));
  ASSERT_TRUE(host.init_status().ok()) << host.init_status().ToString();

  // A zombie expecting the old incarnation is fenced at attach.
  ShmRing zombie(RingOptions::AttachTo("/codlock-test-fence", 2));
  EXPECT_TRUE(zombie.init_status().IsFenced())
      << zombie.init_status().ToString();
  // Its operations fail closed with the init status.
  FrameHeader h;
  EXPECT_TRUE(zombie.Publish(h, "x").status().IsFenced());

  // The current incarnation (and "accept any" = 0) attach fine.
  EXPECT_TRUE(
      ShmRing(RingOptions::AttachTo("/codlock-test-fence", 3)).init_status().ok());
  EXPECT_TRUE(
      ShmRing(RingOptions::AttachTo("/codlock-test-fence", 0)).init_status().ok());

  // A restart stamps a new incarnation: yesterday's expectation fences.
  ASSERT_TRUE(host.StampIncarnation(4).ok());
  EXPECT_TRUE(ShmRing(RingOptions::AttachTo("/codlock-test-fence", 3))
                  .init_status()
                  .IsFenced());
}

TEST(ShmRingTest, ShmAttachMissingSegmentIsNotFound) {
  ShmRing ring(RingOptions::AttachTo("/codlock-test-nonexistent", 0));
  EXPECT_TRUE(ring.init_status().IsNotFound()) << ring.init_status().ToString();
}

TEST(ShmRingTest, ExecutingReclaimNeedsScopeAndCompleteLosesCleanly) {
  ShmRing ring(Opts(2, 64));
  FrameHeader h;
  h.handle_id = 9;
  h.job_id = 1;
  Result<size_t> slot = ring.Publish(h, "job");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(ring.Consume().ok());
  EXPECT_EQ(ring.StateOf(*slot), SlotState::kExecuting);

  // Default scope must not touch a slot a worker may still be running.
  EXPECT_EQ(ring.ReclaimHandleSlots(9), 0u);
  ReclaimScope post_mortem;
  post_mortem.executing = true;
  EXPECT_EQ(ring.ReclaimHandleSlots(9, post_mortem), 1u);
  EXPECT_EQ(ring.counters().reclaimed_executing, 1u);

  // The worker finishing late loses the CAS race and must not ledger a
  // completion for a frame the reclaimer already accounted.
  EXPECT_FALSE(ring.Complete(*slot, "too late"));
  EXPECT_EQ(ring.counters().completed, 0u);
}

TEST(ShmRingTest, TakingReclaimRacesExactlyOnceAccounting) {
  // A PID-verified-dead owner's kTaking strand is reclaimed mid-take;
  // the (hypothetically still-running) take must lose the free race and
  // not double-count `taken`.
  ShmRing ring(Opts(2, 64));
  FrameHeader h;
  h.handle_id = 4;
  h.job_id = 2;
  Result<size_t> slot = ring.Publish(h, "job");
  ASSERT_TRUE(slot.ok());
  Result<ShmRing::Job> job = ring.Consume();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(ring.Complete(job->slot, "resp"));

  ring.SetCrashHook([&](std::string_view point) {
    if (point != "take.taking") return;
    ReclaimScope dead_owner;
    dead_owner.taking = true;
    EXPECT_EQ(ring.ReclaimHandleSlots(4, dead_owner), 1u);
  });
  EXPECT_TRUE(ring.TakeResponse(*slot, 2).status().IsNotFound());
  ring.SetCrashHook(nullptr);
  const ShmRing::Counters c = ring.counters();
  EXPECT_EQ(c.taken, 0u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.reclaimed_done, 1u);  // the reclaimer owns the frame
  EXPECT_EQ(ring.InFlight(), 0u);
}

TEST(ShmRingTest, OversizedResponseIsDroppedNotTruncated) {
  ShmRing ring(Opts(2, 16));
  FrameHeader h;
  h.handle_id = 1;
  h.job_id = 1;
  Result<size_t> slot = ring.Publish(h, "q");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(ring.Consume().ok());
  EXPECT_FALSE(ring.Complete(*slot, std::string(64, 'r')));
  EXPECT_EQ(ring.StateOf(*slot), SlotState::kFree);
  EXPECT_EQ(ring.counters().completed, 0u);
  EXPECT_EQ(ring.counters().reclaimed_executing, 1u);
}

TEST(ShmRingTest, RunStateGateWakesParkedWaiters) {
  ShmRing ring(Opts(2, 64));
  EXPECT_EQ(ring.run_state(), 0u);
  uint32_t seen = 0;
  std::thread child([&] { seen = ring.WaitRunStateAtLeast(1, 2'000'000); });
  ring.SetRunState(1);
  child.join();
  EXPECT_GE(seen, 1u);
  // Timeout path: the gate never reaches 2, the waiter reports what it saw.
  EXPECT_EQ(ring.WaitRunStateAtLeast(2, 10'000), 1u);
}

TEST(ShmRingTest, FutexWaitRetriesInjectedEintr) {
  // An injected EINTR mid-wait must be retried against the original
  // deadline, never surfaced: the wait still times out (word unchanged)
  // or succeeds (word changed) — callers never see kInternal.
  std::atomic<uint32_t> word{5};
  fault::ScopedFault eintr("util.futex.wait",
                           {fault::FaultKind::kError, fault::Trigger::Once()});
  ASSERT_TRUE(eintr.valid());
  Status s = futex::Wait(futex::Backend::kInProcess, word, 5, 20'000);
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  // Word already changed: immediate OK, no wait at all.
  EXPECT_TRUE(futex::Wait(futex::Backend::kInProcess, word, 4, 20'000).ok());
}

// --- host + handle round trips -----------------------------------------

class HostTest : public ::testing::Test {
 protected:
  HostTest() : fx_(BuildCellsEffectors(CellsParams{8, 4, 2, 8, 2, 42})) {}

  HostOptions SmallHost() {
    HostOptions o;
    o.ring.slots = 8;
    o.handle_lease_ms = 5'000;
    return o;
  }

  CellsFixture fx_;
};

TEST_F(HostTest, CheckOutCheckInThroughTheRing) {
  Host host(fx_.catalog.get(), fx_.store.get(), SmallHost());
  Handle h(&host);
  ASSERT_TRUE(h.Attach().ok());
  ASSERT_TRUE(h.Ping().ok());

  Result<CheckOutTicket> t =
      h.CheckOut(1, CellQuery(fx_, 0), CheckOutMode::kExclusive);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_NE(t->txn, lock::kInvalidTxn);
  EXPECT_FALSE(t->fence.empty());
  EXPECT_EQ(host.server().ActiveLongTxns(), 1u);

  EXPECT_TRUE(h.Renew(*t).ok());
  EXPECT_TRUE(h.CheckIn(*t).ok());
  EXPECT_EQ(host.server().ActiveLongTxns(), 0u);
  EXPECT_EQ(host.ring().InFlight(), 0u);
  EXPECT_EQ(host.TotalInFlight(), 0u);
  // The ring's ledger counted the frames.
  EXPECT_GE(host.ring().counters().published, 4u);
}

TEST_F(HostTest, HostCrashFencesZombiesUntilReattach) {
  Host host(fx_.catalog.get(), fx_.store.get(), SmallHost());
  Handle h(&host);
  ASSERT_TRUE(h.Attach().ok());
  Result<CheckOutTicket> t =
      h.CheckOut(1, CellQuery(fx_, 0), CheckOutMode::kExclusive);
  ASSERT_TRUE(t.ok());

  const uint64_t old_incarnation = host.incarnation();
  ASSERT_TRUE(host.CrashAndRestart().ok());
  EXPECT_GT(host.incarnation(), old_incarnation);

  // The un-reattached handle is a zombie: every submit is fenced.
  Status zombie = h.Ping();
  EXPECT_TRUE(zombie.IsFenced()) << zombie.ToString();

  // Reattach revalidates the handle; the lease survived the crash, so
  // the ticket still checks in.
  ASSERT_TRUE(h.Attach().ok());
  EXPECT_TRUE(h.Ping().ok());
  EXPECT_TRUE(h.CheckIn(*t).ok());
}

TEST_F(HostTest, DeadHandleIsFencedAndItsLocksReclaimed) {
  HostOptions opts = SmallHost();
  opts.server.lease.duration_ms = 3'000;
  opts.server.lease.grace_ms = 1'000;
  Host host(fx_.catalog.get(), fx_.store.get(), opts);
  Handle dead(&host);
  ASSERT_TRUE(dead.Attach().ok());
  Result<CheckOutTicket> t =
      dead.CheckOut(1, CellQuery(fx_, 0), CheckOutMode::kExclusive);
  ASSERT_TRUE(t.ok());
  // It wedges: publishes a renew it never drains, then falls silent.
  ASSERT_TRUE(dead.SubmitNoWait(wire::JobOp::kRenew, &*t).ok());
  ASSERT_TRUE(host.Drain().ok());
  EXPECT_EQ(host.ring().InFlight(), 1u);  // the undrained kDone response

  // Silence past the handle lease AND the check-out lease: the sweep
  // fences the handle, reclaims its slots, and the lease sweep releases
  // its long locks with an epoch bump.
  host.server().clock().AdvanceMs(9'001);
  EXPECT_EQ(host.SweepDeadHandles(), 1u);
  EXPECT_EQ(host.ring().InFlight(), 0u);
  EXPECT_TRUE(host.server().lock_manager().LocksOf(t->txn).empty());
  EXPECT_EQ(host.server().lock_manager().stats().handles_fenced.value(), 1u);

  // The fenced handle is rejected on submit and on reattach.
  EXPECT_TRUE(dead.Ping().IsFenced());
  EXPECT_TRUE(dead.Attach().IsFenced());

  // The cell is free again: a new client checks it out immediately, and
  // the zombie's old ticket can never check in over it.
  Handle fresh(&host);
  ASSERT_TRUE(fresh.Attach().ok());
  Result<CheckOutTicket> t2 =
      fresh.CheckOut(2, CellQuery(fx_, 0), CheckOutMode::kExclusive);
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_TRUE(fresh.CheckIn(*t2).ok());
}

TEST_F(HostTest, AdmissionControlShedsThenRetrySucceeds) {
  HostOptions opts;
  opts.ring.slots = 2;  // global cap derives from the transport bound
  opts.handle_lease_ms = 5'000;
  Host host(fx_.catalog.get(), fx_.store.get(), opts);

  // A wedged client fills the whole ring with undrained pings.
  Handle wedged(&host);
  ASSERT_TRUE(wedged.Attach().ok());
  ASSERT_TRUE(wedged.SubmitNoWait(wire::JobOp::kPing, nullptr).ok());
  ASSERT_TRUE(wedged.SubmitNoWait(wire::JobOp::kPing, nullptr).ok());
  ASSERT_TRUE(host.Drain().ok());
  host.server().clock().AdvanceMs(6'000);  // the wedge is now silent

  // The victim attaches *now* (its own liveness is fresh) and retries
  // through the backoff hook, which runs the dead-handle sweep — the
  // deterministic stand-in for "wait until capacity frees up".
  HandleOptions ho;
  ho.on_backoff = [&](uint64_t) { host.SweepDeadHandles(); };
  Handle victim(&host, ho);
  ASSERT_TRUE(victim.Attach().ok());
  Result<CheckOutTicket> t =
      victim.CheckOut(1, CellQuery(fx_, 1), CheckOutMode::kExclusive);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(victim.CheckIn(*t).ok());

  EXPECT_GE(victim.stats().sheds_seen, 1u);
  EXPECT_GE(victim.stats().retries, 1u);
  EXPECT_GT(victim.stats().backoff_us_total, 0u);
  EXPECT_GE(host.server().lock_manager().stats().jobs_shed_per_handle.value(),
            1u);
  // The wedge's undrained responses were reclaimed, not lost.
  EXPECT_GE(host.ring().counters().reclaimed_done, 2u);
}

TEST_F(HostTest, PerHandleCapShedsBeforeRingIsFull) {
  HostOptions opts;
  opts.ring.slots = 8;
  opts.max_inflight_per_handle = 2;
  Host host(fx_.catalog.get(), fx_.store.get(), opts);
  Handle h(&host);
  ASSERT_TRUE(h.Attach().ok());
  ASSERT_TRUE(h.SubmitNoWait(wire::JobOp::kPing, nullptr).ok());
  ASSERT_TRUE(h.SubmitNoWait(wire::JobOp::kPing, nullptr).ok());
  Status third = h.SubmitNoWait(wire::JobOp::kPing, nullptr);
  EXPECT_TRUE(third.IsShed()) << third.ToString();
  EXPECT_EQ(host.ring().InFlight(), 2u);  // the ring itself had room
}

TEST_F(HostTest, WorkerThreadsServeRealWaits) {
  HostOptions opts;
  opts.ring.slots = 16;
  Host host(fx_.catalog.get(), fx_.store.get(), opts);
  host.StartWorkers(2);
  std::atomic<int> ok_calls{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      HandleOptions ho;
      ho.real_backoff = true;
      ho.seed = static_cast<uint64_t>(i) + 1;
      Handle h(&host, ho);
      ASSERT_TRUE(h.Attach().ok());
      for (int k = 0; k < 25; ++k) {
        if (h.Ping().ok()) ok_calls.fetch_add(1);
      }
      Result<CheckOutTicket> t = h.CheckOut(
          static_cast<authz::UserId>(i + 1), CellQuery(fx_, i),
          CheckOutMode::kExclusive);
      if (t.ok()) {
        EXPECT_TRUE(h.CheckIn(*t).ok());
        ok_calls.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  host.StopWorkers();
  EXPECT_EQ(ok_calls.load(), 4 * 25 + 4);
  EXPECT_EQ(host.ring().InFlight(), 0u);
}

// --- the sweep-vs-restart lifecycle race (regression) -------------------

TEST_F(HostTest, SweepDyingMidReclaimThenRestartNeverDoubleReleases) {
  HostOptions opts = SmallHost();
  opts.server.lease.duration_ms = 2'000;
  opts.server.lease.grace_ms = 500;
  Host host(fx_.catalog.get(), fx_.store.get(), opts);
  Handle h(&host);
  ASSERT_TRUE(h.Attach().ok());
  Result<CheckOutTicket> t =
      h.CheckOut(1, CellQuery(fx_, 0), CheckOutMode::kExclusive);
  ASSERT_TRUE(t.ok());

  // The sweep dies *after* the in-memory reclaim, *before* the persist —
  // the exact window where a concurrent restart used to observe half a
  // reclaim.  The restart's orphan reaper must converge to the same end
  // state, and the re-run sweep must not release the locks again.
  host.server().clock().AdvanceMs(3'000);
  {
    fault::ScopedFault die("ws.lease.reclaim",
                           {fault::FaultKind::kCrash, fault::Trigger::Once()});
    EXPECT_EQ(host.server().SweepExpiredLeases(), 1u);
  }
  ASSERT_TRUE(host.CrashAndRestart().ok());
  host.server().SweepExpiredLeases();
  host.server().SweepExpiredLeases();  // a second pass must be a no-op

  EXPECT_TRUE(host.server().lock_manager().LocksOf(t->txn).empty());
  EXPECT_EQ(host.server().ActiveLongTxns(), 0u);
  EXPECT_EQ(host.server().leases().size(), 0u);

  // The zombie's ticket is fenced; the cell is cleanly re-grantable.
  Handle fresh(&host);
  ASSERT_TRUE(fresh.Attach().ok());
  Result<CheckOutTicket> again =
      fresh.CheckOut(2, CellQuery(fx_, 0), CheckOutMode::kExclusive);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(host.server().CheckIn(*t).IsFenced());
  EXPECT_TRUE(fresh.CheckIn(*again).ok());

  proto::ProtocolValidator validator(&host.server().graph(), fx_.store.get());
  EXPECT_TRUE(validator.Check(host.server().lock_manager()).empty());
}

TEST_F(HostTest, ConcurrentSweepAndRestartStaySerialized) {
  // Thread-sanitizer regression: a lease sweep racing CrashAndRestart
  // must serialize on the server's lifecycle mutex instead of releasing
  // a dying engine's locks into the rebuilt one.
  HostOptions opts = SmallHost();
  opts.server.lease.duration_ms = 1'000;
  opts.server.lease.grace_ms = 200;
  Host host(fx_.catalog.get(), fx_.store.get(), opts);
  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load()) host.server().SweepExpiredLeases();
  });
  Handle h(&host);
  ASSERT_TRUE(h.Attach().ok());
  for (int round = 0; round < 20; ++round) {
    Result<CheckOutTicket> t =
        h.CheckOut(1, CellQuery(fx_, round % 4), CheckOutMode::kExclusive);
    if (t.ok()) (void)h.CheckIn(*t);
    host.server().clock().AdvanceMs(700);
    if (round % 5 == 4) {
      ASSERT_TRUE(host.CrashAndRestart().ok());
      ASSERT_TRUE(h.Attach().ok());
    }
  }
  stop.store(true);
  sweeper.join();
  host.server().clock().AdvanceMs(2'000);
  host.server().SweepExpiredLeases();
  EXPECT_EQ(host.server().ActiveLongTxns(), 0u);
  proto::ProtocolValidator validator(&host.server().graph(), fx_.store.get());
  EXPECT_TRUE(validator.Check(host.server().lock_manager()).empty());
}

// --- fleet chaos (tier-1 sized; the 1000-handle run lives in the
// faultsweep's --ring mode and the nightly chaos job) --------------------

TEST(FleetTest, SmallFleetChaosRunsClean) {
  sim::FleetConfig cfg;
  cfg.clients = 64;
  cfg.owned_cells = 8;
  cfg.shared_cells = 4;
  cfg.ticks = 60;
  cfg.seed = 7;
  CellsFixture fx = BuildCellsEffectors(
      CellsParams{cfg.owned_cells + cfg.shared_cells, 4, 2, 8, 2, 42});
  Host host(fx.catalog.get(), fx.store.get(), cfg.host);
  sim::FleetReport report = RunFleet(host, fx, cfg);
  EXPECT_TRUE(report.clean()) << [&] {
    std::string all = report.Summary();
    for (const std::string& v : report.violations) all += "\n  " + v;
    return all;
  }();
  // The chaos actually happened: progress AND failures.
  EXPECT_GT(report.checkouts, 0u);
  EXPECT_GT(report.checkins, 0u);
  EXPECT_GT(report.deaths, 0u);
  EXPECT_GT(report.sweeps, 0u);
}

TEST(FleetTest, SameSeedReplaysExactly) {
  sim::FleetConfig cfg;
  cfg.clients = 24;
  cfg.owned_cells = 4;
  cfg.shared_cells = 4;
  cfg.ticks = 30;
  cfg.seed = 99;
  auto run = [&] {
    CellsFixture fx = BuildCellsEffectors(
        CellsParams{cfg.owned_cells + cfg.shared_cells, 4, 2, 8, 2, 42});
    Host host(fx.catalog.get(), fx.store.get(), cfg.host);
    return RunFleet(host, fx, cfg).Summary();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace codlock::ws
