/// \file ws_audit_test.cc
/// \brief Pins each check of the serving stack's audits
/// (`ShmRing::Counters::Imbalances`, `Server::Audit`/`AuditDrained`,
/// `Host::Audit`/`AuditDrained`): every test breaks the invariant one
/// check guards and expects that check's message, so deleting the check
/// fails the test.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>

#include "sim/fixtures.h"
#include "util/mutation_points.h"
#include "ws/handle.h"
#include "ws/host.h"

namespace codlock::ws {
namespace {

using sim::BuildCellsEffectors;
using sim::CellsFixture;
using sim::CellsParams;

query::Query CellQuery(const CellsFixture& fx, int cell_index,
                       query::AccessKind kind = query::AccessKind::kUpdate) {
  query::Query q;
  q.name = std::string("A").append(std::to_string(cell_index + 1));
  q.relation = fx.cells;
  q.object_key = std::string("c").append(std::to_string(cell_index + 1));
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = kind;
  return q;
}

std::string Joined(const std::vector<std::string>& found) {
  std::string all;
  for (const std::string& v : found) all += "\n  " + v;
  return all;
}

bool Mentions(const std::vector<std::string>& found, const std::string& text) {
  for (const std::string& v : found) {
    if (v.find(text) != std::string::npos) return true;
  }
  return false;
}

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : fx_(BuildCellsEffectors(CellsParams{4, 4, 2, 8, 2, 42})) {}

  Server::Options ServerOptions() {
    Server::Options o;
    o.lock_manager.default_timeout_ms = 200;
    o.lease.duration_ms = 1'000;
    o.lease.grace_ms = 500;
    return o;
  }

  HostOptions SmallHost() {
    HostOptions o;
    o.ring.slots = 8;
    o.handle_lease_ms = 2'000;
    o.server = ServerOptions();
    return o;
  }

  CellsFixture fx_;
};

// --- the ring's ledger ----------------------------------------------------

TEST(LedgerTest, EachBrokenIdentityNamesBothSides) {
  ShmRing::Counters c;
  EXPECT_TRUE(c.Imbalances().empty());

  c.published = 2;
  c.consumed = 1;
  c.completed = 1;
  c.taken = 1;
  EXPECT_EQ(c.Imbalances(),
            std::vector<std::string>{
                "ring ledger: published=2 != consumed=1 + salvaged=0 + "
                "reclaimed_published=0 = 1"});

  c = {};
  c.published = 1;
  c.consumed = 1;
  EXPECT_EQ(c.Imbalances(),
            std::vector<std::string>{"ring ledger: consumed=1 != completed=0 "
                                     "+ reclaimed_executing=0 = 0"});

  c = {};
  c.published = 1;
  c.consumed = 1;
  c.completed = 1;
  EXPECT_EQ(c.Imbalances(),
            std::vector<std::string>{
                "ring ledger: completed=1 != taken=0 + reclaimed_done=0 = 0"});
}

// --- Host ------------------------------------------------------------------

TEST_F(AuditTest, UnconsumedFrameNamesSlotStateAndOwner) {
  Host host(fx_.catalog.get(), fx_.store.get(), SmallHost());
  const HandleInfo who = host.Attach();
  Result<size_t> slot = host.Submit(who, 7, wire::EncodePingRequest());
  ASSERT_TRUE(slot.ok()) << slot.status().ToString();

  // Mid-run a frame in flight is no violation; at the drain it is.
  EXPECT_TRUE(host.Audit().empty()) << Joined(host.Audit());
  const std::vector<std::string> found = host.AuditDrained();
  EXPECT_TRUE(Mentions(found, "ring slot " + std::to_string(*slot) +
                                  " left in state published (owner handle " +
                                  std::to_string(who.handle_id) + ")"))
      << Joined(found);
  EXPECT_TRUE(Mentions(found, "ring ledger: published=1 != consumed=0"))
      << Joined(found);

  ASSERT_TRUE(host.Drain().ok());
  ASSERT_TRUE(host.Take(who, *slot, 7).ok());
  EXPECT_TRUE(host.AuditDrained().empty()) << Joined(host.AuditDrained());
}

TEST_F(AuditTest, SkippedReclaimLeavesTheSlotTheDrainedAuditNames) {
  // A silent handle's unconsumed frame: the sweep fences the handle and
  // must reclaim the frame.  The kill-suite mutant skips that reclaim.
  for (const bool mutant : {false, true}) {
    Host host(fx_.catalog.get(), fx_.store.get(), SmallHost());
    const HandleInfo who = host.Attach();
    ASSERT_TRUE(host.Submit(who, 1, wire::EncodePingRequest()).ok());
    host.server().clock().AdvanceMs(host.options().handle_lease_ms + 1);
    {
      std::optional<mutation::ScopedMutant> skip;
      if (mutant) skip.emplace(mutation::Mutant::kRingSkipReclaim);
      EXPECT_EQ(host.SweepDeadHandles(), 1u);
    }
    const std::vector<std::string> found = host.AuditDrained();
    EXPECT_EQ(Mentions(found, "left in state published (owner handle " +
                                  std::to_string(who.handle_id) + ")"),
              mutant)
        << Joined(found);
  }
}

TEST_F(AuditTest, RegressedHandleEpochIsFlagged) {
  Host host(fx_.catalog.get(), fx_.store.get(), SmallHost());
  const HandleInfo who = host.Attach();
  ASSERT_TRUE(host.Reattach(who.handle_id).ok());  // epoch 2
  ASSERT_TRUE(host.Audit().empty());
  host.SetHandleEpochForTest(who.handle_id, 1);
  const std::vector<std::string> found = host.Audit();
  EXPECT_EQ(found, std::vector<std::string>{
                       "epoch of handle " + std::to_string(who.handle_id) +
                       " is 1, below its floor 2 seen by audit 1"});
  // The floor stays: the next audit flags the handle again.
  EXPECT_EQ(host.Audit().size(), 1u);
}

// --- Server ----------------------------------------------------------------

TEST_F(AuditTest, RestoredOldStoreFileIsFlaggedByItsRoot) {
  const std::string path =
      ::testing::TempDir() + "/codlock_audit_epoch_regression.locks";
  std::filesystem::remove(path);
  Server::Options opts = ServerOptions();
  opts.storage_path = path;
  Server server(fx_.catalog.get(), fx_.store.get(), opts);

  // A clean check-out cycle leaves a store file with no epochs in it.
  Result<CheckOutTicket> first =
      server.CheckOut(1, CellQuery(fx_, 0), CheckOutMode::kExclusive);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(server.CheckIn(*first).ok());
  const std::string old_copy = path + ".old";
  std::filesystem::copy_file(path, old_copy,
                             std::filesystem::copy_options::overwrite_existing);

  // A reclaim bumps the root's epoch; the audit records it as a floor.
  Result<CheckOutTicket> t =
      server.CheckOut(2, CellQuery(fx_, 0), CheckOutMode::kExclusive);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_FALSE(t->fence.empty());
  const lock::ResourceId root = t->fence.front().root;
  server.clock().AdvanceMs(1'501);
  ASSERT_EQ(server.SweepExpiredLeases(), 1u);
  ASSERT_EQ(server.stable_storage().FenceEpochOf(root), 1u);
  const uint64_t seen_at = server.clock().NowMs();
  ASSERT_TRUE(server.Audit().empty()) << Joined(server.Audit());

  // The old file comes back, and with it the old epoch.
  std::filesystem::copy_file(old_copy, path,
                             std::filesystem::copy_options::overwrite_existing);
  ASSERT_TRUE(server.CrashAndRestart().ok());
  ASSERT_EQ(server.stable_storage().FenceEpochOf(root), 0u);
  const std::vector<std::string> found = server.Audit();
  EXPECT_TRUE(Mentions(found, "fencing epoch of " + root.ToString() +
                                  " is 0, below its floor 1 seen by audit "
                                  "1 at " + std::to_string(seen_at) + " ms"))
      << Joined(found);
  std::filesystem::remove(path);
  std::filesystem::remove(old_copy);
}

TEST_F(AuditTest, LockOfUnknownTxnAndLongLockWithoutLease) {
  Server server(fx_.catalog.get(), fx_.store.get(), ServerOptions());
  lock::LockManager& lm = server.lock_manager();
  const lock::ResourceId rel{server.graph().RelationNode(fx_.cells), 0};
  EXPECT_TRUE(server.Audit().empty());

  // A short lock under an id the transaction manager never issued.
  constexpr lock::TxnId kStranger = 4242;
  ASSERT_TRUE(lm.Acquire(kStranger, rel, lock::LockMode::kIS).ok());
  // A long lock of a known transaction that has no check-out lease.
  txn::Transaction* known =
      server.txn_manager().Begin(1, txn::TxnKind::kLong);
  lock::AcquireOptions long_opts;
  long_opts.duration = lock::LockDuration::kLong;
  ASSERT_TRUE(
      lm.Acquire(known->id(), rel, lock::LockMode::kIS, long_opts).ok());

  const std::vector<std::string> found = server.Audit();
  EXPECT_EQ(found.size(), 2u) << Joined(found);
  EXPECT_TRUE(Mentions(found, "txn 4242 holds 1 lock(s), first " +
                                  rel.ToString() +
                                  " in IS, but the transaction manager "
                                  "does not know it"))
      << Joined(found);
  EXPECT_TRUE(Mentions(found, "txn " + std::to_string(known->id()) +
                                  " holds 1 lock(s), first " + rel.ToString() +
                                  " in IS, but it has no lease"))
      << Joined(found);
  lm.ReleaseAll(kStranger);
  ASSERT_TRUE(server.txn_manager().Abort(known).ok());
  EXPECT_TRUE(server.Audit().empty()) << Joined(server.Audit());
}

TEST_F(AuditTest, BlockedRequestIsFlagged) {
  Server server(fx_.catalog.get(), fx_.store.get(), ServerOptions());
  lock::LockManager& lm = server.lock_manager();
  txn::Transaction* holder = server.txn_manager().Begin(1);
  txn::Transaction* waiter = server.txn_manager().Begin(2);
  const lock::ResourceId rel{server.graph().RelationNode(fx_.cells), 0};
  ASSERT_TRUE(lm.Acquire(holder->id(), rel, lock::LockMode::kS).ok());
  lock::AcquireOptions wait_long;
  wait_long.timeout_ms = 10'000;
  std::thread blocked([&] {
    EXPECT_TRUE(
        lm.Acquire(waiter->id(), rel, lock::LockMode::kIX, wait_long).ok());
  });
  while (lm.NumBlockedWaiters() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<std::string> found = server.Audit();
  EXPECT_EQ(found,
            std::vector<std::string>{"1 request(s) blocked in the lock table"});
  lm.ReleaseAll(holder->id());
  blocked.join();
  lm.ReleaseAll(waiter->id());
}

TEST_F(AuditTest, ConflictingGrantSetFailsTheValidator) {
  Server server(fx_.catalog.get(), fx_.store.get(), ServerOptions());
  lock::LockManager& lm = server.lock_manager();
  const logra::LockGraph& g = server.graph();
  // X on the database and X on its relation, taken without the
  // protocol's intention locks: the lock table grants both.
  txn::Transaction* a = server.txn_manager().Begin(1);
  txn::Transaction* b = server.txn_manager().Begin(2);
  const nf2::RelationDef& rdef = fx_.catalog->relation(fx_.cells);
  const lock::ResourceId db{g.DatabaseNode(rdef.database), 0};
  const lock::ResourceId rel{g.RelationNode(fx_.cells), 0};
  ASSERT_TRUE(lm.Acquire(a->id(), db, lock::LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(b->id(), rel, lock::LockMode::kX).ok());
  const std::vector<std::string> found = server.Audit();
  ASSERT_FALSE(found.empty());
  for (const std::string& v : found) {
    EXPECT_EQ(v.rfind("protocol validator: ", 0), 0u) << v;
  }
  lm.ReleaseAll(a->id());
  lm.ReleaseAll(b->id());
  EXPECT_TRUE(server.Audit().empty()) << Joined(server.Audit());
}

TEST_F(AuditTest, LeftoverLeaseDependsOnThePolicy) {
  {
    Server server(fx_.catalog.get(), fx_.store.get(), ServerOptions());
    Result<CheckOutTicket> t =
        server.CheckOut(1, CellQuery(fx_, 0), CheckOutMode::kExclusive);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(server.Audit().empty()) << Joined(server.Audit());
    const std::vector<std::string> found = server.AuditDrained();
    const std::string txn = std::to_string(t->txn);
    EXPECT_EQ(found,
              (std::vector<std::string>{
                  "lease of txn " + txn + " (exclusive, active) left over "
                                          "after the drain",
                  "long transaction " + txn + " of user 1 left over after "
                                              "the drain"}));
  }
  {
    Server::Options opts = ServerOptions();
    opts.lease.exclusive_policy = ExpiredExclusivePolicy::kOrphanHold;
    Server server(fx_.catalog.get(), fx_.store.get(), opts);
    Result<CheckOutTicket> t =
        server.CheckOut(1, CellQuery(fx_, 0), CheckOutMode::kExclusive);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    server.clock().AdvanceMs(1'501);
    ASSERT_EQ(server.SweepExpiredLeases(), 1u);
    ASSERT_TRUE(server.leases().Get(t->txn)->orphaned);
    // The orphan keeps its locks, lease record and transaction.
    EXPECT_TRUE(server.AuditDrained().empty())
        << Joined(server.AuditDrained());
  }
}

}  // namespace
}  // namespace codlock::ws
