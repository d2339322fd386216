/// Tests for the workstation–server environment: check-out/check-in, long
/// locks, crash survival (§1, §3.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "fault/fault_injector.h"
#include "sim/fixtures.h"
#include "ws/server.h"

namespace codlock::ws {
namespace {

using lock::LockMode;

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : f_(sim::BuildFigure7Instance()) {}

  sim::CellsFixture f_;
};

TEST_F(ServerTest, CheckOutAcquiresLongLocks) {
  Server server(f_.catalog.get(), f_.store.get());
  Result<CheckOutTicket> ticket =
      server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_EQ(server.ActiveLongTxns(), 1u);
  // The long locks are in stable storage.
  EXPECT_GT(server.stable_storage().size(), 0u);
  for (const lock::LongLockRecord& r : server.stable_storage().records()) {
    EXPECT_EQ(r.txn, ticket->txn);
  }
}

TEST_F(ServerTest, ConflictingCheckOutTimesOut) {
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 100;
  Server server(f_.catalog.get(), f_.store.get(), opts);
  Result<CheckOutTicket> first = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(first.ok());
  // Another user wants the same robot for update: blocked by the long X
  // lock, times out.
  Result<CheckOutTicket> second = server.CheckOut(2, query::MakeQ2(f_.cells));
  EXPECT_TRUE(second.status().IsTimeout()) << second.status();
}

TEST_F(ServerTest, DisjointCheckOutsCoexist) {
  Server server(f_.catalog.get(), f_.store.get());
  // Q2 (robot r1) and a Q1-style read of the c_objects run concurrently.
  Result<CheckOutTicket> a = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(a.ok());
  Result<CheckOutTicket> b = server.CheckOut(2, query::MakeQ1(f_.cells));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(server.ActiveLongTxns(), 2u);
}

TEST_F(ServerTest, CheckInReleasesAndPersists) {
  Server server(f_.catalog.get(), f_.store.get());
  Result<CheckOutTicket> ticket = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(server.CheckIn(*ticket).ok());
  EXPECT_EQ(server.ActiveLongTxns(), 0u);
  EXPECT_EQ(server.stable_storage().size(), 0u);
  EXPECT_EQ(server.lock_manager().NumEntries(), 0u);
  // Checked-in data can be checked out again.
  EXPECT_TRUE(server.CheckOut(2, query::MakeQ2(f_.cells)).ok());
}

TEST_F(ServerTest, CancelCheckOutReleasesWithoutApplying) {
  Server server(f_.catalog.get(), f_.store.get());
  Result<CheckOutTicket> ticket = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(server.CancelCheckOut(*ticket).ok());
  EXPECT_EQ(server.ActiveLongTxns(), 0u);
  EXPECT_TRUE(server.CheckOut(2, query::MakeQ2(f_.cells)).ok());
}

TEST_F(ServerTest, LongLocksSurviveCrash) {
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 100;
  Server server(f_.catalog.get(), f_.store.get(), opts);
  Result<CheckOutTicket> ticket = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok());

  server.CrashAndRestart();

  // The long transaction is still registered and its locks still block a
  // conflicting check-out.
  EXPECT_EQ(server.ActiveLongTxns(), 1u);
  Result<CheckOutTicket> second = server.CheckOut(2, query::MakeQ2(f_.cells));
  EXPECT_TRUE(second.status().IsTimeout());

  // After the crash the original user can still check in.
  ASSERT_TRUE(server.CheckIn(*ticket).ok());
  EXPECT_TRUE(server.CheckOut(2, query::MakeQ2(f_.cells)).ok());
}

TEST_F(ServerTest, ShortLocksDieInCrash) {
  Server server(f_.catalog.get(), f_.store.get());
  // Short transactions release at EOT anyway; verify the lock table is
  // empty post-crash even if a short txn never finished.
  txn::Transaction* t = server.txn_manager().Begin(5, txn::TxnKind::kShort);
  ASSERT_TRUE(server.lock_manager()
                  .Acquire(t->id(), {1, 1}, LockMode::kX)
                  .ok());
  server.CrashAndRestart();
  EXPECT_EQ(server.lock_manager().NumEntries(), 0u);
}

TEST_F(ServerTest, CheckInAppliesWorkstationChanges) {
  // A check-out FOR UPDATE of a synthetic object; check-in bumps payloads.
  sim::SyntheticParams p;
  p.depth = 1;
  p.refs_per_leaf = 0;
  p.num_objects = 1;
  sim::SyntheticFixture sf = sim::BuildSynthetic(p);
  Server server(sf.catalog.get(), sf.store.get());

  std::vector<nf2::ObjectId> ids = sf.store->ObjectsOf(sf.main_relation);
  int64_t before =
      (*sf.store->Get(sf.main_relation, ids[0]))->root.children()[1].as_int();

  query::Query q;
  q.relation = sf.main_relation;
  q.kind = query::AccessKind::kUpdate;
  Result<CheckOutTicket> ticket = server.CheckOut(1, q);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(server.CheckIn(*ticket).ok());

  int64_t after =
      (*sf.store->Get(sf.main_relation, ids[0]))->root.children()[1].as_int();
  // Check-out executed the update once and check-in re-applied it once.
  EXPECT_EQ(after, before + 2);
}

TEST_F(ServerTest, CheckInUnknownTicketFails) {
  Server server(f_.catalog.get(), f_.store.get());
  CheckOutTicket bogus;
  bogus.txn = 999;
  EXPECT_TRUE(server.CheckIn(bogus).IsNotFound());
}

TEST_F(ServerTest, DoubleCheckInFails) {
  Server server(f_.catalog.get(), f_.store.get());
  Result<CheckOutTicket> ticket = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(server.CheckIn(*ticket).ok());
  EXPECT_FALSE(server.CheckIn(*ticket).ok());
}

/// Every transaction id handed out so far is forgotten, except \p live.
void ExpectForgottenExcept(Server& server,
                           const std::vector<lock::TxnId>& live) {
  txn::TxnManager& txns = server.txn_manager();
  txn::Transaction* probe = txns.Begin(99);
  const lock::TxnId next = probe->id();
  ASSERT_TRUE(txns.Abort(probe).ok());
  txns.Forget(next);
  for (lock::TxnId id = 1; id <= next; ++id) {
    const bool want_live =
        std::find(live.begin(), live.end(), id) != live.end();
    Result<std::shared_ptr<txn::Transaction>> got = txns.Get(id);
    EXPECT_EQ(got.ok(), want_live) << "txn " << id;
    if (!want_live) {
      EXPECT_TRUE(got.status().IsNotFound()) << "txn " << id;
    }
  }
}

TEST_F(ServerTest, FinishedTransactionsAreForgotten) {
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 50;
  opts.retry.max_attempts = 1;
  opts.lease.duration_ms = 1000;
  opts.lease.grace_ms = 500;
  Server server(f_.catalog.get(), f_.store.get(), opts);

  // Short transaction, committed.
  ASSERT_TRUE(server.RunShortTxn(1, query::MakeQ1(f_.cells)).ok());
  ExpectForgottenExcept(server, {});

  // Check-in, cancel, derive check-in.
  Result<CheckOutTicket> a = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(server.txn_manager().Get(a->txn).ok());
  ASSERT_TRUE(server.CheckIn(*a).ok());
  EXPECT_TRUE(server.txn_manager().Get(a->txn).status().IsNotFound());

  Result<CheckOutTicket> b = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(server.CancelCheckOut(*b).ok());
  EXPECT_TRUE(server.txn_manager().Get(b->txn).status().IsNotFound());

  query::Query cell;
  cell.relation = f_.cells;
  cell.object_key = "c1";
  cell.kind = query::AccessKind::kRead;
  Result<CheckOutTicket> d = server.CheckOut(1, cell, CheckOutMode::kDerive);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_TRUE(server
                  .CheckInDerived(*d, "c1-derived",
                                  nf2::Value::OfTuple({
                                      nf2::Value::OfString("placeholder"),
                                      nf2::Value::OfSet({}),
                                      nf2::Value::OfList({}),
                                  }))
                  .ok());
  EXPECT_TRUE(server.txn_manager().Get(d->txn).status().IsNotFound());
  ExpectForgottenExcept(server, {});

  // A failed check-out and an aborted short transaction: both conflict
  // with a standing exclusive check-out and time out.
  Result<CheckOutTicket> holder = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(holder.ok());
  EXPECT_TRUE(
      server.CheckOut(2, query::MakeQ2(f_.cells)).status().IsTimeout());
  EXPECT_TRUE(
      server.RunShortTxn(2, query::MakeQ2(f_.cells)).status().IsTimeout());
  ExpectForgottenExcept(server, {holder->txn});

  // Lease reclaim.
  server.clock().AdvanceMs(1501);
  ASSERT_EQ(server.SweepExpiredLeases(), 1u);
  EXPECT_TRUE(server.txn_manager().Get(holder->txn).status().IsNotFound());
  ExpectForgottenExcept(server, {});
  EXPECT_EQ(server.stable_storage().size(), 0u);
}

TEST_F(ServerTest, CheckInRacingReclaimOfTheSameTicket) {
  // A workstation checks in just as the sweep reclaims its expired lease.
  // Whoever finishes the transaction first, the other must neither touch
  // a freed transaction nor leave a lock, a lease or a durable record.
  ws::Server::Options opts;
  opts.lease.duration_ms = 1000;
  opts.lease.grace_ms = 500;
  opts.storage_path =
      (std::filesystem::temp_directory_path() / "ws_server_race.locks")
          .string();
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::filesystem::remove(opts.storage_path);
    Server server(f_.catalog.get(), f_.store.get(), opts);
    Result<CheckOutTicket> t =
        server.CheckOut(1, query::MakeQ2(f_.cells), CheckOutMode::kShared);
    ASSERT_TRUE(t.ok());
    server.clock().AdvanceMs(1501);

    std::atomic<bool> go{false};
    Status checked_in;
    size_t reaped = 0;
    std::thread a([&] {
      while (!go.load()) std::this_thread::yield();
      checked_in = server.CheckIn(*t);
    });
    std::thread b([&] {
      while (!go.load()) std::this_thread::yield();
      reaped = server.SweepExpiredLeases();
    });
    go.store(true);
    a.join();
    b.join();

    EXPECT_TRUE(checked_in.ok() || reaped == 1) << checked_in.ToString();
    EXPECT_TRUE(server.txn_manager().Get(t->txn).status().IsNotFound());
    EXPECT_TRUE(server.lock_manager().LocksOf(t->txn).empty());
    EXPECT_EQ(server.lock_manager().NumEntries(), 0u);
    EXPECT_FALSE(server.leases().Has(t->txn));
    EXPECT_EQ(server.ActiveLongTxns(), 0u);
    EXPECT_EQ(server.stable_storage().size(), 0u);
    // Both finishers may append a frame for the ticket; the one written
    // last must be the drop.
    ASSERT_TRUE(server.CrashAndRestart().ok());
    EXPECT_EQ(server.stable_storage().size(), 0u);
    EXPECT_FALSE(server.stable_storage().last_load().salvaged);
  }
  std::filesystem::remove(opts.storage_path);
}

TEST_F(ServerTest, EachOperationAppendsOneSyncedFrame) {
  // Check-out, check-in, cancel and reclaim each write exactly one frame
  // after the intact end of the store file, with one fdatasync and no
  // snapshot — however many other long locks the table holds.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ws_server_frames.locks")
          .string();
  std::filesystem::remove(path);
  ws::Server::Options opts;
  opts.storage_path = path;
  opts.lease.duration_ms = 1000;
  opts.lease.grace_ms = 500;
  Server server(f_.catalog.get(), f_.store.get(), opts);
  // A parked check-out, and the file's first write (its snapshot).
  ASSERT_TRUE(server.CheckOut(1, query::MakeQ1(f_.cells)).ok());

  fault::FaultSpec never;
  never.trigger = fault::Trigger::Nth(1u << 30);
  fault::ScopedFault syncs("store/sync", never);
  fault::ScopedFault snapshots("store/open-temp", never);
  fault::FaultPoint* sync_point = fault::FindPoint("store/sync");
  fault::FaultPoint* snapshot_point = fault::FindPoint("store/open-temp");
  uint64_t syncs_before = 0;
  uint64_t generation_before = 0;
  uintmax_t bytes_before = 0;
  auto begin = [&] {
    syncs_before = sync_point->hits();
    generation_before = server.stable_storage().generation();
    bytes_before = std::filesystem::file_size(path);
  };
  auto expect_one_frame = [&](const char* op) {
    EXPECT_EQ(sync_point->hits(), syncs_before + 1) << op;
    EXPECT_EQ(snapshot_point->hits(), 0u) << op;
    EXPECT_EQ(server.stable_storage().generation(), generation_before + 1)
        << op;
    EXPECT_GT(std::filesystem::file_size(path), bytes_before) << op;
  };

  begin();
  Result<CheckOutTicket> a = server.CheckOut(2, query::MakeQ2(f_.cells));
  ASSERT_TRUE(a.ok());
  expect_one_frame("check-out");
  begin();
  ASSERT_TRUE(server.CheckIn(*a).ok());
  expect_one_frame("check-in");

  Result<CheckOutTicket> b = server.CheckOut(2, query::MakeQ2(f_.cells));
  ASSERT_TRUE(b.ok());
  begin();
  ASSERT_TRUE(server.CancelCheckOut(*b).ok());
  expect_one_frame("cancel");

  Result<CheckOutTicket> c = server.CheckOut(2, query::MakeQ2(f_.cells));
  ASSERT_TRUE(c.ok());
  server.clock().AdvanceMs(1501);
  ASSERT_TRUE(server.RenewLease(*c).IsFailedPrecondition());
  // Both leases are past their grace now; reclaim both: two frames.
  begin();
  ASSERT_EQ(server.SweepExpiredLeases(), 2u);
  EXPECT_EQ(sync_point->hits(), syncs_before + 2);
  EXPECT_EQ(snapshot_point->hits(), 0u);
  EXPECT_EQ(server.stable_storage().generation(), generation_before + 2);

  // What the frames say is what a restart recovers.
  ASSERT_TRUE(server.CrashAndRestart().ok());
  EXPECT_EQ(server.stable_storage().size(), 0u);
  EXPECT_EQ(server.stable_storage().last_load().discarded_bytes, 0u);
  EXPECT_GT(server.stable_storage().FenceEpochs().size(), 0u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace codlock::ws
