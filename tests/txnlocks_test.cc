/// Tests for the per-transaction lock state's held rows, the hits they
/// answer, and the batched path acquisition (`LockManager::AcquirePath`).
///
/// A hit is safe because of a short list of rules (see txn_locks.h); each
/// test below pins one of them:
///   - a hit never touches a shard, and only answers covered requests;
///   - Release / Downgrade / ReleaseAll change the row where they change
///     the table, by handle and by id alike, and a wounded or ended
///     transaction never hits;
///   - hits and their releases balance against shard-side hold counts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/txn_locks.h"
#include "sim/fixtures.h"
#include "txn/txn_manager.h"
#include "util/striped_map.h"
#include "ws/server.h"

namespace codlock::lock {
namespace {

constexpr ResourceId kR1{1, 100};
constexpr ResourceId kR2{2, 200};

TEST(TxnLocksTest, CoveredReacquisitionHitsWithoutShardTraffic) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  const uint64_t slow_before = lm.stats().requests.value();

  // Equal and weaker re-acquisitions are hits of the row.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIS, {}, locks.get()).ok());
  EXPECT_EQ(lm.stats().requests.value(), slow_before);
  EXPECT_EQ(lm.stats().cache_hits.value(), 2u);

  // Releases consume the hits before the shard-side hold count is
  // touched, so the books balance exactly.
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kNL);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, StrongerRequestNeverAnsweredFromCache) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  const uint64_t slow_before = lm.stats().requests.value();

  // S does not cover X: the request must reach the shard and convert.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX, {}, locks.get()).ok());
  EXPECT_GT(lm.stats().requests.value(), slow_before);
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kX);

  // The slow path refreshed the entry: X now hits.
  const uint64_t hits_before = lm.stats().cache_hits.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX, {}, locks.get()).ok());
  EXPECT_EQ(lm.stats().cache_hits.value(), hits_before + 1);
  lm.ReleaseAll(1);
}

TEST(TxnLocksTest, ReleaseDropsCachedMode) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  EXPECT_EQ(locks->RowMode(kR1), LockMode::kNL);

  // A stale row would answer this hit while the shard holds nothing.
  const uint64_t slow_before = lm.stats().requests.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  EXPECT_GT(lm.stats().requests.value(), slow_before);
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kS);
  lm.ReleaseAll(1);
}

TEST(TxnLocksTest, DowngradeDropsCachedMode) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Downgrade(1, kR1, LockMode::kS, locks.get()).ok());
  EXPECT_EQ(locks->RowMode(kR1), LockMode::kS);

  // If the X survived, this IX would hit and never raise the held mode;
  // the slow path computes sup(S, IX) = SIX.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIX, {}, locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kSIX);
  lm.ReleaseAll(1);
}

TEST(TxnLocksTest, ReleaseAllInvalidatesCache) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(1, kR2, LockMode::kIX, {}, locks.get()).ok());
  EXPECT_EQ(lm.ReleaseAll(1), 2u);
  EXPECT_EQ(locks->RowMode(kR1), LockMode::kNL);
  EXPECT_EQ(locks->RowMode(kR2), LockMode::kNL);

  const uint64_t slow_before = lm.stats().requests.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  EXPECT_GT(lm.stats().requests.value(), slow_before);
  lm.ReleaseAll(1);
}

TEST(TxnLocksTest, ForeignReleasePathInvalidatesCache) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  // A release routed without the handle (e.g. from recovery or an
  // administrative path) drops the row found through the manager's map.
  ASSERT_TRUE(lm.Release(1, kR1).ok());
  EXPECT_EQ(locks->RowMode(kR1), LockMode::kNL);
}

TEST(TxnLocksTest, WoundInvalidatesCacheAndFailsNextAcquire) {
  LockManager::Options o;
  o.deadlock_policy = DeadlockPolicy::kWoundWait;
  LockManager lm(o);
  std::shared_ptr<TxnLocks> locks = lm.Begin(5);

  // Younger txn 5 holds S.
  ASSERT_TRUE(lm.Acquire(5, kR1, LockMode::kS, {}, locks.get()).ok());
  // A hit.
  ASSERT_TRUE(lm.Acquire(5, kR1, LockMode::kS, {}, locks.get()).ok());

  // Older txn 2 requests X: wounds 5 and blocks until it releases.
  Status st2;
  std::thread older([&] { st2 = lm.Acquire(2, kR1, LockMode::kX); });
  // Wait until the wound lands (the older txn enqueues first).
  for (int i = 0; i < 200; ++i) {
    if (lm.stats().waits.value() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The covered re-acquisition must NOT be a hit: the wounded
  // transaction is refused before its row is looked at.
  Status st5 = lm.Acquire(5, kR1, LockMode::kS, {}, locks.get());
  EXPECT_TRUE(st5.IsAborted()) << st5;

  lm.ReleaseAll(5);
  older.join();
  EXPECT_TRUE(st2.ok()) << st2;
  lm.ReleaseAll(2);
}

TEST(TxnLocksTest, LongRequestNeverPiggybacksOnShortHolder) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());

  AcquireOptions long_opts;
  long_opts.duration = LockDuration::kLong;
  const uint64_t slow_before = lm.stats().requests.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, long_opts, locks.get()).ok());
  // The request reached the shard (the holder's duration must be
  // upgraded for crash survival; the short row may not absorb it).
  EXPECT_GT(lm.stats().requests.value(), slow_before);
  std::vector<LongLockRecord> longs = lm.SnapshotLongLocks();
  ASSERT_EQ(longs.size(), 1u);
  EXPECT_EQ(longs[0].txn, 1u);

  // Once the holder is long, further long requests may hit.
  const uint64_t hits_before = lm.stats().cache_hits.value();
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, long_opts, locks.get()).ok());
  EXPECT_EQ(lm.stats().cache_hits.value(), hits_before + 1);
  lm.ReleaseAll(1);
}

// ---- Lifetime: an ended handle never records where ReleaseAll is blind --

TEST(TxnLocksTest, AcquireThroughEndedHandleBeginsTheIdAgain) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX, {}, locks.get()).ok());
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumTxns(), 0u);

  // The ended handle is put back under its id, so the next ReleaseAll
  // still finds what it acquires.
  ASSERT_TRUE(lm.Acquire(1, kR2, LockMode::kX, {}, locks.get()).ok());
  EXPECT_EQ(lm.NumTxns(), 1u);
  EXPECT_EQ(lm.Begin(1), locks);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, EndedHandleFailsOnceItsIdIsBegunElsewhere) {
  LockManager lm;
  std::shared_ptr<TxnLocks> stale = lm.Begin(1);
  lm.ReleaseAll(1);
  std::shared_ptr<TxnLocks> fresh = lm.Begin(1);
  ASSERT_NE(stale, fresh);
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, stale.get()).IsAborted());
  EXPECT_EQ(lm.NumEntries(), 0u);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, fresh.get()).ok());
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumTxns(), 0u);
}

TEST(TxnLocksTest, ReleaseThroughHandleDropsItsRow) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(2, kR1, LockMode::kIS).ok());
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_EQ(lm.LocksOf(1).size(), 1u);

  // The last release of the hold removes its row; the transaction stays
  // begun with nothing left to release.
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  EXPECT_TRUE(lm.LocksOf(1).empty());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kNL);
  EXPECT_EQ(locks->RowMode(kR1), LockMode::kNL);
  EXPECT_EQ(lm.NumTxns(), 2u);
  EXPECT_EQ(lm.ReleaseAll(1), 0u);
  EXPECT_EQ(lm.ReleaseAll(2), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, IdKeyedReleaseDropsTheHandlesRow) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(1, kR2, LockMode::kIX, {}, locks.get()).ok());

  // Released without the handle: the row goes through the id's map, so
  // ReleaseAll later finds only what is still held.
  ASSERT_TRUE(lm.Release(1, kR1).ok());
  std::vector<HeldLock> held = lm.LocksOf(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].resource, kR2);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, LocksOfReportsACacheHitHoldOnceAfterOneRelease) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_EQ(lm.stats().cache_hits.value(), 1u);

  // The release pairs the hit; the shard-side hold and its one row stay.
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  std::vector<HeldLock> held = lm.LocksOf(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].resource, kR1);
  EXPECT_EQ(held[0].mode, LockMode::kS);
  EXPECT_EQ(locks->RowMode(kR1), LockMode::kS);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, ConversionThroughHandleKeepsOneRow) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  // S does not cover IX: the shard converts the one holder to SIX.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIX, {}, locks.get()).ok());

  std::vector<HeldLock> held = lm.LocksOf(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].mode, LockMode::kSIX);
  std::vector<LongLockRecord> all = lm.SnapshotAllLocks();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].txn, 1u);
  EXPECT_EQ(all[0].mode, LockMode::kSIX);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, HandleReleaseOfSWakesAQueuedXWaiter) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());

  Status st2;
  std::thread writer([&] { st2 = lm.Acquire(2, kR1, LockMode::kX); });
  while (lm.NumBlockedWaiters() < 1) std::this_thread::yield();

  // The release through the handle must hand the entry to the waiter
  // (a lost wakeup would leave it asleep until its deadline).
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  writer.join();
  EXPECT_TRUE(st2.ok()) << st2;
  EXPECT_EQ(lm.stats().timeouts.value(), 0u);
  EXPECT_EQ(lm.GroupMode(kR1), LockMode::kX);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, HandleDowngradeToISGrantsAQueuedIX) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());

  Status st2;
  std::thread writer([&] { st2 = lm.Acquire(2, kR1, LockMode::kIX); });
  while (lm.NumBlockedWaiters() < 1) std::this_thread::yield();

  // IS is compatible with IX: the narrower mode admits the waiter, and
  // the row's S must not survive the downgrade.
  ASSERT_TRUE(lm.Downgrade(1, kR1, LockMode::kIS, locks.get()).ok());
  writer.join();
  EXPECT_TRUE(st2.ok()) << st2;
  EXPECT_EQ(lm.GroupMode(kR1), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kIS);
  EXPECT_EQ(locks->RowMode(kR1), LockMode::kIS);
  EXPECT_EQ(lm.LocksOf(1).size(), 1u);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, ForeignDowngradeInvalidatesCache) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX, {}, locks.get()).ok());
  ASSERT_EQ(locks->RowMode(kR1), LockMode::kX);
  // A downgrade by id shrinks the hold without the handle; the row's X
  // must not survive it.
  ASSERT_TRUE(lm.Downgrade(1, kR1, LockMode::kS).ok());
  EXPECT_EQ(locks->RowMode(kR1), LockMode::kS);

  // The slow path computes sup(S, IX) = SIX; a stale X would have
  // answered as a hit.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIX, {}, locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kSIX);
  lm.ReleaseAll(1);
}

TEST(TxnLocksTest, IdKeyedDowngradeKeepsAHitsCount) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_EQ(lm.stats().cache_hits.value(), 1u);

  // The release pairs the hit, so the acquisition before it still holds
  // the downgraded mode.
  ASSERT_TRUE(lm.Downgrade(1, kR1, LockMode::kIS).ok());
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kIS);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, IdKeyedReleaseKeepsAnotherResourcesHit) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(1, kR2, LockMode::kIX, {}, locks.get()).ok());
  ASSERT_EQ(lm.stats().cache_hits.value(), 1u);

  ASSERT_TRUE(lm.Release(1, kR2).ok());
  ASSERT_TRUE(lm.Release(1, kR1, locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kS);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, RowsPastTheHitBoundGoToTheTable) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  const uint64_t n = TxnLocks::kHitRows + 1;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(
        lm.Acquire(1, ResourceId{3, i}, LockMode::kIX, {}, locks.get()).ok());
  }
  const ResourceId first{3, 0};
  const ResourceId last{3, n - 1};
  EXPECT_EQ(locks->RowMode(last), LockMode::kIX);

  // The first row answers its re-acquisition; the last is past the bound,
  // and a miss is always safe: the table re-grants the mode already held.
  const uint64_t slow_before = lm.stats().requests.value();
  ASSERT_TRUE(lm.Acquire(1, first, LockMode::kIX, {}, locks.get()).ok());
  EXPECT_EQ(lm.stats().cache_hits.value(), 1u);
  ASSERT_TRUE(lm.Acquire(1, last, LockMode::kIX, {}, locks.get()).ok());
  EXPECT_EQ(lm.stats().requests.value(), slow_before + 1);
  EXPECT_EQ(lm.stats().cache_hits.value(), 1u);

  // Each release undoes its own acquisition: the hold stays until the
  // second one.
  ASSERT_TRUE(lm.Release(1, first, locks.get()).ok());
  ASSERT_TRUE(lm.Release(1, last, locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, first), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, last), LockMode::kIX);
  ASSERT_TRUE(lm.Release(1, last, locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, last), LockMode::kNL);
  EXPECT_EQ(lm.ReleaseAll(1), n - 1);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksTest, WoundFailsIdKeyedAcquiresUntilTheTxnEnds) {
  LockManager::Options o;
  o.deadlock_policy = DeadlockPolicy::kWoundWait;
  LockManager lm(o);
  ASSERT_TRUE(lm.Acquire(5, kR1, LockMode::kS).ok());

  // Older txn 2 requests X: it wounds 5 and waits for 5 to end.
  Status st2;
  std::thread older([&] { st2 = lm.Acquire(2, kR1, LockMode::kX); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lm.NumBlockedWaiters() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(lm.NumBlockedWaiters(), 1u);
  // The waiter wounds under kR1's shard mutex before it sleeps, so this
  // read of kR1 returns only after the wound.
  EXPECT_EQ(lm.GroupMode(kR1), LockMode::kS);

  // The flag lives on 5's TxnLocks, which an id-keyed call resolves too:
  // even a free resource is refused.
  EXPECT_TRUE(lm.Acquire(5, kR2, LockMode::kS).IsAborted());
  EXPECT_EQ(lm.HeldMode(5, kR2), LockMode::kNL);

  EXPECT_EQ(lm.ReleaseAll(5), 1u);
  older.join();
  EXPECT_TRUE(st2.ok()) << st2;

  // The wound ended with the transaction: the id begins afresh.
  EXPECT_TRUE(lm.Acquire(5, kR2, LockMode::kS).ok());
  EXPECT_EQ(lm.ReleaseAll(5), 1u);
  EXPECT_EQ(lm.ReleaseAll(2), 1u);
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

// ---- The map does not grow with transactions served ---------------------

TEST(TxnLocksMapTest, EveryTxnManagerEndEmptiesTheMap) {
  LockManager lm;
  txn::TxnManager txns(&lm);
  const std::vector<ResourceId> path = {{0, 1}, {1, 10}, {2, 100}};
  const std::function<Status(txn::Transaction*)> ends[] = {
      [&](txn::Transaction* t) { return txns.Commit(t); },
      [&](txn::Transaction* t) { return txns.Abort(t); },
      [&](txn::Transaction* t) {
        return txns.Abort(t, Status::Deadlock("victim"));
      },
  };
  for (const auto& end : ends) {
    txn::Transaction* t = txns.Begin(1);
    const TxnId id = t->id();
    EXPECT_EQ(lm.NumTxns(), 1u);
    ASSERT_TRUE(lm.AcquirePath(id, path, LockMode::kX, {}, &t->locks()).ok());
    ASSERT_TRUE(end(t).ok());
    txns.Forget(id);
    EXPECT_EQ(lm.NumTxns(), 0u);
    EXPECT_EQ(lm.NumEntries(), 0u);
  }
}

TEST(TxnLocksMapTest, IdKeyedRestoreAndAdoptShareOneEntry) {
  LockManager lm;
  txn::TxnManager txns(&lm);
  ASSERT_TRUE(lm.RestoreLongLocks({{7, kR1, LockMode::kX},
                                   {7, kR2, LockMode::kIX}})
                  .ok());
  EXPECT_EQ(lm.NumTxns(), 1u);
  txn::Transaction* t = txns.Adopt(7, 1, txn::TxnKind::kLong);
  EXPECT_EQ(lm.NumTxns(), 1u);
  EXPECT_EQ(lm.Begin(7).get(), &t->locks());
  EXPECT_EQ(lm.LocksOf(7).size(), 2u);
  ASSERT_TRUE(txns.Commit(t).ok());
  txns.Forget(7);
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(lm.NumEntries(), 0u);

  // A reclaim without a transaction: the id-keyed ReleaseAll ends it.
  ASSERT_TRUE(lm.RestoreLongLocks({{8, kR1, LockMode::kS}}).ok());
  ASSERT_TRUE(lm.Acquire(9, kR2, LockMode::kX).ok());
  EXPECT_EQ(lm.NumTxns(), 2u);
  EXPECT_EQ(lm.ReleaseAll(8), 1u);
  EXPECT_EQ(lm.ReleaseAll(9), 1u);
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksMapTest, TransactionHandleIsTheMapEntry) {
  LockManager lm;
  txn::TxnManager txns(&lm);
  txn::Transaction* t = txns.Begin(1);
  const TxnId id = t->id();
  EXPECT_EQ(lm.Begin(id).get(), &t->locks());

  // Grants through the handle and by id land in one held list.
  ASSERT_TRUE(lm.Acquire(id, kR1, LockMode::kX, {}, &t->locks()).ok());
  ASSERT_TRUE(lm.Acquire(id, kR2, LockMode::kS).ok());
  EXPECT_EQ(lm.LocksOf(id).size(), 2u);
  EXPECT_EQ(lm.NumTxns(), 1u);
  ASSERT_TRUE(txns.Commit(t).ok());
  txns.Forget(id);
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksMapTest, InspectionAndFailedReleasesBeginNothing) {
  LockManager lm;
  EXPECT_EQ(lm.ReleaseAll(42), 0u);
  EXPECT_TRUE(lm.LocksOf(42).empty());
  EXPECT_EQ(lm.HeldMode(42, kR1), LockMode::kNL);
  EXPECT_TRUE(lm.Release(42, kR1).IsNotFound());
  EXPECT_TRUE(lm.Downgrade(42, kR1, LockMode::kIS).IsNotFound());
  EXPECT_EQ(lm.NumTxns(), 0u);

  // The entry exists, but 42 holds nothing on it.
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Release(42, kR1).IsNotFound());
  EXPECT_TRUE(lm.Downgrade(42, kR1, LockMode::kIS).IsNotFound());
  EXPECT_EQ(lm.NumTxns(), 1u);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumTxns(), 0u);
}

TEST(TxnLocksMapTest, RejectedRestoreBeginsNoTransaction) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  // All-or-nothing: the conflict on kR1 keeps 7's record on kR2 out too.
  EXPECT_TRUE(lm.RestoreLongLocks({{7, kR2, LockMode::kX},
                                   {8, kR1, LockMode::kS}})
                  .IsInternal());
  EXPECT_EQ(lm.NumTxns(), 1u);
  EXPECT_TRUE(lm.LocksOf(7).empty());
  EXPECT_EQ(lm.GroupMode(kR2), LockMode::kNL);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksMapTest, RefusedIdKeyedAcquireLeavesTheIdToReleaseAll) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  AcquireOptions no_wait;
  no_wait.wait = false;
  // The call began 2 before the conflict; its caller's EOT ends it.
  EXPECT_TRUE(lm.Acquire(2, kR1, LockMode::kS, no_wait).IsConflict());
  EXPECT_EQ(lm.NumTxns(), 2u);
  EXPECT_TRUE(lm.LocksOf(2).empty());
  EXPECT_EQ(lm.ReleaseAll(2), 0u);
  EXPECT_EQ(lm.NumTxns(), 1u);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksMapTest, ConcurrentTransactionsLeaveTheMapEmpty) {
  LockManager lm;
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Shared root and cell (compatible intention locks), a leaf of this
      // worker's own, and an S every worker holds at once.
      const std::vector<ResourceId> path = {
          {0, 1}, {1, 10}, {2, 100 + static_cast<uint64_t>(w)}};
      const ResourceId shared{3, 7};
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const TxnId id = static_cast<TxnId>(1 + w * kTxnsPerThread + i);
        std::shared_ptr<TxnLocks> locks = lm.Begin(id);
        if (!lm.AcquirePath(id, path, LockMode::kX, {}, locks.get()).ok() ||
            !lm.Acquire(id, path[1], LockMode::kIS, {}, locks.get()).ok() ||
            !lm.Acquire(id, shared, LockMode::kS, {}, locks.get()).ok()) {
          failures.fetch_add(1);
        }
        lm.ReleaseAll(id);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(TxnLocksMapTest, IdsSharingAStripeLiveIndependently) {
  using Registry = StripedMap<TxnId, std::shared_ptr<TxnLocks>>;
  constexpr TxnId kA = 3;
  constexpr TxnId kB = kA + Registry::kStripes;
  static_assert(Registry::StripeOf(kA) == Registry::StripeOf(kB));
  constexpr ResourceId kR3{3, 300};
  constexpr ResourceId kR4{4, 400};

  LockManager::Options o;
  o.deadlock_policy = DeadlockPolicy::kWoundWait;
  LockManager lm(o);
  txn::TxnManager txns(&lm);

  // Begun independently: one stripe, two entries; a third transaction in
  // another stripe counts too.
  txn::Transaction* a = txns.Adopt(kA, 1, txn::TxnKind::kShort);
  txn::Transaction* b = txns.Adopt(kB, 1, txn::TxnKind::kShort);
  txn::Transaction* c = txns.Begin(1);
  EXPECT_NE(Registry::StripeOf(c->id()), Registry::StripeOf(kA));
  EXPECT_NE(&a->locks(), &b->locks());
  EXPECT_EQ(lm.Begin(kA).get(), &a->locks());
  EXPECT_EQ(lm.Begin(kB).get(), &b->locks());
  EXPECT_EQ(lm.NumTxns(), 3u);
  EXPECT_EQ(txns.ActiveCount(), 3u);

  ASSERT_TRUE(lm.Acquire(kA, kR1, LockMode::kX, {}, &a->locks()).ok());
  ASSERT_TRUE(lm.Acquire(kB, kR2, LockMode::kS, {}, &b->locks()).ok());
  ASSERT_TRUE(lm.Acquire(kB, kR3, LockMode::kS, {}, &b->locks()).ok());
  ASSERT_TRUE(lm.Acquire(c->id(), kR4, LockMode::kS, {}, &c->locks()).ok());

  // Released by id: only B's row of kR3 goes.
  ASSERT_TRUE(lm.Release(kB, kR3).ok());
  EXPECT_EQ(lm.LocksOf(kB).size(), 1u);
  EXPECT_EQ(b->locks().RowMode(kR2), LockMode::kS);
  EXPECT_EQ(b->locks().RowMode(kR3), LockMode::kNL);
  EXPECT_EQ(lm.LocksOf(kA).size(), 1u);
  EXPECT_EQ(a->locks().RowMode(kR1), LockMode::kX);

  // Wounded: older A requests X on B's kR2 from another thread, wounds B
  // and waits for B to end.
  Status st_a;
  std::thread older([&] { st_a = lm.Acquire(kA, kR2, LockMode::kX); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lm.NumBlockedWaiters() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(lm.NumBlockedWaiters(), 1u);
  // The waiter wounds under kR2's shard mutex before it sleeps, so this
  // read of kR2 returns only after the wound.
  EXPECT_EQ(lm.GroupMode(kR2), LockMode::kS);
  EXPECT_TRUE(
      lm.Acquire(kB, kR4, LockMode::kS, {}, &b->locks()).IsAborted());
  EXPECT_EQ(a->locks().RowMode(kR1), LockMode::kX);

  // Ended: B's end leaves A registered, and A gets B's lock.
  ASSERT_TRUE(txns.Abort(b, Status::Aborted("wounded")).ok());
  txns.Forget(kB);
  older.join();
  ASSERT_TRUE(st_a.ok()) << st_a;
  EXPECT_EQ(lm.NumTxns(), 2u);
  EXPECT_EQ(txns.ActiveCount(), 2u);
  EXPECT_TRUE(txns.Get(kB).status().IsNotFound());
  EXPECT_EQ(lm.Begin(kA).get(), &a->locks());
  EXPECT_EQ(lm.LocksOf(kA).size(), 2u);
  EXPECT_TRUE(lm.Acquire(kA, kR4, LockMode::kS, {}, &a->locks()).ok());

  ASSERT_TRUE(txns.Commit(a).ok());
  txns.Forget(kA);
  ASSERT_TRUE(txns.Commit(c).ok());
  txns.Forget(c->id());
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(txns.ActiveCount(), 0u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

class TxnLocksServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = sim::BuildFigure7Instance();
    ws::Server::Options opts;
    opts.protocol.timeout_ms = 100;
    opts.lock_manager.default_timeout_ms = 100;
    opts.lease.duration_ms = 1000;
    opts.lease.grace_ms = 500;
    server_ = std::make_unique<ws::Server>(fx_.catalog.get(),
                                           fx_.store.get(), std::move(opts));
  }

  /// Update query over one cell's local objects.
  query::Query CellQuery(const std::string& key) const {
    query::Query q;
    q.name = "txn-locks-" + key;
    q.relation = fx_.cells;
    q.object_key = key;
    q.path = {nf2::PathStep::Field("c_objects")};
    q.kind = query::AccessKind::kUpdate;
    return q;
  }

  Result<ws::CheckOutTicket> CheckOut() {
    return server_->CheckOut(1, CellQuery("c1"),
                             ws::CheckOutMode::kExclusive);
  }

  void ExpireLeases() {
    server_->clock().AdvanceMs(server_->leases().options().duration_ms +
                               server_->leases().options().grace_ms + 1);
  }

  size_t NumTxns() { return server_->lock_manager().NumTxns(); }

  sim::CellsFixture fx_;
  std::unique_ptr<ws::Server> server_;
};

TEST_F(TxnLocksServerTest, CheckInCancelAndReclaimEmptyTheMap) {
  Result<ws::CheckOutTicket> t = CheckOut();
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(NumTxns(), 1u);
  ASSERT_TRUE(server_->CheckIn(*t).ok());
  EXPECT_EQ(NumTxns(), 0u);

  t = CheckOut();
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_TRUE(server_->CancelCheckOut(*t).ok());
  EXPECT_EQ(NumTxns(), 0u);

  t = CheckOut();
  ASSERT_TRUE(t.ok()) << t.status();
  ExpireLeases();
  ASSERT_EQ(server_->SweepExpiredLeases(), 1u);
  EXPECT_EQ(NumTxns(), 0u);
  EXPECT_EQ(server_->lock_manager().NumEntries(), 0u);
}

TEST_F(TxnLocksServerTest, RestoredCheckOutIsReclaimedThroughOneEntry) {
  Result<ws::CheckOutTicket> t = CheckOut();
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_TRUE(server_->CrashAndRestart().ok());
  // RestoreLongLocks began the id; adoption found the same entry.
  EXPECT_EQ(NumTxns(), 1u);
  EXPECT_FALSE(server_->lock_manager().LocksOf(t->txn).empty());
  ExpireLeases();
  ASSERT_EQ(server_->SweepExpiredLeases(), 1u);
  EXPECT_EQ(NumTxns(), 0u);
  EXPECT_EQ(server_->lock_manager().NumEntries(), 0u);
}

TEST(AcquirePathTest, LocksEveryLevelAndWarmsCache) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);

  const std::vector<ResourceId> path = {{0, 1}, {1, 10}, {2, 100}};
  ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kX, {}, locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, path[0]), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, path[1]), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, path[2]), LockMode::kX);

  // The whole second pass is answered from the rows.
  const uint64_t slow_before = lm.stats().requests.value();
  const uint64_t hits_before = lm.stats().cache_hits.value();
  ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kX, {}, locks.get()).ok());
  EXPECT_EQ(lm.stats().requests.value(), slow_before);
  EXPECT_EQ(lm.stats().cache_hits.value(), hits_before + 3);

  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(AcquirePathTest, SharedLeafUsesIntentionSharedPrefix) {
  LockManager lm;
  const std::vector<ResourceId> path = {{0, 1}, {1, 10}, {2, 100}};
  ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kS).ok());
  EXPECT_EQ(lm.HeldMode(1, path[0]), LockMode::kIS);
  EXPECT_EQ(lm.HeldMode(1, path[1]), LockMode::kIS);
  EXPECT_EQ(lm.HeldMode(1, path[2]), LockMode::kS);
  lm.ReleaseAll(1);
}

TEST(AcquirePathTest, ConflictingLeafBlocksUntilHolderReleases) {
  LockManager lm;
  const std::vector<ResourceId> path = {{0, 1}, {1, 10}, {2, 100}};
  ASSERT_TRUE(lm.Acquire(2, path[2], LockMode::kX).ok());

  std::atomic<bool> granted{false};
  std::thread blocked([&] {
    ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kS).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted);
  lm.ReleaseAll(2);
  blocked.join();
  EXPECT_TRUE(granted);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(AcquirePathTest, RejectsInvalidInput) {
  LockManager lm;
  const std::vector<ResourceId> path = {{0, 1}};
  EXPECT_TRUE(
      lm.AcquirePath(kInvalidTxn, path, LockMode::kS).IsInvalidArgument());
  EXPECT_TRUE(lm.AcquirePath(1, {}, LockMode::kS).IsInvalidArgument());
  EXPECT_TRUE(lm.AcquirePath(1, path, LockMode::kNL).IsInvalidArgument());
}

TEST(AcquirePathTest, LongPathsFallBackToPerResourceAcquisition) {
  LockManager lm;
  std::vector<ResourceId> path;
  for (uint64_t i = 0; i < 80; ++i) path.push_back(ResourceId{3, i});
  ASSERT_TRUE(lm.AcquirePath(1, path, LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(1, path[0]), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, path[79]), LockMode::kX);
  EXPECT_EQ(lm.ReleaseAll(1), 80u);
}

std::vector<ResourceId> PathOfLength(uint64_t n) {
  std::vector<ResourceId> path;
  for (uint64_t i = 0; i < n; ++i) path.push_back(ResourceId{3, i});
  return path;
}

/// Txn 2 holds X on the leaf of an \p n-resource path; txn 1's no-wait X
/// path must fail and leave nothing of its own behind.
void ExpectFailedPathLeavesNoGrantsBehind(uint64_t n) {
  LockManager lm;
  const std::vector<ResourceId> path = PathOfLength(n);
  ASSERT_TRUE(lm.Acquire(2, path.back(), LockMode::kX).ok());
  AcquireOptions no_wait;
  no_wait.wait = false;
  EXPECT_EQ(lm.AcquirePath(1, path, LockMode::kX, no_wait).code(),
            StatusCode::kConflict);
  EXPECT_TRUE(lm.LocksOf(1).empty());
  EXPECT_EQ(lm.HeldMode(1, path[0]), LockMode::kNL);
  EXPECT_EQ(lm.NumEntries(), 1u);
  EXPECT_EQ(lm.ReleaseAll(1), 0u);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

/// As above, but txn 1 held X on the root before the call: the path's
/// re-entrant IX there is rolled back to the one acquisition made before.
void ExpectFailedPathKeepsLocksHeldBeforeTheCall(uint64_t n) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  const std::vector<ResourceId> path = PathOfLength(n);
  ASSERT_TRUE(lm.Acquire(1, path[0], LockMode::kX, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(2, path.back(), LockMode::kX).ok());
  AcquireOptions no_wait;
  no_wait.wait = false;
  EXPECT_EQ(lm.AcquirePath(1, path, LockMode::kX, no_wait, locks.get()).code(),
            StatusCode::kConflict);
  std::vector<HeldLock> held = lm.LocksOf(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].resource, path[0]);
  EXPECT_EQ(held[0].mode, LockMode::kX);
  // Exactly one acquisition is left to pair.
  ASSERT_TRUE(lm.Release(1, path[0], locks.get()).ok());
  EXPECT_EQ(lm.HeldMode(1, path[0]), LockMode::kNL);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

// 64 resources is the longest path the batched passes take; 65 falls back
// to per-resource acquisition, which must roll back just the same.
TEST(AcquirePathTest, FailedBatchedPathLeavesNoGrantsBehind) {
  ExpectFailedPathLeavesNoGrantsBehind(64);
}

TEST(AcquirePathTest, FailedLongPathLeavesNoGrantsBehind) {
  ExpectFailedPathLeavesNoGrantsBehind(65);
}

TEST(AcquirePathTest, FailedBatchedPathKeepsLocksHeldBeforeTheCall) {
  ExpectFailedPathKeepsLocksHeldBeforeTheCall(3);
}

TEST(AcquirePathTest, FailedLongPathKeepsLocksHeldBeforeTheCall) {
  ExpectFailedPathKeepsLocksHeldBeforeTheCall(65);
}

TEST(LockManagerShardingTest, ShardCountClampedToPowerOfTwo) {
  auto shards_with = [](int n) {
    LockManager::Options o;
    o.num_shards = n;
    return LockManager(o).NumShards();
  };
  EXPECT_EQ(shards_with(1), 1u);
  EXPECT_EQ(shards_with(3), 4u);
  EXPECT_EQ(shards_with(16), 16u);
  EXPECT_EQ(shards_with(17), 32u);
}

TEST(LockManagerShardingTest, ZeroShardsDerivesFromHardwareConcurrency) {
  // num_shards <= 0 derives the count from the machine (4x the logical
  // CPU count, power of two, clamped to [16, 1024]).
  const size_t derived =
      LockManager::DerivedNumShards(std::thread::hardware_concurrency());
  auto shards_with = [](int n) {
    LockManager::Options o;
    o.num_shards = n;
    return LockManager(o).NumShards();
  };
  EXPECT_EQ(shards_with(0), derived);
  EXPECT_EQ(shards_with(-5), derived);
}

TEST(LockManagerShardingTest, DerivedNumShardsScalesWithCores) {
  // Unknown concurrency: the historical default.
  EXPECT_EQ(LockManager::DerivedNumShards(0), 16u);
  // Small hosts keep the floor of 16.
  EXPECT_EQ(LockManager::DerivedNumShards(1), 16u);
  EXPECT_EQ(LockManager::DerivedNumShards(4), 16u);
  // 4x over-provisioning, rounded up to a power of two.
  EXPECT_EQ(LockManager::DerivedNumShards(8), 32u);
  EXPECT_EQ(LockManager::DerivedNumShards(12), 64u);
  EXPECT_EQ(LockManager::DerivedNumShards(16), 64u);
  EXPECT_EQ(LockManager::DerivedNumShards(24), 128u);
  EXPECT_EQ(LockManager::DerivedNumShards(64), 256u);
  // Huge hosts hit the 1024 ceiling.
  EXPECT_EQ(LockManager::DerivedNumShards(1000), 1024u);
  EXPECT_EQ(LockManager::DerivedNumShards(100000), 1024u);
}

TEST(LockManagerWakeupTest, HandleReleaseAllWakesTheWaitersOfEveryEntry) {
  LockManager::Options o;
  o.num_shards = 2;
  LockManager lm(o);
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  const std::vector<ResourceId> held = {{4, 1}, {4, 2}, {4, 3}, {4, 4}};
  for (const ResourceId& r : held) {
    ASSERT_TRUE(lm.Acquire(1, r, LockMode::kS, {}, locks.get()).ok());
  }

  std::vector<Status> got(held.size());
  std::vector<std::thread> writers;
  for (size_t i = 0; i < held.size(); ++i) {
    writers.emplace_back([&, i] {
      got[i] = lm.Acquire(static_cast<TxnId>(10 + i), held[i], LockMode::kX);
    });
  }
  while (lm.NumBlockedWaiters() < held.size()) std::this_thread::yield();

  EXPECT_EQ(lm.ReleaseAll(1), held.size());
  for (std::thread& w : writers) w.join();
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_TRUE(got[i].ok()) << got[i];
    EXPECT_EQ(lm.GroupMode(held[i]), LockMode::kX);
    lm.ReleaseAll(static_cast<TxnId>(10 + i));
  }
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerWakeupTest, DowngradePromotesEveryCompatibleQueuedWaiter) {
  // Per-waiter wakeups must promote *all* waiters the narrower mode no
  // longer blocks, not just one (a broadcast CV hid missed-wakeup bugs).
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());

  std::atomic<int> granted{0};
  std::thread r1([&] {
    ASSERT_TRUE(lm.Acquire(2, kR1, LockMode::kS).ok());
    granted.fetch_add(1);
  });
  std::thread r2([&] {
    ASSERT_TRUE(lm.Acquire(3, kR1, LockMode::kIS).ok());
    granted.fetch_add(1);
  });
  // Wait until both requests are queued.
  for (int i = 0; i < 500 && lm.stats().waits.value() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(granted.load(), 0);

  ASSERT_TRUE(lm.Downgrade(1, kR1, LockMode::kS).ok());
  r1.join();
  r2.join();
  EXPECT_EQ(granted.load(), 2);
  EXPECT_EQ(lm.GroupMode(kR1), LockMode::kS);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
}

}  // namespace
}  // namespace codlock::lock
