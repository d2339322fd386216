/// Tests for the lock manager: grants, conflicts, conversions, fairness,
/// blocking, deadlock detection, timeouts, long locks.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "lock/lock_manager.h"
#include "lock/long_lock_store.h"

namespace codlock::lock {
namespace {

constexpr ResourceId kR1{1, 100};
constexpr ResourceId kR2{2, 200};

AcquireOptions NoWait() {
  AcquireOptions o;
  o.wait = false;
  return o;
}

AcquireOptions ShortTimeout() {
  AcquireOptions o;
  o.timeout_ms = 50;
  return o;
}

TEST(LockManagerTest, GrantAndRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kS);
  EXPECT_EQ(lm.NumEntries(), 1u);
  ASSERT_TRUE(lm.Release(1, kR1).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kNL);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerTest, CompatibleSharers) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(2, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(3, kR1, LockMode::kIS).ok());
  EXPECT_EQ(lm.GroupMode(kR1), LockMode::kS);
}

TEST(LockManagerTest, ConflictNoWaitFails) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  EXPECT_TRUE(lm.Acquire(2, kR1, LockMode::kS, NoWait()).IsConflict());
  EXPECT_TRUE(lm.Acquire(2, kR1, LockMode::kIS, NoWait()).IsConflict());
}

TEST(LockManagerTest, ReentrantAcquireCountsAndReleases) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kIS).ok());  // covered
  EXPECT_TRUE(lm.Release(1, kR1).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kS);  // still held (count 2)
  EXPECT_TRUE(lm.Release(1, kR1).ok());
  EXPECT_TRUE(lm.Release(1, kR1).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kNL);
}

TEST(LockManagerTest, UpgradeToSupremum) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kIX).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kSIX);  // sup(S, IX)
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kX);
}

TEST(LockManagerTest, UpgradeBlockedByOtherHolderNoWait) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(2, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kX, NoWait()).IsConflict());
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kS);  // unchanged
}

TEST(LockManagerTest, BlockedRequestGrantedOnRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(lm.Acquire(2, kR1, LockMode::kS).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted);
  ASSERT_TRUE(lm.Release(1, kR1).ok());
  waiter.join();
  EXPECT_TRUE(granted);
  EXPECT_EQ(lm.HeldMode(2, kR1), LockMode::kS);
}

TEST(LockManagerTest, FifoFairnessNoReaderOvertakesQueuedWriter) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  std::atomic<bool> writer_granted{false};
  std::thread writer([&] {
    ASSERT_TRUE(lm.Acquire(2, kR1, LockMode::kX).ok());
    writer_granted = true;
    lm.Release(2, kR1);
  });
  // Give the writer time to queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // A new reader must NOT be granted ahead of the queued writer.
  EXPECT_TRUE(lm.Acquire(3, kR1, LockMode::kS, NoWait()).IsConflict());
  EXPECT_FALSE(writer_granted);
  lm.Release(1, kR1);
  writer.join();
  EXPECT_TRUE(writer_granted);
}

TEST(LockManagerTest, TimeoutExpires) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  Status st = lm.Acquire(2, kR1, LockMode::kX, ShortTimeout());
  EXPECT_TRUE(st.IsTimeout()) << st;
  EXPECT_EQ(lm.stats().timeouts.value(), 1u);
}

TEST(LockManagerTest, DeadlockDetectedAndYoungestDies) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(2, kR2, LockMode::kX).ok());

  std::atomic<int> deadlocks{0};
  Status st1, st2;
  std::thread t1([&] {
    st1 = lm.Acquire(1, kR2, LockMode::kX);  // waits for txn 2
    if (st1.IsDeadlock()) ++deadlocks;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread t2([&] {
    st2 = lm.Acquire(2, kR1, LockMode::kX);  // closes the cycle
    if (st2.IsDeadlock()) ++deadlocks;
  });
  t2.join();
  // Txn 2 is younger (higher id) and must be the victim.
  EXPECT_TRUE(st2.IsDeadlock()) << st2;
  // Txn 1 can proceed once txn 2 releases.
  lm.ReleaseAll(2);
  t1.join();
  EXPECT_TRUE(st1.ok()) << st1;
  EXPECT_EQ(deadlocks.load(), 1);
  EXPECT_GE(lm.stats().deadlocks.value(), 1u);
}

TEST(LockManagerTest, ReleaseAllDrainsEverything) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIX).ok());
  ASSERT_TRUE(lm.Acquire(1, kR2, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIX).ok());  // count 2
  EXPECT_EQ(lm.ReleaseAll(1), 2u);
  EXPECT_EQ(lm.HeldMode(1, kR1), LockMode::kNL);
  EXPECT_EQ(lm.HeldMode(1, kR2), LockMode::kNL);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerTest, LocksOfReportsHeldLocks) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kIX).ok());
  ASSERT_TRUE(lm.Acquire(1, kR2, LockMode::kX).ok());
  std::vector<HeldLock> held = lm.LocksOf(1);
  ASSERT_EQ(held.size(), 2u);
}

TEST(LockManagerTest, DowngradeWakesWaiters) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  std::atomic<bool> granted{false};
  std::thread reader([&] {
    ASSERT_TRUE(lm.Acquire(2, kR1, LockMode::kS).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted);
  ASSERT_TRUE(lm.Downgrade(1, kR1, LockMode::kS).ok());
  reader.join();
  EXPECT_TRUE(granted);
}

TEST(LockManagerTest, DowngradeToStrongerRejected) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  EXPECT_TRUE(lm.Downgrade(1, kR1, LockMode::kX).IsInvalidArgument());
}

TEST(LockManagerTest, InvalidArguments) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(kInvalidTxn, kR1, LockMode::kS).IsInvalidArgument());
  EXPECT_TRUE(lm.Acquire(1, kR1, LockMode::kNL).IsInvalidArgument());
  EXPECT_TRUE(lm.Release(1, kR1).IsNotFound());
  EXPECT_TRUE(lm.Downgrade(1, kR1, LockMode::kS).IsNotFound());
}

TEST(LockManagerTest, LongLocksSurviveCrashViaStore) {
  LongLockStore stable;
  {
    LockManager lm;
    AcquireOptions long_opts;
    long_opts.duration = LockDuration::kLong;
    ASSERT_TRUE(lm.Acquire(7, kR1, LockMode::kX, long_opts).ok());
    ASSERT_TRUE(lm.Acquire(7, kR2, LockMode::kS, long_opts).ok());
    ASSERT_TRUE(lm.Acquire(8, kR2, LockMode::kS).ok());  // short: lost
    stable.Save(lm);
    EXPECT_EQ(stable.size(), 2u);
  }  // crash: lm destroyed

  LockManager recovered;
  ASSERT_TRUE(stable.Restore(&recovered).ok());
  EXPECT_EQ(recovered.HeldMode(7, kR1), LockMode::kX);
  EXPECT_EQ(recovered.HeldMode(7, kR2), LockMode::kS);
  EXPECT_EQ(recovered.HeldMode(8, kR2), LockMode::kNL);
  // The recovered locks still block others.
  AcquireOptions nw;
  nw.wait = false;
  EXPECT_TRUE(recovered.Acquire(9, kR1, LockMode::kS, nw).IsConflict());
}

/// Restores S for txn 1 and IX for txn 2 on \p r in one batch: the two
/// records conflict with each other, so nothing may be installed.
void ExpectSelfConflictingRestoreRefused(ResourceId r) {
  LockManager lm;
  EXPECT_TRUE(lm.RestoreLongLocks({{1, r, LockMode::kS}, {2, r, LockMode::kIX}})
                  .IsInternal());
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.NumTxns(), 0u);
  EXPECT_EQ(lm.GroupMode(r), LockMode::kNL);

  // Records of one transaction merge; other transactions' compatible
  // records join them.
  ASSERT_TRUE(lm.RestoreLongLocks({{1, r, LockMode::kIS},
                                   {2, r, LockMode::kIS},
                                   {1, r, LockMode::kS}})
                  .ok());
  EXPECT_EQ(lm.HeldMode(1, r), LockMode::kS);
  EXPECT_EQ(lm.HeldMode(2, r), LockMode::kIS);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.ReleaseAll(2), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerTest, RestoreRefusesASelfConflictingBatchOnASingleton) {
  ExpectSelfConflictingRestoreRefused(ResourceId{3, 0});
}

TEST(LockManagerTest, RestoreRefusesASelfConflictingBatchOnAnInstance) {
  ExpectSelfConflictingRestoreRefused(ResourceId{5, 42});
}

TEST(LongLockStoreTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/codlock_longlocks.txt";
  LongLockStore a;
  a.SetBackingFile(path);
  {
    LockManager lm;
    AcquireOptions long_opts;
    long_opts.duration = LockDuration::kLong;
    ASSERT_TRUE(lm.Acquire(4, kR2, LockMode::kS, long_opts).ok());
    ASSERT_TRUE(a.Save(lm).ok());
  }
  LongLockStore b;
  ASSERT_TRUE(b.LoadFromFile(path).ok());
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.LoadFromFile("/no/such/file").IsNotFound());
}

TEST(LockManagerTest, StatsTrackRequestsAndGrants) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(2, kR1, LockMode::kS).ok());
  EXPECT_EQ(lm.stats().requests.value(), 2u);
  EXPECT_EQ(lm.stats().grants.value(), 2u);
  EXPECT_EQ(lm.stats().immediate_grants.value(), 2u);
  EXPECT_EQ(lm.stats().held_locks.load(), 2);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.stats().held_locks.load(), 0);
  EXPECT_EQ(lm.stats().max_held_locks.load(), 2);
}

TEST(LockManagerTest, ManyResourcesAcrossShards) {
  LockManager lm;
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(lm.Acquire(1, ResourceId{i, i * 7ULL}, LockMode::kS).ok());
  }
  EXPECT_EQ(lm.NumEntries(), 500u);
  EXPECT_EQ(lm.ReleaseAll(1), 500u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

}  // namespace
}  // namespace codlock::lock
