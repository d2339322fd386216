/// Additional lock-manager edge cases: group modes, long-lock restore
/// conflicts, duration upgrades, stats rendering, mixed-mode storms.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "lock/lock_manager.h"

namespace codlock::lock {
namespace {

constexpr ResourceId kR{3, 33};

TEST(LockManagerExtraTest, GroupModeIsSupremumOfHolders) {
  LockManager lm;
  EXPECT_EQ(lm.GroupMode(kR), LockMode::kNL);
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kIS).ok());
  EXPECT_EQ(lm.GroupMode(kR), LockMode::kIS);
  ASSERT_TRUE(lm.Acquire(2, kR, LockMode::kIX).ok());
  EXPECT_EQ(lm.GroupMode(kR), LockMode::kIX);
  ASSERT_TRUE(lm.Acquire(3, kR, LockMode::kIS).ok());
  EXPECT_EQ(lm.GroupMode(kR), LockMode::kIX);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.GroupMode(kR), LockMode::kIS);
}

TEST(LockManagerExtraTest, RestoreLongLocksConflictIsInternalError) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kX).ok());
  std::vector<LongLockRecord> records{{2, kR, LockMode::kX}};
  EXPECT_TRUE(lm.RestoreLongLocks(records).IsInternal());
}

TEST(LockManagerExtraTest, RestoreMergesIntoExistingHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(7, kR, LockMode::kIS).ok());
  std::vector<LongLockRecord> records{{7, kR, LockMode::kS}};
  ASSERT_TRUE(lm.RestoreLongLocks(records).ok());
  EXPECT_EQ(lm.HeldMode(7, kR), LockMode::kS);
  // The merged holder is now long-duration.
  std::vector<LongLockRecord> snap = lm.SnapshotLongLocks();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].txn, 7u);
}

TEST(LockManagerExtraTest, ReentrantLongAcquireUpgradesDuration) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kS).ok());
  EXPECT_TRUE(lm.SnapshotLongLocks().empty());
  AcquireOptions long_opts;
  long_opts.duration = LockDuration::kLong;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kS, long_opts).ok());
  EXPECT_EQ(lm.SnapshotLongLocks().size(), 1u);
}

TEST(LockManagerExtraTest, LocksOfReportsDuration) {
  LockManager lm;
  AcquireOptions long_opts;
  long_opts.duration = LockDuration::kLong;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kIX, long_opts).ok());
  std::vector<HeldLock> held = lm.LocksOf(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].duration, LockDuration::kLong);
  EXPECT_EQ(held[0].mode, LockMode::kIX);
}

TEST(LockManagerExtraTest, StatsToStringMentionsCounters) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kS).ok());
  std::string s = lm.stats().ToString();
  EXPECT_NE(s.find("requests=1"), std::string::npos);
  EXPECT_NE(s.find("grants=1"), std::string::npos);
  EXPECT_NE(s.find("deescalations=0"), std::string::npos);
}

TEST(LockManagerExtraTest, WaiterCleanupErasesEmptyEntries) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kX).ok());
  AcquireOptions o;
  o.timeout_ms = 40;
  EXPECT_TRUE(lm.Acquire(2, kR, LockMode::kS, o).IsTimeout());
  lm.ReleaseAll(1);
  // Both holder and the timed-out waiter are gone.
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerExtraTest, MixedModeStormStaysConsistent) {
  // 6 threads hammer one resource with IS/IX; the granted group must
  // always be internally compatible, and everything drains at the end.
  LockManager lm;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      TxnId txn = static_cast<TxnId>(t + 1);
      for (int i = 0; i < 300; ++i) {
        LockMode m = (i + t) % 2 == 0 ? LockMode::kIS : LockMode::kIX;
        if (!lm.Acquire(txn, kR, m).ok()) {
          failed = true;
          return;
        }
        if (!lm.Release(txn, kR).ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(), 0);
}

TEST(LockManagerExtraTest, ConversionQueueJumpDoesNotStarveUpgrade) {
  // Holder S; a queued X waiter; the S holder upgrades to X: the
  // conversion jumps the queue (it is compatible once it is the only
  // holder), so it must not deadlock against the queued waiter.
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kS).ok());

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    EXPECT_TRUE(lm.Acquire(2, kR, LockMode::kX).ok());
    writer_done = true;
    lm.ReleaseAll(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Upgrade S -> X while txn 2 waits: grantable immediately (only holder).
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(1, kR), LockMode::kX);
  EXPECT_FALSE(writer_done);
  lm.ReleaseAll(1);
  writer.join();
  EXPECT_TRUE(writer_done);
}

TEST(LockManagerExtraTest, SingleShardConfigurationWorks) {
  LockManager::Options o;
  o.num_shards = 1;
  LockManager lm(o);
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(lm.Acquire(1, ResourceId{i, i}, LockMode::kS).ok());
  }
  EXPECT_EQ(lm.NumEntries(), 50u);
  EXPECT_EQ(lm.ReleaseAll(1), 50u);
}

// ---- The lock table: bucket chains and the entry pool -------------------

LockManager SingleShardManager() {
  LockManager::Options o;
  o.num_shards = 1;
  return LockManager(o);
}

TEST(LockManagerTableTest, ReusedEntryCarriesNothingOfItsPreviousResource) {
  LockManager lm = SingleShardManager();
  const ResourceId r1{5, 1};
  const ResourceId r2{5, 2};
  ASSERT_TRUE(lm.Acquire(1, r1, LockMode::kX).ok());
  AcquireOptions no_wait;
  no_wait.wait = false;
  EXPECT_EQ(lm.Acquire(2, r1, LockMode::kS, no_wait).code(),
            StatusCode::kConflict);
  // The release empties r1's entry; its node goes to the pool and is the
  // one r2's first request gets.
  ASSERT_TRUE(lm.Release(1, r1).ok());
  ASSERT_TRUE(lm.Acquire(3, r2, LockMode::kIS).ok());

  EXPECT_EQ(lm.GroupMode(r1), LockMode::kNL);
  EXPECT_EQ(lm.GroupMode(r2), LockMode::kIS);
  EXPECT_EQ(lm.HeldMode(1, r2), LockMode::kNL);
  std::vector<LongLockRecord> all = lm.SnapshotAllLocks();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].txn, 3u);
  EXPECT_EQ(all[0].resource, r2);
  // Nobody holds r1 any more: an X there is granted at once.
  EXPECT_TRUE(lm.Acquire(2, r1, LockMode::kX, no_wait).ok());
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerTableTest, UnlinkingMidChainKeepsTheRestReachable) {
  // 2048 resources over one shard's 256 buckets: every chain is several
  // entries long, so releases unlink heads, middles and tails.
  LockManager lm = SingleShardManager();
  constexpr uint64_t kN = 2048;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(lm.Acquire(1, ResourceId{6, i}, LockMode::kS).ok());
  }
  for (uint64_t i = 1; i < kN; i += 2) {
    ASSERT_TRUE(lm.Release(1, ResourceId{6, i}).ok());
  }
  EXPECT_EQ(lm.NumEntries(), kN / 2);
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(lm.HeldMode(1, ResourceId{6, i}),
              i % 2 == 0 ? LockMode::kS : LockMode::kNL)
        << i;
  }
  for (uint64_t i = kN; i > 0; i -= 2) {  // the rest, in reverse
    ASSERT_TRUE(lm.Release(1, ResourceId{6, i - 2}).ok());
  }
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_TRUE(lm.SnapshotAllLocks().empty());
}

TEST(LockManagerTableTest, EntriesFreedPastThePoolAreRecreated) {
  // Far more entries empty at once than the pool keeps: most nodes are
  // freed, and later requests must build fresh ones rather than reach a
  // freed node (ASan would flag it).
  LockManager lm = SingleShardManager();
  constexpr uint64_t kN = 200;
  for (TxnId txn = 1; txn <= 3; ++txn) {
    const uint32_t rel = txn == 2 ? 8 : 7;  // txn 3 reuses txn 1's keys
    for (uint64_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(lm.Acquire(txn, ResourceId{rel, i}, LockMode::kX).ok());
    }
    EXPECT_EQ(lm.NumEntries(), kN);
    EXPECT_EQ(lm.GroupMode(ResourceId{rel, kN - 1}), LockMode::kX);
    EXPECT_EQ(lm.LocksOf(txn).size(), kN);
    EXPECT_EQ(lm.ReleaseAll(txn), kN);
    EXPECT_EQ(lm.NumEntries(), 0u);
  }
}

}  // namespace
}  // namespace codlock::lock
