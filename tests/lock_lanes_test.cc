/// Tests for the lock manager's lanes (lock_manager.h, "Lanes"): a
/// singleton granule (instance 0) is split into `kLanes` lane entries,
/// intention modes take the requester's lane and S/SIX/X take every lane.
/// Each test pins behaviour a single-entry lock table gets for free and
/// lanes must keep: grants, folding the lanes back into the granule,
/// rollback, deadlock handling, release counting and durability.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/long_lock_store.h"
#include "util/crc32.h"

namespace codlock::lock {
namespace {

constexpr ResourceId kRel{3, 0};  // a relation: singleton granule
constexpr ResourceId kObj{4, 40};  // an object below it

AcquireOptions NoWait() {
  AcquireOptions o;
  o.wait = false;
  return o;
}

AcquireOptions Timeout(uint64_t ms) {
  AcquireOptions o;
  o.timeout_ms = ms;
  return o;
}

AcquireOptions Long() {
  AcquireOptions o;
  o.duration = LockDuration::kLong;
  return o;
}

/// Waits until \p n requests are blocked in \p lm (5 s at most).
void AwaitBlocked(const LockManager& lm, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lm.NumBlockedWaiters() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(lm.NumBlockedWaiters(), n);
}

/// \p txn's mode on every lane of \p granule.
std::vector<LockMode> LaneModes(const LockManager& lm, TxnId txn,
                                ResourceId granule) {
  std::vector<LockMode> modes;
  for (uint64_t k = 0; k < kLanes; ++k) {
    modes.push_back(lm.HeldMode(txn, granule.Lane(k)));
  }
  return modes;
}

TEST(LockManagerLanesTest, LanePrintsAsItsGranule) {
  EXPECT_EQ(kRel.Lane(5).ToString(), "n3/i0@lane5");
  EXPECT_EQ(kRel.ToString(), "n3/i0");
  EXPECT_EQ(LaneOf(13), 5u);
}

TEST(LockManagerLanesTest, IntentionsShareNoLaneAndShareWaitsForBoth) {
  LockManager lm;
  // Txns 1 and 2 use lanes 1 and 2: both IX are granted, each on its own
  // lane only.
  ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kIX, NoWait()).ok());
  ASSERT_TRUE(lm.Acquire(2, kRel, LockMode::kIX, NoWait()).ok());
  EXPECT_EQ(lm.HeldMode(1, kRel.Lane(1)), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(2, kRel.Lane(2)), LockMode::kIX);
  EXPECT_EQ(lm.HeldMode(1, kRel.Lane(2)), LockMode::kNL);
  EXPECT_EQ(lm.GroupMode(kRel), LockMode::kIX);
  EXPECT_EQ(lm.NumEntries(), 1u);

  // Txn 3's S meets both: it waits for txn 1, then for txn 2.
  Status st3;
  std::thread reader([&] { st3 = lm.Acquire(3, kRel, LockMode::kS); });
  AwaitBlocked(lm, 1);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(lm.NumBlockedWaiters(), 1u);
  EXPECT_NE(lm.HeldMode(3, kRel), LockMode::kS);
  EXPECT_EQ(lm.ReleaseAll(2), 1u);
  reader.join();
  ASSERT_TRUE(st3.ok()) << st3;
  EXPECT_EQ(lm.HeldMode(3, kRel), LockMode::kS);
  EXPECT_EQ(lm.ReleaseAll(3), 1u);

  // An IS on the last lane still stops an X, which takes every lane.
  ASSERT_TRUE(lm.Acquire(7, kRel, LockMode::kIS).ok());
  Status x = lm.Acquire(9, kRel, LockMode::kX, NoWait());
  EXPECT_TRUE(x.IsConflict()) << x;
  EXPECT_NE(x.ToString().find("n3/i0@lane7"), std::string::npos) << x;
  EXPECT_EQ(LaneModes(lm, 9, kRel), std::vector<LockMode>(kLanes,
                                                          LockMode::kNL));
  lm.ReleaseAll(7);
  ASSERT_TRUE(lm.Acquire(9, kRel, LockMode::kX, NoWait()).ok());
  EXPECT_EQ(LaneModes(lm, 9, kRel),
            std::vector<LockMode>(kLanes, LockMode::kX));
  EXPECT_EQ(lm.ReleaseAll(9), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerLanesTest, IntentionThenShareFoldsToSix) {
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kIX, {}, locks.get()).ok());
  ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kS, {}, locks.get()).ok());

  EXPECT_EQ(lm.HeldMode(1, kRel), LockMode::kSIX);
  const std::vector<HeldLock> held = lm.LocksOf(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].resource, kRel);
  EXPECT_EQ(held[0].mode, LockMode::kSIX);
  const std::vector<LongLockRecord> all = lm.SnapshotAllLocks();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].txn, 1u);
  EXPECT_EQ(all[0].resource, kRel);
  EXPECT_EQ(all[0].mode, LockMode::kSIX);
  EXPECT_EQ(locks->RowMode(kRel), LockMode::kSIX);

  // SIX admits IS from any lane and nothing stronger.
  EXPECT_TRUE(lm.Acquire(6, kRel, LockMode::kIS, NoWait()).ok());
  EXPECT_TRUE(lm.Acquire(2, kRel, LockMode::kIX, NoWait()).IsConflict());
  EXPECT_TRUE(lm.Acquire(3, kRel, LockMode::kS, NoWait()).IsConflict());
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.ReleaseAll(6), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerLanesTest, BlockedShareShowsItsIntentionAndRollsBack) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(5, kRel, LockMode::kIX).ok());  // lane 5

  // Txn 1's S takes lanes 0-4 and then waits at lane 5.
  Status st1;
  std::thread reader(
      [&] { st1 = lm.Acquire(1, kRel, LockMode::kS, Timeout(300)); });
  AwaitBlocked(lm, 1);
  EXPECT_EQ(lm.HeldMode(1, kRel), LockMode::kIS);
  EXPECT_EQ(lm.GroupMode(kRel), LockMode::kIX);
  for (const LongLockRecord& rec : lm.SnapshotAllLocks()) {
    if (rec.txn == 1) {
      EXPECT_EQ(rec.mode, LockMode::kIS);
    }
  }
  reader.join();

  // The timeout names the lane it waited at, never the tagged instance,
  // and leaves no lane of the S behind.
  EXPECT_TRUE(st1.IsTimeout()) << st1;
  EXPECT_NE(st1.ToString().find("n3/i0@lane5"), std::string::npos) << st1;
  EXPECT_EQ(st1.ToString().find("922337"), std::string::npos) << st1;
  EXPECT_EQ(LaneModes(lm, 1, kRel),
            std::vector<LockMode>(kLanes, LockMode::kNL));
  EXPECT_TRUE(lm.LocksOf(1).empty());
  EXPECT_EQ(lm.NumEntries(), 1u);
  EXPECT_EQ(lm.ReleaseAll(1), 0u);
  EXPECT_EQ(lm.ReleaseAll(5), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerLanesTest, FailedExclusiveLeavesNoLaneConversion) {
  LockManager lm;
  // Txn 3 (lane 3) holds IS and txn 5 (lane 5) IX.  Txn 3's X converts
  // lane 3 before it fails at lane 5; one entry would have refused it
  // whole, so lane 3 goes back to IS.
  ASSERT_TRUE(lm.Acquire(3, kRel, LockMode::kIS).ok());
  ASSERT_TRUE(lm.Acquire(5, kRel, LockMode::kIX).ok());
  EXPECT_TRUE(lm.Acquire(3, kRel, LockMode::kX, NoWait()).IsConflict());
  std::vector<LockMode> is(kLanes, LockMode::kNL);
  is[3] = LockMode::kIS;
  EXPECT_EQ(LaneModes(lm, 3, kRel), is);
  EXPECT_EQ(lm.HeldMode(3, kRel), LockMode::kIS);
  EXPECT_EQ(lm.GroupMode(kRel), LockMode::kIX);
  // Txn 11 shares lane 3: its IS meets txn 3's IS there.
  EXPECT_TRUE(lm.Acquire(11, kRel, LockMode::kIS, NoWait()).ok());
  EXPECT_EQ(lm.ReleaseAll(3), 1u);
}

TEST(LockManagerLanesTest, FailedUpgradeLeavesTheShareOnEveryLane) {
  LockManager lm;
  // Txn 1 holds S and txn 5 IS: txn 1's X converts lanes 0-4 and fails
  // at lane 5.  Every lane goes back to S.
  ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(5, kRel, LockMode::kIS).ok());
  EXPECT_TRUE(lm.Acquire(1, kRel, LockMode::kX, NoWait()).IsConflict());
  EXPECT_EQ(LaneModes(lm, 1, kRel),
            std::vector<LockMode>(kLanes, LockMode::kS));
  EXPECT_EQ(lm.HeldMode(1, kRel), LockMode::kS);
  EXPECT_EQ(lm.GroupMode(kRel), LockMode::kS);
  const std::vector<HeldLock> held = lm.LocksOf(1);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].mode, LockMode::kS);
  // Txn 9 (lane 1) reads beside the S.
  EXPECT_TRUE(lm.Acquire(9, kRel, LockMode::kIS, NoWait()).ok());
  // The undone conversion leaves one count: one release frees every lane.
  ASSERT_TRUE(lm.Release(1, kRel).ok());
  EXPECT_EQ(LaneModes(lm, 1, kRel),
            std::vector<LockMode>(kLanes, LockMode::kNL));
}

TEST(LockManagerLanesTest, TimedOutUpgradeLeavesTheShareOnEveryLane) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(5, kRel, LockMode::kIS).ok());
  // The X converts lanes 0-4 and waits at lane 5 until its deadline.
  EXPECT_TRUE(lm.Acquire(1, kRel, LockMode::kX, Timeout(50)).IsTimeout());
  EXPECT_EQ(LaneModes(lm, 1, kRel),
            std::vector<LockMode>(kLanes, LockMode::kS));
  EXPECT_EQ(lm.HeldMode(1, kRel), LockMode::kS);
  EXPECT_TRUE(lm.Acquire(9, kRel, LockMode::kIS, NoWait()).ok());
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
  EXPECT_EQ(lm.ReleaseAll(5), 1u);
  EXPECT_EQ(lm.ReleaseAll(9), 1u);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

TEST(LockManagerLanesTest, ShareAgainstAnIntentionHolderEndsWithAVictim) {
  for (DeadlockPolicy policy : {DeadlockPolicy::kDetect,
                                DeadlockPolicy::kWaitDie,
                                DeadlockPolicy::kWoundWait}) {
    SCOPED_TRACE(DeadlockPolicyName(policy));
    LockManager::Options o;
    o.deadlock_policy = policy;
    LockManager lm(o);
    // Txn 1 holds IX on the relation (lane 1) and waits for the object
    // txn 2 holds X on; txn 2 then asks for S on the relation, which meets
    // txn 1's IX at lane 1.
    ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kIX).ok());
    ASSERT_TRUE(lm.Acquire(2, kObj, LockMode::kX).ok());
    Status st1;
    std::thread writer(
        [&] { st1 = lm.Acquire(1, kObj, LockMode::kX, Timeout(5000)); });
    AwaitBlocked(lm, 1);

    const auto start = std::chrono::steady_clock::now();
    Status st2 = lm.Acquire(2, kRel, LockMode::kS, Timeout(5000));
    const auto waited = std::chrono::steady_clock::now() - start;
    // Txn 2, the younger, is the victim: detected, dead or wounded.
    if (policy == DeadlockPolicy::kWoundWait) {
      EXPECT_TRUE(st2.IsAborted()) << st2;
    } else {
      EXPECT_TRUE(st2.IsDeadlock()) << st2;
    }
    EXPECT_LT(waited, std::chrono::seconds(4));
    EXPECT_EQ(LaneModes(lm, 2, kRel),
              std::vector<LockMode>(kLanes, LockMode::kNL));

    lm.ReleaseAll(2);
    writer.join();
    EXPECT_TRUE(st1.ok()) << st1;
    EXPECT_EQ(lm.HeldMode(1, kObj), LockMode::kX);
    EXPECT_EQ(lm.ReleaseAll(1), 2u);
    EXPECT_EQ(lm.NumEntries(), 0u);
  }
}

TEST(LockManagerLanesTest, ReleaseKeepsShareOnEveryLaneUntilItsLastCount) {
  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "through the handle" : "by id");
    LockManager lm;
    std::shared_ptr<TxnLocks> locks = lm.Begin(1);
    TxnLocks* handle = cached ? locks.get() : nullptr;
    ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kIS, {}, handle).ok());
    ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kS, {}, handle).ok());

    // The first release undoes the IS: the S stays on every lane.
    ASSERT_TRUE(lm.Release(1, kRel, handle).ok());
    EXPECT_EQ(LaneModes(lm, 1, kRel),
              std::vector<LockMode>(kLanes, LockMode::kS));
    EXPECT_EQ(lm.HeldMode(1, kRel), LockMode::kS);
    EXPECT_TRUE(lm.Acquire(4, kRel, LockMode::kIX, NoWait()).IsConflict());

    // The second frees every lane.
    ASSERT_TRUE(lm.Release(1, kRel, handle).ok());
    EXPECT_EQ(LaneModes(lm, 1, kRel),
              std::vector<LockMode>(kLanes, LockMode::kNL));
    EXPECT_EQ(lm.NumEntries(), 0u);
    EXPECT_TRUE(lm.Release(1, kRel, handle).IsNotFound());
    EXPECT_TRUE(lm.Acquire(4, kRel, LockMode::kIX, NoWait()).ok());
    EXPECT_EQ(lm.ReleaseAll(1), 0u);
    EXPECT_EQ(lm.ReleaseAll(4), 1u);
  }
}

/// A fresh scratch directory for one test's store file, removed again
/// when it goes out of scope.
class ScratchDir {
 public:
  ScratchDir()
      : dir_(std::filesystem::temp_directory_path() /
             ("codlock_lanes_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }

  std::string File() const { return (dir_ / "locks.bin").string(); }

 private:
  std::filesystem::path dir_;
};

TEST(LockManagerLanesTest, LongLocksRoundTripOneRecordPerGranule) {
  const ScratchDir dir;
  const std::string path = dir.File();
  constexpr ResourceId kOther{5, 0};
  {
    LockManager lm;
    ASSERT_TRUE(lm.Acquire(1, kRel, LockMode::kIX, Long()).ok());
    ASSERT_TRUE(lm.Acquire(2, kOther, LockMode::kX, Long()).ok());
    std::vector<LongLockRecord> recs = lm.SnapshotLongLocks();
    ASSERT_EQ(recs.size(), 2u);
    for (const LongLockRecord& rec : recs) {
      EXPECT_FALSE(rec.resource.is_lane()) << rec.resource.ToString();
      EXPECT_EQ(rec.mode, rec.txn == 1 ? LockMode::kIX : LockMode::kX);
    }
    LongLockStore store;
    store.SetBackingFile(path);
    ASSERT_TRUE(store.Save(lm).ok());
  }

  // After a crash: a fresh manager reloaded from the file.
  LongLockStore store;
  ASSERT_TRUE(store.LoadFromFile(path).ok());
  EXPECT_EQ(store.records().size(), 2u);
  LockManager lm;
  ASSERT_TRUE(store.Restore(&lm).ok());
  EXPECT_EQ(LaneModes(lm, 2, kOther),
            std::vector<LockMode>(kLanes, LockMode::kX));
  std::vector<LockMode> ix(kLanes, LockMode::kNL);
  ix[LaneOf(1)] = LockMode::kIX;
  EXPECT_EQ(LaneModes(lm, 1, kRel), ix);
  EXPECT_EQ(lm.HeldMode(2, kOther), LockMode::kX);
  EXPECT_EQ(lm.SnapshotLongLocks().size(), 2u);
  EXPECT_EQ(lm.NumEntries(), 2u);
  // The restored X stops an IS on any lane.
  EXPECT_TRUE(lm.Acquire(6, kOther, LockMode::kIS, NoWait()).IsConflict());
  EXPECT_TRUE(lm.Acquire(6, kRel, LockMode::kIS, NoWait()).ok());
}

TEST(LockManagerLanesTest, RestoreRefusesTheLaneBit) {
  LockManager lm;
  Status st = lm.RestoreLongLocks(
      {LongLockRecord{1, kObj, LockMode::kX},
       LongLockRecord{2, ResourceId{3, kLaneBit | 2}, LockMode::kIX}});
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(lm.NumEntries(), 0u);
}

/// A CRC-clean snapshot block "CGN2" (long_lock_store.h) holding the
/// records \p recs at generation 1.
std::string SnapshotBlock(const std::vector<LongLockRecord>& recs) {
  std::string b;
  auto put = [&b](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) b.push_back(static_cast<char>(v >> (8 * i)));
  };
  put(0x324E4743, 4);  // "CGN2"
  put(1, 8);           // generation
  put(recs.size(), 4);
  put(0, 4);  // fence epochs
  for (const LongLockRecord& r : recs) {
    put(r.txn, 8);
    put(r.resource.node, 4);
    put(r.resource.instance, 8);
    put(static_cast<uint8_t>(r.mode), 1);
  }
  put(Crc32(std::string_view(b.data() + 4, b.size() - 4)), 4);
  return b;
}

TEST(LockManagerLanesTest, DecoderRefusesTheLaneBitLikeABadMode) {
  const ScratchDir dir;
  const std::string path = dir.File();
  auto load = [&](const std::string& image) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << image;
    LongLockStore store;
    EXPECT_TRUE(store.LoadFromFile(path).ok());
    return store.last_load();
  };
  // The well-formed block loads...
  const LongLockStore::LoadReport good =
      load(SnapshotBlock({LongLockRecord{1, kObj, LockMode::kX}}));
  EXPECT_EQ(good.generation, 1u);
  EXPECT_EQ(good.records, 1u);
  EXPECT_FALSE(good.salvaged);
  // ...one whose instance carries bit 63 is refused as a whole.
  const LongLockStore::LoadReport tagged = load(SnapshotBlock(
      {LongLockRecord{1, kObj, LockMode::kX},
       LongLockRecord{2, ResourceId{3, kLaneBit | 2}, LockMode::kIX}}));
  EXPECT_EQ(tagged.generation, 0u);
  EXPECT_EQ(tagged.records, 0u);
  EXPECT_TRUE(tagged.salvaged);
}

}  // namespace
}  // namespace codlock::lock
