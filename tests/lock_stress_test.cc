/// \file lock_stress_test.cc
/// \brief Multi-threaded stress tests for the lock manager.
///
/// Written to run under ThreadSanitizer (the `tsan` CMake preset): many
/// threads hammer a small resource pool so that conflicts, in-place
/// conversions, deadlock victim selection, wounds and timeouts all occur
/// concurrently, while reader threads exercise the inspection paths
/// (`GroupMode`, `LocksOf`, `NumEntries`, snapshots).  The assertions check
/// the invariants that survive any interleaving: every transaction ends
/// via `ReleaseAll`, so the table and the held-locks gauge must drain to
/// zero, and no request may be lost (grants + denials == attempts).

#include "lock/lock_manager.h"
#include "lock/txn_locks.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

namespace codlock::lock {
namespace {

struct StressTally {
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> denied{0};  ///< deadlock/timeout/wounded aborts
};

/// One transaction: acquire a few random locks (sometimes upgrading S to
/// X in place), then release everything — strict 2PL at millisecond scale.
void RunOneTxn(LockManager& lm, TxnId txn, std::mt19937_64& rng,
               uint64_t timeout_ms, StressTally& tally) {
  constexpr uint32_t kResourcePoolSize = 6;
  const int locks_wanted = 2 + static_cast<int>(rng() % 3);
  bool aborted = false;
  for (int i = 0; i < locks_wanted && !aborted; ++i) {
    ResourceId resource{static_cast<uint32_t>(rng() % kResourcePoolSize), 0};
    LockMode mode = (rng() % 2 == 0) ? LockMode::kS : LockMode::kX;
    AcquireOptions options;
    options.timeout_ms = timeout_ms;
    options.duration =
        (rng() % 8 == 0) ? LockDuration::kLong : LockDuration::kShort;
    Status st = lm.Acquire(txn, resource, mode, options);
    if (st.ok() && mode == LockMode::kS && rng() % 2 == 0) {
      st = lm.Acquire(txn, resource, LockMode::kX, options);  // conversion
    }
    if (!st.ok()) {
      ASSERT_TRUE(st.code() == StatusCode::kDeadlock ||
                  st.code() == StatusCode::kTimeout ||
                  st.code() == StatusCode::kAborted)
          << "unexpected failure: " << st;
      aborted = true;
    }
  }
  if (aborted) {
    tally.denied.fetch_add(1, std::memory_order_relaxed);
  } else {
    tally.committed.fetch_add(1, std::memory_order_relaxed);
  }
  lm.ReleaseAll(txn);
}

void StressPolicy(DeadlockPolicy policy, uint64_t timeout_ms) {
  LockManager::Options options;
  options.deadlock_policy = policy;
  options.num_shards = 4;  // several resources per shard: real contention
  options.default_timeout_ms = timeout_ms;
  LockManager lm(options);

  constexpr int kThreads = 6;
  constexpr int kTxnsPerThread = 40;
  std::atomic<TxnId> next_txn{1};
  std::atomic<bool> done{false};
  StressTally tally;

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(0x5EED + static_cast<uint64_t>(w));
      for (int t = 0; t < kTxnsPerThread; ++t) {
        RunOneTxn(lm, next_txn.fetch_add(1, std::memory_order_relaxed), rng,
                  timeout_ms, tally);
      }
    });
  }
  // A reader thread races the inspection paths against the workers.
  workers.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      lm.NumEntries();
      lm.GroupMode(ResourceId{0, 0});
      lm.LocksOf(1);
      lm.SnapshotLongLocks();
      lm.SnapshotAllLocks();
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kThreads; ++w) workers[static_cast<size_t>(w)].join();
  done.store(true, std::memory_order_release);
  workers.back().join();

  // Strict 2PL with ReleaseAll at every EOT: the table must drain.
  EXPECT_EQ(lm.NumEntries(), 0u) << DeadlockPolicyName(policy);
  EXPECT_EQ(lm.stats().held_locks.load(std::memory_order_relaxed), 0)
      << DeadlockPolicyName(policy);
  const uint64_t total = tally.committed.load() + tally.denied.load();
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  EXPECT_GT(tally.committed.load(), 0u) << DeadlockPolicyName(policy);
}

TEST(LockStressTest, DeadlockDetection) {
  StressPolicy(DeadlockPolicy::kDetect, 5'000);
}

TEST(LockStressTest, WoundWait) {
  StressPolicy(DeadlockPolicy::kWoundWait, 5'000);
}

TEST(LockStressTest, WaitDie) {
  StressPolicy(DeadlockPolicy::kWaitDie, 5'000);
}

TEST(LockStressTest, TimeoutBackstop) {
  // No detection/prevention: deadlocks resolve only via short deadlines.
  StressPolicy(DeadlockPolicy::kTimeoutOnly, 150);
}

/// Hierarchy stress via the batched path API with per-transaction caches:
/// every transaction locks a root-to-leaf path (shared hierarchy prefix,
/// random leaf) through `AcquirePath`, re-acquires it (served by the
/// cache), and sometimes converts the leaf.  Exercises the cache's
/// cross-thread invalidation (wounds, ReleaseAll) under every policy.
void StressPathsWithCache(DeadlockPolicy policy, uint64_t timeout_ms) {
  LockManager::Options options;
  options.deadlock_policy = policy;
  options.num_shards = 4;
  options.default_timeout_ms = timeout_ms;
  LockManager lm(options);

  constexpr int kThreads = 6;
  constexpr int kTxnsPerThread = 30;
  constexpr uint64_t kLeaves = 4;
  std::atomic<TxnId> next_txn{1};
  StressTally tally;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(0xCAFE + static_cast<uint64_t>(w));
      for (int t = 0; t < kTxnsPerThread; ++t) {
        const TxnId txn = next_txn.fetch_add(1, std::memory_order_relaxed);
        std::shared_ptr<TxnLocks> locks = lm.Begin(txn);
        const std::vector<ResourceId> path = {
            ResourceId{0, 0},                  // database
            ResourceId{1, 0},                  // relation
            ResourceId{2, rng() % kLeaves}};   // object (hot)
        const LockMode leaf = (rng() % 3 == 0) ? LockMode::kX : LockMode::kS;
        AcquireOptions opts;
        opts.timeout_ms = timeout_ms;
        bool aborted = false;
        Status st = lm.AcquirePath(txn, path, leaf, opts, locks.get());
        if (st.ok()) {
          // Covered re-acquisition: answered by the cache unless a
          // concurrent wound invalidated it (then the slow path decides).
          st = lm.AcquirePath(txn, path, leaf, opts, locks.get());
        }
        if (st.ok() && leaf == LockMode::kS && rng() % 2 == 0) {
          st = lm.Acquire(txn, path.back(), LockMode::kX, opts, locks.get());
        }
        if (!st.ok()) {
          ASSERT_TRUE(st.code() == StatusCode::kDeadlock ||
                      st.code() == StatusCode::kTimeout ||
                      st.code() == StatusCode::kAborted)
              << "unexpected failure: " << st;
          aborted = true;
        }
        if (aborted) {
          tally.denied.fetch_add(1, std::memory_order_relaxed);
        } else {
          tally.committed.fetch_add(1, std::memory_order_relaxed);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(lm.NumEntries(), 0u) << DeadlockPolicyName(policy);
  EXPECT_EQ(lm.stats().held_locks.load(std::memory_order_relaxed), 0)
      << DeadlockPolicyName(policy);
  const uint64_t total = tally.committed.load() + tally.denied.load();
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  EXPECT_GT(tally.committed.load(), 0u) << DeadlockPolicyName(policy);
}

TEST(LockStressTest, PathsWithCacheDeadlockDetection) {
  StressPathsWithCache(DeadlockPolicy::kDetect, 5'000);
}

TEST(LockStressTest, PathsWithCacheWoundWait) {
  StressPathsWithCache(DeadlockPolicy::kWoundWait, 5'000);
}

TEST(LockStressTest, PathsWithCacheWaitDie) {
  StressPathsWithCache(DeadlockPolicy::kWaitDie, 5'000);
}

TEST(LockStressTest, PathsWithCacheTimeoutBackstop) {
  StressPathsWithCache(DeadlockPolicy::kTimeoutOnly, 150);
}

/// Conversion storm: every thread takes S on the same resource and then
/// upgrades to X.  Concurrent upgrades deadlock pairwise; detection must
/// pick victims and the survivors must all complete.  An upgrade that ends
/// any other way (a missed deadlock shows up as kTimeout) is recorded once;
/// its worker still releases its locks and every worker stops after its
/// current round, so a miss costs one timeout, not one per worker.
TEST(LockStressTest, ConversionStorm) {
  LockManager::Options options;
  options.deadlock_policy = DeadlockPolicy::kDetect;
  options.default_timeout_ms = 5'000;
  LockManager lm(options);

  constexpr int kThreads = 6;
  constexpr int kRounds = 25;
  std::atomic<TxnId> next_txn{1};
  std::atomic<uint64_t> upgrades{0};
  std::atomic<uint64_t> victims{0};
  std::atomic<bool> missed{false};
  Status first_unexpected;  // written only by the worker that sets `missed`

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  const ResourceId hot{42, 7};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int r = 0; r < kRounds && !missed.load(); ++r) {
        TxnId txn = next_txn.fetch_add(1, std::memory_order_relaxed);
        if (lm.Acquire(txn, hot, LockMode::kS).ok()) {
          Status up = lm.Acquire(txn, hot, LockMode::kX);
          if (up.ok()) {
            upgrades.fetch_add(1, std::memory_order_relaxed);
          } else if (up.code() == StatusCode::kDeadlock) {
            victims.fetch_add(1, std::memory_order_relaxed);
          } else if (!missed.exchange(true)) {
            first_unexpected = up;
          }
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_FALSE(missed.load())
      << "an upgrade ended neither granted nor as a deadlock victim: "
      << first_unexpected;
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(std::memory_order_relaxed), 0);
  EXPECT_GT(upgrades.load(), 0u);
}

}  // namespace
}  // namespace codlock::lock
