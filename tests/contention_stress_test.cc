/// \file contention_stress_test.cc
/// \brief ThreadSanitizer stress for the shard-mutex grant path, batched
/// path acquisition and the reuse of retired lock-table entries.
///
/// Some races the scripted tests cannot provoke on purpose: compatible
/// S/IS grants and releases interleaving with exclusive writers on the
/// same entries, `AcquirePath` batches from many threads meeting in the
/// same shard mutexes, and an entry emptying, going back to its shard's
/// pool and being reused for another resource while other threads look
/// the same keys up.  Each test hammers one of those seams from 8+
/// threads under the `tsan` preset and then checks the invariants that
/// survive any interleaving: the table drains and the held-locks gauge
/// returns to zero.

#include "lock/lock_manager.h"
#include "lock/mode.h"
#include "lock/txn_locks.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

namespace codlock::lock {
namespace {

constexpr int kThreads = 8;

/// Mixed S/IS/X churn over a handful of hot resources: compatible grants
/// race exclusive writers, releases race the inspection scans, and
/// emptied entries retire while other threads look them up.  A standing
/// IS pinner keeps a subset of keys linked; the unpinned keys churn
/// through retire/reuse cycles.
TEST(ContentionStressTest, MixedModeChurn) {
  LockManager::Options options;
  options.num_shards = 4;  // several hot keys per shard
  // X requests on a pinned key can never be granted (IS-X conflict with
  // the standing pinner); a short deadline turns them into quick timeout
  // churn instead of 10-second stalls.
  options.default_timeout_ms = 25;
  LockManager lm(options);

  constexpr uint64_t kHotKeys = 6;
  const TxnId pinner = 9000;
  for (uint64_t k = 0; k < kHotKeys; k += 2) {
    ASSERT_TRUE(lm.Acquire(pinner, ResourceId{7, k}, LockMode::kIS).ok());
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const TxnId txn = static_cast<TxnId>(w + 1);
      std::shared_ptr<TxnLocks> locks = lm.Begin(txn);
      std::mt19937_64 rng(0xC0DE + static_cast<uint64_t>(w));
      for (int i = 0; i < 2000; ++i) {
        const ResourceId res{7, rng() % kHotKeys};
        const uint64_t dice = rng() % 8;
        const LockMode mode = dice == 0   ? LockMode::kX
                              : dice == 1 ? LockMode::kIX
                              : (dice & 1) ? LockMode::kIS
                                           : LockMode::kS;
        Status st = lm.Acquire(txn, res, mode, {}, locks.get());
        ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeadlock ||
                    st.code() == StatusCode::kTimeout ||
                    st.code() == StatusCode::kAborted)
            << st;
        if (st.ok() && (rng() % 2 == 0)) {
          (void)lm.Release(txn, res, locks.get());
        } else {
          lm.ReleaseAll(txn);
        }
      }
      lm.ReleaseAll(txn);
    });
  }
  // An inspector races the snapshot paths against the churn.
  workers.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      lm.SnapshotAllLocks();
      lm.GroupMode(ResourceId{7, 0});
      lm.NumEntries();
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kThreads; ++w) workers[static_cast<size_t>(w)].join();
  done.store(true, std::memory_order_release);
  workers.back().join();

  lm.ReleaseAll(pinner);
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(std::memory_order_relaxed), 0);
}

/// Concurrent `AcquirePath` chains over a shared ancestor spine: per-shard
/// batches from many threads meet in the same shard mutexes, and X-leaf
/// chains interleave with S-leaf chains whose IS prefix shares the spine.
TEST(ContentionStressTest, SharedSpinePathChurn) {
  LockManager::Options options;
  options.num_shards = 4;
  LockManager lm(options);

  constexpr int kDepth = 6;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const TxnId txn = static_cast<TxnId>(w + 1);
      std::shared_ptr<TxnLocks> locks = lm.Begin(txn);
      std::mt19937_64 rng(0xFACE + static_cast<uint64_t>(w));
      for (int i = 0; i < 1000; ++i) {
        std::vector<ResourceId> path;
        path.reserve(kDepth + 1);
        for (int d = 0; d < kDepth; ++d) {
          path.push_back(ResourceId{static_cast<uint32_t>(d + 1), 0xA});
        }
        path.push_back(ResourceId{kDepth + 1,
                                  static_cast<uint64_t>(w) * 1024 +
                                      (rng() % 16)});
        const LockMode leaf =
            (rng() % 4 == 0) ? LockMode::kS : LockMode::kX;
        AcquireOptions opts;
        opts.timeout_ms = 5000;
        Status st = lm.AcquirePath(txn, path, leaf, opts, locks.get());
        ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeadlock ||
                    st.code() == StatusCode::kTimeout ||
                    st.code() == StatusCode::kAborted)
            << st;
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(std::memory_order_relaxed), 0);
}

/// Retire/reuse churn: half the threads cycle the *only* lock on their
/// key (so every release empties the entry and returns its node to the
/// shard's pool, from which the next new entry reuses it at once), the
/// other half chase those same keys with S requests.  A reused node must
/// never carry a holder or waiter of the resource it last served.
TEST(ContentionStressTest, RetireReuseChurn) {
  LockManager::Options options;
  options.num_shards = 2;  // maximal key overlap per shard
  LockManager lm(options);

  constexpr uint64_t kKeys = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const TxnId txn = static_cast<TxnId>(w + 1);
      std::shared_ptr<TxnLocks> locks = lm.Begin(txn);
      std::mt19937_64 rng(0xBEEF + static_cast<uint64_t>(w));
      const bool retirer = (w % 2 == 0);
      for (int i = 0; i < 2000; ++i) {
        const ResourceId res{9, rng() % kKeys};
        if (retirer) {
          // X then release: the entry empties and retires every cycle.
          Status st = lm.Acquire(txn, res, LockMode::kX, {}, locks.get());
          ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeadlock ||
                      st.code() == StatusCode::kTimeout ||
                      st.code() == StatusCode::kAborted)
              << st;
          lm.ReleaseAll(txn);
        } else {
          Status st = lm.Acquire(txn, res, LockMode::kS, {}, locks.get());
          ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDeadlock ||
                      st.code() == StatusCode::kTimeout ||
                      st.code() == StatusCode::kAborted)
              << st;
          if (st.ok()) (void)lm.Release(txn, res, locks.get());
        }
      }
      lm.ReleaseAll(txn);
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace codlock::lock
