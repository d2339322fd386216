/// Tests for the deadlock-handling policies: detection (default),
/// wound-wait, wait-die, timeout-only.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"

namespace codlock::lock {
namespace {

constexpr ResourceId kR1{1, 1};
constexpr ResourceId kR2{2, 2};

LockManager::Options WithPolicy(DeadlockPolicy policy) {
  LockManager::Options o;
  o.deadlock_policy = policy;
  o.default_timeout_ms = 2'000;
  return o;
}

TEST(DeadlockPolicyTest, Names) {
  EXPECT_EQ(DeadlockPolicyName(DeadlockPolicy::kDetect), "detect");
  EXPECT_EQ(DeadlockPolicyName(DeadlockPolicy::kWoundWait), "wound-wait");
  EXPECT_EQ(DeadlockPolicyName(DeadlockPolicy::kWaitDie), "wait-die");
  EXPECT_EQ(DeadlockPolicyName(DeadlockPolicy::kTimeoutOnly),
            "timeout-only");
}

TEST(DeadlockPolicyTest, TimeoutOnlyEndsCrossBlockingByTimeout) {
  LockManager::Options o;
  o.deadlock_policy = DeadlockPolicy::kTimeoutOnly;
  o.default_timeout_ms = 60;
  LockManager lm(o);
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(2, kR2, LockMode::kX).ok());
  // Cross-blocking would deadlock; only the timeout saves us.
  std::thread t1([&] {
    Status st = lm.Acquire(1, kR2, LockMode::kX);
    EXPECT_TRUE(st.IsTimeout()) << st;
  });
  Status st = lm.Acquire(2, kR1, LockMode::kX);
  EXPECT_TRUE(st.IsTimeout()) << st;
  t1.join();
}

LockManager::Options Detect() {
  LockManager::Options o = WithPolicy(DeadlockPolicy::kDetect);
  o.default_timeout_ms = 1'500;
  return o;
}

// Starts a thread for each of \p txns that asks for X on r1, which the
// caller's transaction holds, and returns once all of them are blocked.
std::vector<std::thread> WaitForR1(LockManager& lm, std::vector<TxnId> txns,
                                   std::vector<Status>* statuses) {
  statuses->resize(txns.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < txns.size(); ++i) {
    threads.emplace_back([&lm, txn = txns[i], st = &(*statuses)[i]] {
      *st = lm.Acquire(txn, kR1, LockMode::kX);
      lm.ReleaseAll(txn);  // a victim aborts; a winner commits
    });
    while (lm.NumBlockedWaiters() < i + 1) std::this_thread::yield();
  }
  // A waiter counts as blocked just before it enters the waits-for graph.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  return threads;
}

// T holds X on r1; A, then B, hold S on r2 and wait for X on r1.  T's
// request for X on r2 closes two cycles, T→A→T and T→B→T.  Detection
// must kill the victim of each: the waiters recompute their blockers
// only when they wake, so a cycle left standing ends by timeout.
TEST(DeadlockPolicyTest, DetectKillsTheVictimOfEveryCycle) {
  LockManager lm(Detect());
  constexpr TxnId kT = 1, kA = 2, kB = 3;
  ASSERT_TRUE(lm.Acquire(kT, kR1, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(kA, kR2, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(kB, kR2, LockMode::kS).ok());
  std::vector<Status> st;
  std::vector<std::thread> threads = WaitForR1(lm, {kA, kB}, &st);

  Status st_t = lm.Acquire(kT, kR2, LockMode::kX);
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(st_t.ok()) << st_t;
  for (const Status& s : st) EXPECT_TRUE(s.IsDeadlock()) << s;
  EXPECT_EQ(lm.stats().deadlocks.value(), 2u);
  EXPECT_EQ(lm.stats().timeouts.value(), 0u);
  lm.ReleaseAll(kT);
}

// Three readers: three cycles, three victims, and no waiter left.
TEST(DeadlockPolicyTest, DetectKillsEveryReaderOfAWideFan) {
  LockManager lm(Detect());
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  for (TxnId r : {2, 3, 4}) ASSERT_TRUE(lm.Acquire(r, kR2, LockMode::kS).ok());
  std::vector<Status> st;
  std::vector<std::thread> threads = WaitForR1(lm, {2, 3, 4}, &st);

  Status st_t = lm.Acquire(1, kR2, LockMode::kX);
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(st_t.ok()) << st_t;
  for (const Status& s : st) EXPECT_TRUE(s.IsDeadlock()) << s;
  EXPECT_EQ(lm.stats().deadlocks.value(), 3u);
  EXPECT_EQ(lm.stats().timeouts.value(), 0u);
  EXPECT_EQ(lm.NumBlockedWaiters(), 0u);
}

// The two cycles with T the youngest: T is the victim of the first and
// its death breaks the second, so the readers live and take r1 in turn.
TEST(DeadlockPolicyTest, DetectStopsWhenTheRequesterIsTheVictim) {
  LockManager lm(Detect());
  ASSERT_TRUE(lm.Acquire(3, kR1, LockMode::kX).ok());
  for (TxnId r : {1, 2}) ASSERT_TRUE(lm.Acquire(r, kR2, LockMode::kS).ok());
  std::vector<Status> st;
  std::vector<std::thread> threads = WaitForR1(lm, {1, 2}, &st);

  Status st_t = lm.Acquire(3, kR2, LockMode::kX);
  EXPECT_TRUE(st_t.IsDeadlock()) << st_t;
  lm.ReleaseAll(3);
  for (std::thread& th : threads) th.join();
  for (const Status& s : st) EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(lm.stats().deadlocks.value(), 1u);
  EXPECT_EQ(lm.stats().timeouts.value(), 0u);
}

// C waits for T's r1 too but holds nothing T wants: it is on no cycle,
// so only A dies, and C gets r1 when T ends.
TEST(DeadlockPolicyTest, DetectSparesAWaiterOffTheCycle) {
  LockManager lm(Detect());
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(2, kR2, LockMode::kS).ok());
  std::vector<Status> st;
  std::vector<std::thread> threads = WaitForR1(lm, {2, 3}, &st);

  EXPECT_TRUE(lm.Acquire(1, kR2, LockMode::kX).ok());
  threads[0].join();
  EXPECT_TRUE(st[0].IsDeadlock()) << st[0];
  lm.ReleaseAll(1);
  threads[1].join();
  EXPECT_TRUE(st[1].ok()) << st[1];
  EXPECT_EQ(lm.stats().deadlocks.value(), 1u);
  EXPECT_EQ(lm.stats().timeouts.value(), 0u);
}

TEST(WaitDieTest, YoungerRequesterDiesImmediately) {
  LockManager lm(WithPolicy(DeadlockPolicy::kWaitDie));
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());  // older holder
  // Txn 2 (younger) blocked by older txn 1: dies without waiting.
  Status st = lm.Acquire(2, kR1, LockMode::kS);
  EXPECT_TRUE(st.IsDeadlock()) << st;
  EXPECT_GE(lm.stats().deadlocks.value(), 1u);
}

TEST(WaitDieTest, OlderRequesterWaits) {
  LockManager lm(WithPolicy(DeadlockPolicy::kWaitDie));
  ASSERT_TRUE(lm.Acquire(5, kR1, LockMode::kX).ok());  // younger holder
  std::atomic<bool> granted{false};
  std::thread older([&] {
    // Txn 2 (older than 5) may wait.
    ASSERT_TRUE(lm.Acquire(2, kR1, LockMode::kS).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted);
  lm.ReleaseAll(5);
  older.join();
  EXPECT_TRUE(granted);
}

TEST(WoundWaitTest, OlderRequesterWoundsWaitingYounger) {
  LockManager lm(WithPolicy(DeadlockPolicy::kWoundWait));
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(3, kR2, LockMode::kX).ok());  // younger txn 3

  // Txn 3 blocks on kR1 (younger waits for older: allowed).
  Status st3;
  std::thread younger([&] { st3 = lm.Acquire(3, kR1, LockMode::kX); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Txn 2 (older than 3) requests kR2 held by 3: wounds it.  Txn 3's
  // pending wait is killed with kAborted...
  Status st2;
  std::thread older([&] { st2 = lm.Acquire(2, kR2, LockMode::kX); });
  younger.join();
  EXPECT_TRUE(st3.IsAborted()) << st3;
  // ... and once txn 3 aborts (releases kR2), txn 2 proceeds.
  lm.ReleaseAll(3);
  older.join();
  EXPECT_TRUE(st2.ok()) << st2;
}

TEST(WoundWaitTest, WoundedTxnFailsNextAcquire) {
  LockManager lm(WithPolicy(DeadlockPolicy::kWoundWait));
  ASSERT_TRUE(lm.Acquire(9, kR2, LockMode::kX).ok());  // younger, running

  // Older txn 2 blocks on kR2: wounds 9 (which is not waiting anywhere).
  Status st2;
  std::thread older([&] { st2 = lm.Acquire(2, kR2, LockMode::kS); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Txn 9 discovers the wound at its next lock request.
  Status st9 = lm.Acquire(9, kR1, LockMode::kS);
  EXPECT_TRUE(st9.IsAborted()) << st9;
  lm.ReleaseAll(9);  // the forced abort releases kR2
  older.join();
  EXPECT_TRUE(st2.ok()) << st2;

  // After its abort the id is clean again (wound cleared at release).
  EXPECT_TRUE(lm.Acquire(9, kR1, LockMode::kS).ok());
}

TEST(WoundWaitTest, YoungerWaitsForOlderWithoutWounding) {
  LockManager lm(WithPolicy(DeadlockPolicy::kWoundWait));
  ASSERT_TRUE(lm.Acquire(1, kR1, LockMode::kX).ok());
  std::atomic<bool> granted{false};
  std::thread younger([&] {
    ASSERT_TRUE(lm.Acquire(4, kR1, LockMode::kS).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted);
  // Txn 1 is NOT wounded: it can still acquire.
  EXPECT_TRUE(lm.Acquire(1, kR2, LockMode::kS).ok());
  lm.ReleaseAll(1);
  younger.join();
  EXPECT_TRUE(granted);
}

class PreventionPolicyTest : public ::testing::TestWithParam<DeadlockPolicy> {
};

TEST_P(PreventionPolicyTest, CrossOrderLockingAlwaysResolves) {
  // The classic deadlock pattern must resolve under every policy without
  // relying on the (long) timeout: detection kills a victim, prevention
  // never lets the cycle form.
  LockManager lm(WithPolicy(GetParam()));
  // A loser retries, yielding in between: wait-die promises progress only
  // once the older transaction runs, and it may be descheduled for a
  // while.  The retry deadline is well below the 2 s lock timeout, so a
  // policy that resolves only by timeout still fails here.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1'000);
  std::atomic<int> resolved{0};
  std::atomic<int> timeouts{0};
  auto worker = [&](TxnId me, ResourceId first, ResourceId second) {
    while (std::chrono::steady_clock::now() < deadline) {
      Status st = lm.Acquire(me, first, LockMode::kX);
      if (st.ok()) st = lm.Acquire(me, second, LockMode::kX);
      lm.ReleaseAll(me);
      if (st.ok()) {
        ++resolved;
        return;
      }
      if (st.IsTimeout()) ++timeouts;
      std::this_thread::yield();
    }
  };
  std::thread t1(worker, 1, kR1, kR2);
  std::thread t2(worker, 2, kR2, kR1);
  t1.join();
  t2.join();
  EXPECT_EQ(resolved.load(), 2);
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(lm.NumEntries(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, PreventionPolicyTest,
                         ::testing::Values(DeadlockPolicy::kDetect,
                                           DeadlockPolicy::kWoundWait,
                                           DeadlockPolicy::kWaitDie),
                         [](const ::testing::TestParamInfo<DeadlockPolicy>& p) {
                           return std::string(
                               p.param == DeadlockPolicy::kDetect
                                   ? "Detect"
                                   : p.param == DeadlockPolicy::kWoundWait
                                         ? "WoundWait"
                                         : "WaitDie");
                         });

}  // namespace
}  // namespace codlock::lock
