/// Tests for util: Status, Result, Rng, metrics, JSON escaping, Mutex.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace codlock {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::Deadlock("x").IsDeadlock());
  EXPECT_TRUE(Status::Conflict("x").IsConflict());
  EXPECT_TRUE(Status::Unauthorized("x").IsUnauthorized());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  Status s = Status::Deadlock("cycle found");
  EXPECT_EQ(s.ToString(), "Deadlock: cycle found");
  EXPECT_EQ(s.message(), "cycle found");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Timeout("a"));
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fn = [](bool fail) -> Status {
    CODLOCK_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
    return Status::AlreadyExists("reached end");
  };
  EXPECT_TRUE(fn(true).IsInternal());
  EXPECT_TRUE(fn(false).IsAlreadyExists());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(77);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits, 3000, 300);
}

TEST(LatencyHistogramTest, CountMeanMax) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(200);
  h.Record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
  EXPECT_EQ(h.max(), 300u);
}

TEST(LatencyHistogramTest, QuantileMonotonic) {
  LatencyHistogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Record(i * 1000);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
  EXPECT_GT(h.Quantile(0.99), 100'000u);
}

TEST(LatencyHistogramTest, MergeAccumulates) {
  LatencyHistogram a, b;
  a.Record(10);
  b.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 30u);
}

TEST(CounterTest, ThreadSafeIncrements) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 80000u);
}

// ---- Mutex: spin, then park --------------------------------------------

TEST(MutexTest, ContendedIncrementsGiveTheExactTotal) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50000;
  Mutex mu;
  int64_t total = 0;  // guarded by mu
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lk(mu);
        ++total;
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lk(mu);
  EXPECT_EQ(total, int64_t{kThreads} * kIncrements);
}

TEST(MutexTest, WaitersBehindASleepingHolderParkAndAllGetTheLock) {
  // The holder sleeps far longer than the spin (~1 µs), so every waiter
  // exhausts its tries and parks; each must still get the lock, after the
  // holder.
  constexpr int kWaiters = 3;
  constexpr auto kHold = std::chrono::milliseconds(20);
  Mutex mu;
  bool released = false;  // guarded by mu
  int acquired = 0;       // guarded by mu
  std::atomic<int> arrived{0};
  std::vector<std::chrono::steady_clock::duration> waited(kWaiters);

  mu.Lock();
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      const auto start = std::chrono::steady_clock::now();
      arrived.fetch_add(1);
      MutexLock lk(mu);
      waited[w] = std::chrono::steady_clock::now() - start;
      EXPECT_TRUE(released);
      ++acquired;
    });
  }
  while (arrived.load() < kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(kHold);
  released = true;
  mu.Unlock();
  for (auto& th : waiters) th.join();

  MutexLock lk(mu);
  EXPECT_EQ(acquired, kWaiters);
  // Every waiter started before the holder's sleep, so its Lock outlasted
  // the spin by far: it parked.
  for (const auto& w : waited) EXPECT_GE(w, kHold);
}

TEST(MutexTest, CondVarPairsWithSpunAcquisitions) {
  // Two threads hand a turn back and forth.  Every critical section is a
  // few instructions, so most MutexLock acquisitions are won by spinning;
  // each wait must still see the other side's notify.  A lost wake-up
  // would end a wait at its deadline and fail the test.
  constexpr int kRounds = 20000;
  Mutex mu;
  CondVar cv;
  int turn = 0;   // guarded by mu: whose move, 0 or 1
  int moves = 0;  // guarded by mu
  std::atomic<bool> timed_out{false};
  auto player = [&](int me) {
    for (int i = 0; i < kRounds; ++i) {
      MutexLock lk(mu);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      if (!cv.WaitUntil(mu, deadline, [&] { return turn == me; })) {
        timed_out.store(true);
        return;
      }
      turn = 1 - me;
      ++moves;
      cv.NotifyAll();
    }
  };
  std::thread t0(player, 0);
  std::thread t1(player, 1);
  t0.join();
  t1.join();
  EXPECT_FALSE(timed_out.load());
  MutexLock lk(mu);
  EXPECT_EQ(moves, 2 * kRounds);
}

TEST(LockStatsTest, ResetClearsEverything) {
  LockStats s;
  s.requests.Add(5);
  s.deadlocks.Add(1);
  s.wait_ns.Record(123);
  s.held_locks.store(9);
  s.Reset();
  EXPECT_EQ(s.requests.value(), 0u);
  EXPECT_EQ(s.deadlocks.value(), 0u);
  EXPECT_EQ(s.wait_ns.count(), 0u);
  EXPECT_EQ(s.held_locks.load(), 0);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  SUCCEED();  // elapsed is monotone, just sanity-check non-negativity
  EXPECT_GE(sw.ElapsedNanos(), 0u);
}

TEST(JsonEscapeTest, EscapesQuoteBackslashNewlineAndControls) {
  EXPECT_EQ(JsonEscape("plain text"), "plain text");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("one\ntwo"), "one\\ntwo");
  EXPECT_EQ(JsonEscape("tab\there\x01"), "tab\\u0009here\\u0001");
  EXPECT_EQ(JsonEscape(""), "");
}

}  // namespace
}  // namespace codlock
