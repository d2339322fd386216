/// Tests for the overload/recovery additions: timeout sentinels
/// (kTimeoutDefault / kTimeoutInfinite), overload shedding with its
/// counters, DrainForShutdown, RestoreLongLocks edge cases, abort-by-cause
/// accounting, the RetryPolicy, and retry/backoff behavior of the
/// workload harness and the workstation server.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"
#include "query/query.h"
#include "sim/engine.h"
#include "sim/fixtures.h"
#include "sim/harness.h"
#include "util/retry.h"
#include "ws/server.h"

namespace codlock {
namespace {

using lock::AcquireOptions;
using lock::LockManager;
using lock::LockMode;
using lock::LongLockRecord;
using lock::ResourceId;

constexpr ResourceId kR{1, 100};

// --- Timeout sentinels --------------------------------------------------

TEST(TimeoutSentinelTest, ZeroStillMeansManagerDefault) {
  // Regression for the historical ambiguity: timeout_ms == 0 must keep
  // meaning "use the manager default", not "expire immediately".
  static_assert(AcquireOptions::kTimeoutDefault == 0);
  LockManager::Options mo;
  mo.default_timeout_ms = 50;
  LockManager lm(mo);
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kX).ok());

  AcquireOptions opts;  // timeout_ms left at kTimeoutDefault (= 0)
  const auto start = std::chrono::steady_clock::now();
  Status s = lm.Acquire(2, kR, LockMode::kS, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  // The wait honored the 50 ms default — it neither returned instantly
  // nor waited for some other built-in deadline.
  EXPECT_GE(elapsed, std::chrono::milliseconds(40));
  EXPECT_LT(elapsed, std::chrono::milliseconds(2'000));
}

TEST(TimeoutSentinelTest, InfiniteWaitOutlivesTheDefaultDeadline) {
  LockManager::Options mo;
  mo.default_timeout_ms = 20;  // a finite wait would die fast
  LockManager lm(mo);
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kX).ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    AcquireOptions opts;
    opts.timeout_ms = AcquireOptions::kTimeoutInfinite;
    Status s = lm.Acquire(2, kR, LockMode::kS, opts);
    EXPECT_TRUE(s.ok()) << s.ToString();
    granted.store(true);
  });

  // Well past the 20 ms default the infinite waiter must still be parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(granted.load());
  EXPECT_EQ(lm.NumBlockedWaiters(), 1u);

  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(lm.HeldMode(2, kR), LockMode::kS);
}

// --- Overload shedding --------------------------------------------------

TEST(SheddingTest, WaiterCapShedsExcessRequests) {
  LockManager::Options mo;
  mo.max_blocked_waiters = 1;
  LockManager lm(mo);
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kX).ok());

  std::thread blocked([&] {
    AcquireOptions opts;
    opts.timeout_ms = 5'000;
    EXPECT_TRUE(lm.Acquire(2, kR, LockMode::kS, opts).ok());
  });
  // Wait until txn 2 is actually parked.
  while (lm.NumBlockedWaiters() == 0) std::this_thread::yield();

  const uint64_t sheds0 = lm.stats().sheds.value();
  Status s = lm.Acquire(3, kR, LockMode::kS);
  EXPECT_TRUE(s.IsShed()) << s.ToString();
  EXPECT_EQ(lm.stats().sheds.value(), sheds0 + 1);
  EXPECT_TRUE(lm.LocksOf(3).empty());

  lm.ReleaseAll(1);
  blocked.join();
  // With the convoy drained the shed transaction's retry succeeds.
  EXPECT_TRUE(lm.Acquire(3, kR, LockMode::kS).ok());
}

TEST(SheddingTest, ShedIsRetryableAndCountsAsAbortCause) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Shed("overload")));

  sim::CellsFixture f = sim::BuildFigure7Instance();
  sim::Engine eng(f.catalog.get(), f.store.get());
  txn::Transaction* t = eng.txn_manager().Begin(1);
  const uint64_t shed0 = eng.lock_manager().stats().aborts_shed.value();
  ASSERT_TRUE(eng.txn_manager().Abort(t, Status::Shed("overload")).ok());
  EXPECT_EQ(eng.lock_manager().stats().aborts_shed.value(), shed0 + 1);
}

TEST(SheddingTest, DrainForShutdownKillsEveryWaiter) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kX).ok());

  constexpr int kWaiters = 3;
  std::atomic<int> aborted{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&lm, &aborted, i] {
      AcquireOptions opts;
      opts.timeout_ms = 60'000;
      Status s = lm.Acquire(static_cast<lock::TxnId>(10 + i), kR,
                            LockMode::kS, opts);
      if (s.IsAborted()) aborted.fetch_add(1);
    });
  }
  while (lm.NumBlockedWaiters() < kWaiters) std::this_thread::yield();

  EXPECT_EQ(lm.DrainForShutdown(), static_cast<size_t>(kWaiters));
  for (std::thread& w : waiters) w.join();
  EXPECT_EQ(aborted.load(), kWaiters);
  EXPECT_EQ(lm.NumBlockedWaiters(), 0u);

  // Draining is permanent: requests that would wait now fail immediately.
  AcquireOptions opts;
  opts.timeout_ms = 60'000;
  EXPECT_TRUE(lm.Acquire(99, kR, LockMode::kS, opts).IsAborted());
}

TEST(SheddingTest, DrainRefusesOnlyRequestsThatWouldWait) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kS).ok());
  EXPECT_EQ(lm.DrainForShutdown(), 0u);  // nobody was waiting

  // A compatible or uncontended request needs no wait and is granted.
  EXPECT_TRUE(lm.Acquire(2, kR, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(2, ResourceId{1, 101}, LockMode::kX).ok());
  // One that would wait fails at once, long timeout or not.
  AcquireOptions opts;
  opts.timeout_ms = 60'000;
  EXPECT_TRUE(lm.Acquire(3, kR, LockMode::kX, opts).IsAborted());
  EXPECT_EQ(lm.NumBlockedWaiters(), 0u);
  EXPECT_EQ(lm.HeldMode(3, kR), LockMode::kNL);
}

// --- RestoreLongLocks edge cases ---------------------------------------

TEST(RestoreTest, ConflictingShortLockFailsAllOrNothing) {
  LockManager lm;
  // An adopted transaction already holds a short X on one of the resources
  // the snapshot wants back.
  ASSERT_TRUE(lm.Acquire(9, {2, 7}, LockMode::kX).ok());

  const std::vector<LongLockRecord> records = {
      {1, {1, 1}, LockMode::kX},
      {1, {2, 7}, LockMode::kS},
  };
  Status s = lm.RestoreLongLocks(records);
  EXPECT_FALSE(s.ok());
  // Nothing was installed — not even the non-conflicting first record.
  EXPECT_TRUE(lm.LocksOf(1).empty());
  EXPECT_EQ(lm.HeldMode(1, {1, 1}), LockMode::kNL);
}

TEST(RestoreTest, DuplicateRecordsMergeToSupremum) {
  LockManager lm;
  const std::vector<LongLockRecord> records = {
      {1, kR, LockMode::kS},
      {1, kR, LockMode::kX},
      {1, kR, LockMode::kIS},
  };
  ASSERT_TRUE(lm.RestoreLongLocks(records).ok());
  EXPECT_EQ(lm.HeldMode(1, kR), LockMode::kX);
  // Merged into ONE held lock, not three stacked acquisitions.
  EXPECT_EQ(lm.LocksOf(1).size(), 1u);
  EXPECT_EQ(lm.ReleaseAll(1), 1u);
}

TEST(RestoreTest, InvalidTxnRecordIsRejected) {
  LockManager lm;
  const std::vector<LongLockRecord> records = {
      {lock::kInvalidTxn, kR, LockMode::kS},
  };
  EXPECT_TRUE(lm.RestoreLongLocks(records).IsInvalidArgument());
}

TEST(RestoreTest, RestoreSucceedsAfterShedding) {
  // A shed episode (gauge up and back down) must not poison recovery.
  LockManager::Options mo;
  mo.max_blocked_waiters = 1;
  LockManager lm(mo);
  ASSERT_TRUE(lm.Acquire(1, kR, LockMode::kX).ok());
  std::thread blocked([&] {
    AcquireOptions opts;
    opts.timeout_ms = 5'000;
    EXPECT_TRUE(lm.Acquire(2, kR, LockMode::kS, opts).ok());
  });
  while (lm.NumBlockedWaiters() == 0) std::this_thread::yield();
  EXPECT_TRUE(lm.Acquire(3, kR, LockMode::kS).IsShed());
  lm.ReleaseAll(1);
  blocked.join();
  lm.ReleaseAll(2);

  const std::vector<LongLockRecord> records = {{7, {5, 5}, LockMode::kX}};
  ASSERT_TRUE(lm.RestoreLongLocks(records).ok());
  EXPECT_EQ(lm.HeldMode(7, {5, 5}), LockMode::kX);
  EXPECT_EQ(lm.NumBlockedWaiters(), 0u);
}

// --- Abort-by-cause accounting -----------------------------------------

TEST(AbortCauseTest, CausesLandInTheMatchingCounters) {
  sim::CellsFixture f = sim::BuildFigure7Instance();
  sim::Engine eng(f.catalog.get(), f.store.get());
  LockStats& stats = eng.lock_manager().stats();

  const uint64_t t0 = stats.aborts_timeout.value();
  const uint64_t d0 = stats.aborts_deadlock.value();
  const uint64_t s0 = stats.aborts_shed.value();

  txn::Transaction* a = eng.txn_manager().Begin(1);
  ASSERT_TRUE(eng.txn_manager().Abort(a, Status::Timeout("t")).ok());
  txn::Transaction* b = eng.txn_manager().Begin(1);
  ASSERT_TRUE(eng.txn_manager().Abort(b, Status::Deadlock("d")).ok());
  txn::Transaction* c = eng.txn_manager().Begin(1);
  ASSERT_TRUE(eng.txn_manager().Abort(c, Status::Aborted("wounded")).ok());
  txn::Transaction* d = eng.txn_manager().Begin(1);
  ASSERT_TRUE(eng.txn_manager().Abort(d, Status::Shed("s")).ok());

  EXPECT_EQ(stats.aborts_timeout.value(), t0 + 1);
  EXPECT_EQ(stats.aborts_deadlock.value(), d0 + 2)
      << "deadlock victims and wounds share the counter";
  EXPECT_EQ(stats.aborts_shed.value(), s0 + 1);
}

// --- RetryPolicy --------------------------------------------------------

TEST(RetryPolicyTest, ClassifiesFailures) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Deadlock("d")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Timeout("t")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Aborted("w")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Shed("s")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Unauthorized("no")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Internal("bug")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::NotFound("gone")));
}

TEST(RetryPolicyTest, BoundsAttempts) {
  RetryPolicy p;
  p.max_attempts = 3;
  const Status dl = Status::Deadlock("d");
  EXPECT_TRUE(p.ShouldRetry(dl, 1));
  EXPECT_TRUE(p.ShouldRetry(dl, 2));
  EXPECT_FALSE(p.ShouldRetry(dl, 3));
  EXPECT_FALSE(p.ShouldRetry(Status::Internal("bug"), 1));

  RetryPolicy off;
  off.max_attempts = 1;
  EXPECT_FALSE(off.ShouldRetry(dl, 1));
}

TEST(RetryPolicyTest, BackoffGrowsJitteredAndBounded) {
  RetryPolicy p;
  p.base_backoff_us = 100;
  p.max_backoff_us = 1'000;
  Rng rng(42);
  for (int retry = 1; retry <= 10; ++retry) {
    const uint64_t full = std::min<uint64_t>(
        p.base_backoff_us << (retry - 1), p.max_backoff_us);
    for (int i = 0; i < 20; ++i) {
      const uint64_t b = p.BackoffUs(retry, rng);
      EXPECT_GE(b, full / 2) << "retry " << retry;
      EXPECT_LE(b, full) << "retry " << retry;
    }
  }
}

TEST(RetryPolicyTest, BackoffShiftIsCappedAgainstOverflow) {
  // Past retry 21 the exponent freezes at 2^20: a pathological retry
  // count must not shift the base off the end of the word (UB) or wrap
  // to a tiny backoff.
  RetryPolicy p;
  p.base_backoff_us = 1;
  p.max_backoff_us = std::numeric_limits<uint64_t>::max();
  Rng rng(7);
  const uint64_t full = uint64_t{1} << 20;
  for (int retry : {21, 22, 40, 1000}) {
    for (int i = 0; i < 20; ++i) {
      const uint64_t b = p.BackoffUs(retry, rng);
      EXPECT_GE(b, full / 2) << "retry " << retry;
      EXPECT_LE(b, full) << "retry " << retry;
    }
  }
}

TEST(RetryPolicyTest, BackoffDegenerateInputs) {
  RetryPolicy p;
  p.base_backoff_us = 0;  // disabled backoff: always 0, no div-by-zero
  Rng rng(3);
  EXPECT_EQ(p.BackoffUs(1, rng), 0u);
  EXPECT_EQ(p.BackoffUs(5, rng), 0u);

  // Out-of-range retry numbers clamp to the first retry's window.
  RetryPolicy q;
  q.base_backoff_us = 100;
  for (int retry : {0, -1}) {
    const uint64_t b = q.BackoffUs(retry, rng);
    EXPECT_GE(b, 50u);
    EXPECT_LE(b, 100u);
  }
}

TEST(RetryPolicyTest, BackoffIsDeterministicPerSeed) {
  // All jitter flows through the caller's seeded Rng: two equal seeds
  // replay the identical backoff sequence (the fleet driver's
  // SameSeedReplaysExactly depends on this).
  RetryPolicy p;
  std::vector<uint64_t> a, b;
  Rng ra(99), rb(99), rc(100);
  bool differs = false;
  for (int retry = 1; retry <= 8; ++retry) {
    a.push_back(p.BackoffUs(retry, ra));
    b.push_back(p.BackoffUs(retry, rb));
    differs |= p.BackoffUs(retry, rc) != a.back();
  }
  EXPECT_EQ(a, b);
  EXPECT_TRUE(differs) << "a different seed never changed the jitter";
}

// --- Harness accounting under contention -------------------------------

TEST(WorkloadAccountingTest, ReconcilesUnderContentionAndShedding) {
  sim::CellsParams params;
  params.num_cells = 2;
  sim::CellsFixture f = sim::BuildCellsEffectors(params);
  sim::EngineOptions eo;
  eo.lock_timeout_ms = 20;
  eo.lock_manager.max_blocked_waiters = 2;  // force sheds under the pile-up
  sim::Engine eng(f.catalog.get(), f.store.get(), eo);
  eng.authorization().GrantAll(1, *f.catalog);

  sim::WorkloadConfig cfg;
  cfg.threads = 8;
  cfg.txns_per_thread = 15;
  cfg.max_retries = 2;
  cfg.retry.base_backoff_us = 50;
  cfg.retry.max_backoff_us = 500;
  sim::WorkloadReport r =
      sim::RunWorkload(eng, cfg, [&](int, int, Rng&) {
        sim::TxnScript s;
        s.user = 1;
        query::Query q = query::MakeQ2(f.cells);  // everyone updates r1
        s.queries = {q};
        s.work_us = 300;
        return s;
      });

  // The hard invariant: no transaction vanishes, whatever mix of commits,
  // timeouts, sheds and exhausted retry budgets the run produced.
  EXPECT_EQ(r.submitted, 8u * 15u);
  EXPECT_TRUE(r.Reconciles())
      << "submitted=" << r.submitted << " committed=" << r.committed
      << " unresolved=" << r.unresolved << " errors=" << r.other_errors;
  EXPECT_GT(r.committed, 0u);
  EXPECT_EQ(r.other_errors, 0u);
  // Cause counters in LockStats agree with the harness's own tally.
  const LockStats& stats = eng.lock_manager().stats();
  EXPECT_EQ(stats.aborts_shed.value(), r.shed_aborts);
  EXPECT_EQ(stats.retries.value(), r.retries);
  EXPECT_GE(stats.sheds.value(), r.shed_aborts);
}

// --- Server-level retry -------------------------------------------------

TEST(ServerRetryTest, ShortTxnRetriesAgainstALongHolderThenSucceeds) {
  sim::CellsFixture f = sim::BuildFigure7Instance();
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 50;
  opts.retry.max_attempts = 3;
  opts.retry.base_backoff_us = 100;
  opts.retry.max_backoff_us = 1'000;
  ws::Server server(f.catalog.get(), f.store.get(), opts);

  Result<ws::CheckOutTicket> ticket =
      server.CheckOut(1, query::MakeQ2(f.cells));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

  // A conflicting short transaction times out on every attempt; the retry
  // loop must make exactly max_attempts of them and report the cause.
  const LockStats& stats = server.lock_manager().stats();
  const uint64_t retries0 = stats.retries.value();
  const uint64_t timeouts0 = stats.aborts_timeout.value();
  Result<query::QueryResult> blocked =
      server.RunShortTxn(2, query::MakeQ2(f.cells));
  EXPECT_TRUE(blocked.status().IsTimeout()) << blocked.status().ToString();
  EXPECT_EQ(stats.retries.value(), retries0 + 2) << "two re-runs after 3 fails";
  EXPECT_EQ(stats.aborts_timeout.value(), timeouts0 + 3);

  // Once the long holder checks in, the same transaction sails through.
  ASSERT_TRUE(server.CheckIn(*ticket).ok());
  Result<query::QueryResult> ok = server.RunShortTxn(2, query::MakeQ2(f.cells));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace codlock
