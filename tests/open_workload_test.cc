/// Tests for the open-system workload harness (Poisson arrivals, latency
/// percentiles).

#include <gtest/gtest.h>

#include "sim/fixtures.h"
#include "sim/open_workload.h"

namespace codlock::sim {
namespace {

TEST(OpenWorkloadTest, AllArrivalsComplete) {
  CellsFixture f = BuildCellsEffectors();
  Engine eng(f.catalog.get(), f.store.get());
  eng.authorization().GrantAll(1, *f.catalog);

  OpenWorkloadConfig cfg;
  cfg.arrival_rate_tps = 5000;
  cfg.total_txns = 100;
  cfg.workers = 4;
  LatencyReport r = RunOpenWorkload(eng, cfg, [&](int, int, Rng& rng) {
    TxnScript s;
    s.user = 1;
    query::Query q = query::MakeQ1(f.cells);
    q.object_key = std::string("c").append(std::to_string(1 + rng.Uniform(4)));
    s.queries = {q};
    return s;
  });
  EXPECT_EQ(r.arrived, 100u);
  EXPECT_EQ(r.completed, 100u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.offered_tps(), 0.0);
  EXPECT_GT(r.completed_tps(), 0.0);
  // Percentiles are ordered.
  EXPECT_LE(r.p50_ms, r.p95_ms);
  EXPECT_LE(r.p95_ms, r.p99_ms + 1e-9);
  EXPECT_GT(r.mean_ms, 0.0);
  // Locks fully drained.
  EXPECT_EQ(eng.lock_manager().NumEntries(), 0u);
}

TEST(OpenWorkloadTest, ContentionRaisesLatencyNotFailures) {
  CellsParams p;
  p.num_cells = 1;
  CellsFixture f = BuildCellsEffectors(p);
  Engine eng(f.catalog.get(), f.store.get());
  eng.authorization().GrantAll(1, *f.catalog);

  OpenWorkloadConfig cfg;
  cfg.arrival_rate_tps = 20'000;  // far above single-robot capacity
  cfg.total_txns = 60;
  cfg.workers = 8;
  LatencyReport r = RunOpenWorkload(eng, cfg, [&](int, int, Rng&) {
    TxnScript s;
    s.user = 1;
    s.work_us = 500;
    s.queries = {query::MakeQ2(f.cells)};  // everyone updates robot r1
    return s;
  });
  EXPECT_EQ(r.completed, 60u);
  EXPECT_EQ(r.failed, 0u);
  // Fully serialized: latency far exceeds one service time.
  EXPECT_GT(r.p95_ms, 1.0);
}

TEST(OpenWorkloadTest, ShedAttemptsAreRetriedAndCountedByCause) {
  CellsParams p;
  p.num_cells = 1;
  CellsFixture f = BuildCellsEffectors(p);
  EngineOptions eo;
  eo.lock_manager.max_blocked_waiters = 1;  // a second waiter is shed
  Engine eng(f.catalog.get(), f.store.get(), eo);
  eng.authorization().GrantAll(1, *f.catalog);

  OpenWorkloadConfig cfg;
  cfg.arrival_rate_tps = 20'000;
  cfg.total_txns = 60;
  cfg.workers = 8;
  LatencyReport r = RunOpenWorkload(eng, cfg, [&](int, int, Rng&) {
    TxnScript s;
    s.user = 1;
    s.work_us = 300;
    s.queries = {query::MakeQ2(f.cells)};  // everyone updates robot r1
    return s;
  });

  // A shed is retryable: every arrival commits within its retry budget.
  EXPECT_EQ(r.completed, 60u);
  EXPECT_EQ(r.failed, 0u);
  const LockStats& stats = eng.lock_manager().stats();
  EXPECT_GT(stats.aborts_shed.value(), 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(stats.retries.value(), r.retries);
  // Every abort was classified by its cause and then retried.
  EXPECT_EQ(stats.aborts_shed.value() + stats.aborts_timeout.value() +
                stats.aborts_deadlock.value(),
            r.retries);
  EXPECT_EQ(eng.lock_manager().NumEntries(), 0u);
}

TEST(OpenWorkloadTest, ReportRendering) {
  LatencyReport r;
  r.arrived = 10;
  r.completed = 9;
  r.failed = 1;
  r.elapsed_ns = 1'000'000'000;
  r.p95_ms = 4.2;
  std::string header = LatencyReport::Header();
  std::string row = r.Row("cfg");
  EXPECT_NE(header.find("p95_ms"), std::string::npos);
  EXPECT_NE(row.find("cfg"), std::string::npos);
  EXPECT_DOUBLE_EQ(r.offered_tps(), 10.0);
  EXPECT_DOUBLE_EQ(r.completed_tps(), 9.0);
}

}  // namespace
}  // namespace codlock::sim
