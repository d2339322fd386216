/// Tests for the workload harness: report accounting, retries, and that
/// every protocol choice survives a small concurrent workload.

#include <gtest/gtest.h>

#include "sim/fixtures.h"
#include "sim/harness.h"

namespace codlock::sim {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  HarnessTest() : f_(BuildCellsEffectors(Params())) {}

  static CellsParams Params() {
    CellsParams p;
    p.num_cells = 4;
    p.robots_per_cell = 3;
    p.num_effectors = 6;
    return p;
  }

  CellsFixture f_;
};

TEST_F(HarnessTest, AllTransactionsCommitWithoutContention) {
  Engine eng(f_.catalog.get(), f_.store.get());
  eng.authorization().GrantAll(1, *f_.catalog);
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.txns_per_thread = 10;
  WorkloadReport report =
      RunWorkload(eng, cfg, [&](int thread, int index, Rng&) {
        TxnScript script;
        script.user = 1;
        query::Query q = query::MakeQ1(f_.cells);
        // Each worker reads a different cell: no contention at all.
        q.object_key = std::string("c").append(
            std::to_string(1 + (thread * 17 + index) % 4));
        script.queries = {q};
        return script;
      });
  EXPECT_EQ(report.committed, 20u);
  EXPECT_EQ(report.deadlock_aborts, 0u);
  EXPECT_EQ(report.timeout_aborts, 0u);
  EXPECT_EQ(report.queries_executed, 20u);
  EXPECT_GT(report.lock_requests, 0u);
  EXPECT_GT(report.throughput_tps(), 0.0);
  EXPECT_GT(report.locks_per_txn(), 0.0);
  EXPECT_GT(report.values_read, 0u);
}

TEST_F(HarnessTest, ContendedWritersStillAllCommitViaQueueing) {
  Engine eng(f_.catalog.get(), f_.store.get());
  eng.authorization().GrantAll(1, *f_.catalog);
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.txns_per_thread = 5;
  // Everyone updates the same robot of the same cell, holding the X lock
  // for ~1ms of simulated work so the transactions genuinely overlap.
  WorkloadReport report = RunWorkload(eng, cfg, [&](int, int, Rng&) {
    TxnScript script;
    script.user = 1;
    script.work_us = 1000;
    script.queries = {query::MakeQ2(f_.cells)};
    return script;
  });
  EXPECT_EQ(report.committed, 20u);
  // Serialization showed up as waits.
  EXPECT_GT(report.lock_waits, 0u);
}

TEST_F(HarnessTest, ReportRowAndHeaderRender) {
  WorkloadReport r;
  r.committed = 10;
  r.elapsed_ns = 1'000'000'000;
  r.lock_requests = 100;
  std::string header = WorkloadReport::Header();
  std::string row = r.Row("test-config");
  EXPECT_NE(header.find("tps"), std::string::npos);
  EXPECT_NE(row.find("test-config"), std::string::npos);
  EXPECT_DOUBLE_EQ(r.throughput_tps(), 10.0);
  EXPECT_DOUBLE_EQ(r.locks_per_txn(), 10.0);
}

class AllProtocolsTest : public ::testing::TestWithParam<ProtocolChoice> {};

TEST_P(AllProtocolsTest, SmallMixedWorkloadCompletes) {
  CellsParams p;
  p.num_cells = 4;
  p.robots_per_cell = 2;
  CellsFixture f = BuildCellsEffectors(p);
  EngineOptions opts;
  opts.protocol = GetParam();
  opts.lock_timeout_ms = 500;
  Engine eng(f.catalog.get(), f.store.get(), opts);
  eng.authorization().GrantAll(1, *f.catalog);

  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.txns_per_thread = 8;
  cfg.max_retries = 10;
  WorkloadReport report = RunWorkload(eng, cfg, [&](int, int, Rng& rng) {
    TxnScript script;
    script.user = 1;
    query::Query q = rng.Bernoulli(0.5) ? query::MakeQ1(f.cells)
                                        : query::MakeQ2(f.cells);
    q.object_key = std::string("c").append(std::to_string(1 + rng.Uniform(4)));
    // Q2's robot key must exist in the chosen cell: use index selection.
    if (q.kind == query::AccessKind::kUpdate) {
      q.path = {nf2::PathStep::At("robots", static_cast<int64_t>(
                                                rng.Uniform(2)))};
    }
    script.queries = {q};
    return script;
  });
  // Under every protocol the workload makes progress; with retries all or
  // nearly all transactions commit.
  EXPECT_GT(report.committed, 25u);
  EXPECT_EQ(report.other_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocolsTest,
    ::testing::Values(ProtocolChoice::kComplexObject,
                      ProtocolChoice::kComplexObjectRule4,
                      ProtocolChoice::kSysRAllParents,
                      ProtocolChoice::kSysRPathOnly),
    [](const ::testing::TestParamInfo<ProtocolChoice>& pinfo) {
      switch (pinfo.param) {
        case ProtocolChoice::kComplexObject:
          return std::string("CoRule4Prime");
        case ProtocolChoice::kComplexObjectRule4:
          return std::string("CoRule4");
        case ProtocolChoice::kSysRAllParents:
          return std::string("SysRAllParents");
        case ProtocolChoice::kSysRPathOnly:
          return std::string("SysRPathOnly");
      }
      return std::string("Unknown");
    });

TEST(SpinForTest, WaitsApproximately) {
  Stopwatch sw;
  SpinFor(1000);  // 1ms
  EXPECT_GE(sw.ElapsedNanos(), 900'000u);
}

}  // namespace
}  // namespace codlock::sim
