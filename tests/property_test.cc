/// Property-based tests: invariants of the protocol, planner and lock
/// manager over parameterized schema/workload sweeps.

#include <gtest/gtest.h>

#include <set>

#include "proto/co_protocol.h"
#include "proto/validator.h"
#include "query/executor.h"
#include "sim/engine.h"
#include "sim/fixtures.h"
#include "sim/harness.h"
#include "ws/server.h"

namespace codlock::sim {
namespace {

using lock::LockMode;

// ---------------------------------------------------------------------
// Property: for every (depth, fanout, sharing) synthetic schema, locking
// any complex object S/X with the proposed protocol leaves a grant set in
// which (a) every ancestor on the path holds the matching intention and
// (b) every transitively referenced shared object holds an explicit lock
// (from-the-side visibility).
// ---------------------------------------------------------------------

struct ShapeParam {
  int depth;
  int fanout;
  int refs_per_leaf;
};

class ShapeSweepTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ShapeSweepTest, SXLocksMakeAllSharedDataVisible) {
  const ShapeParam& sp = GetParam();
  SyntheticParams p;
  p.depth = sp.depth;
  p.fanout = sp.fanout;
  p.refs_per_leaf = sp.refs_per_leaf;
  p.num_objects = 4;
  p.num_shared = 6;
  SyntheticFixture f = BuildSynthetic(p);
  logra::LockGraph g = logra::LockGraph::Build(*f.catalog);
  lock::LockManager lm;
  txn::TxnManager tm(&lm);
  authz::AuthorizationManager az;
  proto::ComplexObjectProtocol proto(&g, f.store.get(), &lm, &az);

  for (LockMode mode : {LockMode::kS, LockMode::kX}) {
    txn::Transaction* t = tm.Begin(1);
    for (nf2::ObjectId obj : f.store->ObjectsOf(f.main_relation)) {
      Result<nf2::ResolvedPath> rp =
          f.store->Navigate(f.main_relation, obj, {});
      ASSERT_TRUE(rp.ok());
      proto::LockTarget target = proto::MakeTarget(g, *f.catalog, *rp);
      ASSERT_TRUE(proto.Lock(*t, target, mode).ok());

      // (a) ancestors hold the matching intention (or stronger).
      LockMode intent = lock::IntentionFor(mode);
      for (size_t i = 0; i + 1 < target.path.size(); ++i) {
        LockMode held = lm.HeldMode(t->id(), target.path[i]);
        EXPECT_TRUE(lock::Covers(held, intent))
            << "ancestor " << i << " holds " << lock::LockModeName(held);
      }
      // (b) every referenced shared object carries an explicit lock.
      for (const nf2::RefValue& ref :
           nf2::InstanceStore::CollectRefs(*target.value)) {
        Result<nf2::Iid> iid = f.store->RootIid(ref.relation, ref.object);
        ASSERT_TRUE(iid.ok());
        LockMode held = lm.HeldMode(
            t->id(), {g.ComplexObjectNode(ref.relation), *iid});
        EXPECT_NE(held, LockMode::kNL);
        // Rule 4′ with no rights: X weakens to S on shared data.
        if (mode == LockMode::kX) {
          EXPECT_EQ(held, LockMode::kS);
        }
      }
    }
    ASSERT_TRUE(tm.Commit(t).ok());
    EXPECT_EQ(lm.NumEntries(), 0u);
  }
}

TEST_P(ShapeSweepTest, ValidatorCleanAfterConcurrentMixedWorkload) {
  const ShapeParam& sp = GetParam();
  SyntheticParams p;
  p.depth = sp.depth;
  p.fanout = sp.fanout;
  p.refs_per_leaf = sp.refs_per_leaf;
  p.num_objects = 6;
  SyntheticFixture f = BuildSynthetic(p);
  EngineOptions opts;
  opts.lock_timeout_ms = 2'000;
  Engine eng(f.catalog.get(), f.store.get(), opts);
  ASSERT_TRUE(eng.authorization()
                  .Grant(1, f.main_relation, authz::Right::kModify)
                  .ok());

  std::vector<nf2::ObjectId> ids = f.store->ObjectsOf(f.main_relation);
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.txns_per_thread = 6;
  cfg.max_retries = 20;
  WorkloadReport report = RunWorkload(eng, cfg, [&](int, int, Rng& rng) {
    TxnScript s;
    s.user = 1;
    query::Query q;
    q.relation = f.main_relation;
    q.object_key.clear();
    q.kind = rng.Bernoulli(0.5) ? query::AccessKind::kRead
                                : query::AccessKind::kUpdate;
    s.queries = {q};
    return s;
  });
  EXPECT_EQ(report.other_errors, 0u);
  EXPECT_GT(report.committed, 0u);
  // Quiescent now: nothing may be left locked, nothing inconsistent.
  EXPECT_EQ(eng.lock_manager().NumEntries(), 0u);
  EXPECT_TRUE(eng.validator().Check(eng.lock_manager()).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeSweepTest,
    ::testing::Values(ShapeParam{1, 2, 0}, ShapeParam{1, 4, 1},
                      ShapeParam{2, 3, 0}, ShapeParam{2, 3, 2},
                      ShapeParam{3, 2, 1}, ShapeParam{4, 2, 0},
                      ShapeParam{4, 2, 3}),
    [](const ::testing::TestParamInfo<ShapeParam>& pinfo) {
      return std::string("d")
          .append(std::to_string(pinfo.param.depth))
          .append("f")
          .append(std::to_string(pinfo.param.fanout))
          .append("r")
          .append(std::to_string(pinfo.param.refs_per_leaf));
    });

// ---------------------------------------------------------------------
// Property: the planner never plans more fine-granule locks than the
// escalation threshold θ allows, across a (cardinality × θ × selectivity)
// sweep — "anticipation of lock escalations".
// ---------------------------------------------------------------------

struct EscalationParam {
  int cardinality;
  double theta;
  double selectivity;
};

class EscalationSweepTest : public ::testing::TestWithParam<EscalationParam> {
};

TEST_P(EscalationSweepTest, PlannedTargetLocksNeverExceedTheta) {
  const EscalationParam& ep = GetParam();
  CellsParams cp;
  cp.num_cells = 1;
  cp.c_objects_per_cell = ep.cardinality;
  CellsFixture f = BuildCellsEffectors(cp);
  logra::LockGraph g = logra::LockGraph::Build(*f.catalog);
  query::Statistics stats = query::Statistics::Collect(*f.catalog, *f.store);
  query::LockPlanner::Options o;
  o.policy = query::GranulePolicy::kOptimal;
  o.escalation_threshold = ep.theta;
  query::LockPlanner planner(&g, f.catalog.get(), &stats, o);

  query::Query q = query::MakeQ1(f.cells);
  q.selectivity = ep.selectivity;
  Result<query::QueryPlan> plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan->expected_target_locks, std::max(1.0, ep.theta));
  // And the executor takes exactly the planned number of target locks.
  lock::LockManager lm;
  txn::TxnManager tm(&lm);
  authz::AuthorizationManager az;
  proto::ComplexObjectProtocol proto(&g, f.store.get(), &lm, &az);
  query::QueryExecutor exec(&g, f.catalog.get(), f.store.get(), &proto);
  txn::Transaction* t = tm.Begin(1);
  Result<query::QueryResult> r = exec.Execute(*t, q, *plan);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(static_cast<double>(r->target_locks), std::max(1.0, ep.theta));
  tm.Commit(t);
}

INSTANTIATE_TEST_SUITE_P(
    Escalation, EscalationSweepTest,
    ::testing::Values(EscalationParam{4, 16, 1.0},
                      EscalationParam{32, 16, 1.0},
                      EscalationParam{32, 16, 0.25},
                      EscalationParam{100, 10, 1.0},
                      EscalationParam{100, 10, 0.05},
                      EscalationParam{8, 1, 1.0},
                      EscalationParam{200, 64, 0.5}));

// ---------------------------------------------------------------------
// Property: random lock/release sequences through the lock manager leave
// no residue and never violate the compatibility matrix among concurrent
// holders.
// ---------------------------------------------------------------------

class LockManagerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockManagerFuzzTest, RandomizedAcquireReleaseKeepsInvariants) {
  lock::LockManager lm;
  Rng rng(GetParam());
  constexpr int kTxns = 6;
  constexpr int kResources = 10;
  constexpr LockMode kModes[] = {LockMode::kIS, LockMode::kIX, LockMode::kS,
                                 LockMode::kSIX, LockMode::kX};

  for (int step = 0; step < 500; ++step) {
    lock::TxnId txn = 1 + rng.Uniform(kTxns);
    lock::ResourceId res{static_cast<uint32_t>(rng.Uniform(kResources)),
                         rng.Uniform(3)};
    if (rng.Bernoulli(0.6)) {
      LockMode m = kModes[rng.Uniform(5)];
      lock::AcquireOptions o;
      o.wait = false;  // single-threaded: waiting would self-block
      Status st = lm.Acquire(txn, res, m, o);
      EXPECT_TRUE(st.ok() || st.IsConflict()) << st;
    } else {
      lm.ReleaseAll(txn);
    }
    // Invariant: all concurrent holders pairwise compatible.  GroupMode
    // computing supremum over holders must be compatible with each holder
    // — spot-check via per-txn held modes.
    for (uint32_t node = 0; node < kResources; ++node) {
      for (uint64_t inst = 0; inst < 3; ++inst) {
        lock::ResourceId r{node, inst};
        std::vector<LockMode> held;
        for (int t = 1; t <= kTxns; ++t) {
          LockMode m = lm.HeldMode(static_cast<lock::TxnId>(t), r);
          if (m != LockMode::kNL) held.push_back(m);
        }
        for (size_t i = 0; i < held.size(); ++i) {
          for (size_t j = i + 1; j < held.size(); ++j) {
            EXPECT_TRUE(lock::Compatible(held[i], held[j]))
                << lock::LockModeName(held[i]) << " vs "
                << lock::LockModeName(held[j]);
          }
        }
      }
    }
  }
  for (int t = 1; t <= kTxns; ++t) lm.ReleaseAll(static_cast<lock::TxnId>(t));
  EXPECT_EQ(lm.NumEntries(), 0u);
  EXPECT_EQ(lm.stats().held_locks.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockManagerFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 13, 99, 12345));

// ---------------------------------------------------------------------
// Property: EffectiveModeOnPath reflects implicit S/X coverage.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Property: crash recovery preserves exactly the long locks — for random
// mixes of check-outs, the lock set before and after CrashAndRestart()
// is identical (and short locks are gone).
// ---------------------------------------------------------------------

class CrashRecoveryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashRecoveryTest, LongLockSetInvariantUnderCrash) {
  CellsParams params;
  params.num_cells = 6;
  params.robots_per_cell = 3;
  CellsFixture f = BuildCellsEffectors(params);
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 100;
  ws::Server server(f.catalog.get(), f.store.get(), opts);

  Rng rng(GetParam());
  std::vector<ws::CheckOutTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    query::Query q;
    q.relation = f.cells;
    q.object_key = std::string("c").append(std::to_string(1 + rng.Uniform(6)));
    q.kind = rng.Bernoulli(0.5) ? query::AccessKind::kUpdate
                                : query::AccessKind::kRead;
    q.path = {nf2::PathStep::At("robots",
                                static_cast<int64_t>(rng.Uniform(3)))};
    ws::CheckOutMode mode =
        rng.Bernoulli(0.5) ? ws::CheckOutMode::kExclusive
                           : ws::CheckOutMode::kShared;
    Result<ws::CheckOutTicket> t = server.CheckOut(
        static_cast<authz::UserId>(1 + i), q, mode);
    if (t.ok()) tickets.push_back(*t);
  }
  ASSERT_FALSE(tickets.empty());

  auto snapshot_of = [](const std::vector<lock::LongLockRecord>& recs) {
    std::set<std::tuple<lock::TxnId, uint32_t, uint64_t, int>> out;
    for (const auto& r : recs) {
      out.insert({r.txn, r.resource.node, r.resource.instance,
                  static_cast<int>(r.mode)});
    }
    return out;
  };
  auto before = snapshot_of(server.lock_manager().SnapshotLongLocks());
  ASSERT_FALSE(before.empty());

  server.CrashAndRestart();

  auto after = snapshot_of(server.lock_manager().SnapshotLongLocks());
  EXPECT_EQ(before, after);
  EXPECT_EQ(server.ActiveLongTxns(), tickets.size());
  // Everything in the manager is long (short locks died with the crash).
  EXPECT_EQ(server.lock_manager().SnapshotAllLocks().size(), after.size());
  // All tickets still check in cleanly after the crash.
  for (const ws::CheckOutTicket& t : tickets) {
    EXPECT_TRUE(server.CheckIn(t).ok());
  }
  EXPECT_EQ(server.lock_manager().NumEntries(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(EffectiveModeTest, InheritsCoverageFromAncestors) {
  CellsFixture f = BuildFigure7Instance();
  logra::LockGraph g = logra::LockGraph::Build(*f.catalog);
  lock::LockManager lm;
  txn::TxnManager tm(&lm);
  authz::AuthorizationManager az;
  proto::ComplexObjectProtocol proto(&g, f.store.get(), &lm, &az);

  txn::Transaction* t = tm.Begin(1);
  Result<const nf2::Object*> c1 = f.store->FindByKey(f.cells, "c1");
  ASSERT_TRUE(c1.ok());
  Result<nf2::ResolvedPath> robot = f.store->Navigate(
      f.cells, (*c1)->id, {nf2::PathStep::Elem("robots", "r1")});
  ASSERT_TRUE(robot.ok());
  proto::LockTarget robot_target = proto::MakeTarget(g, *f.catalog, *robot);
  ASSERT_TRUE(proto.Lock(*t, robot_target, LockMode::kS).ok());

  // A deeper path below the S-locked robot is effectively S.
  Result<nf2::ResolvedPath> deep = f.store->Navigate(
      f.cells, (*c1)->id,
      {nf2::PathStep::Elem("robots", "r1"), nf2::PathStep::Field("trajectory")});
  ASSERT_TRUE(deep.ok());
  proto::LockTarget deep_target = proto::MakeTarget(g, *f.catalog, *deep);
  EXPECT_EQ(proto::EffectiveModeOnPath(lm, t->id(), deep_target), LockMode::kS);

  // A sibling robot is only covered by the IX intents above it.
  Result<nf2::ResolvedPath> sibling = f.store->Navigate(
      f.cells, (*c1)->id, {nf2::PathStep::Elem("robots", "r2")});
  ASSERT_TRUE(sibling.ok());
  proto::LockTarget sib_target = proto::MakeTarget(g, *f.catalog, *sibling);
  EXPECT_EQ(proto::EffectiveModeOnPath(lm, t->id(), sib_target),
            LockMode::kNL);
}

}  // namespace
}  // namespace codlock::sim
