/// Tests for the straightforward System R DAG baseline (§3.2.2): the
/// all-parents cost on shared data, and the path-only variant's undetected
/// from-the-side conflicts (caught by the ProtocolValidator).

#include <gtest/gtest.h>

#include "proto/co_protocol.h"
#include "proto/sysr_protocol.h"
#include "proto/validator.h"
#include "sim/fixtures.h"

namespace codlock::proto {
namespace {

using lock::LockMode;

class SysRTest : public ::testing::Test {
 protected:
  SysRTest()
      : f_(sim::BuildFigure7Instance()),
        graph_(logra::LockGraph::Build(*f_.catalog)),
        tm_(&lm_),
        validator_(&graph_, f_.store.get()) {}

  LockTarget EffectorTarget(const std::string& key) {
    Result<const nf2::Object*> e = f_.store->FindByKey(f_.effectors, key);
    EXPECT_TRUE(e.ok());
    Result<nf2::ResolvedPath> rp =
        f_.store->Navigate(f_.effectors, (*e)->id, {});
    EXPECT_TRUE(rp.ok());
    return MakeTarget(graph_, *f_.catalog, *rp);
  }

  LockTarget RobotTarget(const std::string& robot_key) {
    Result<const nf2::Object*> c1 = f_.store->FindByKey(f_.cells, "c1");
    EXPECT_TRUE(c1.ok());
    Result<nf2::ResolvedPath> rp = f_.store->Navigate(
        f_.cells, (*c1)->id, {nf2::PathStep::Elem("robots", robot_key)});
    EXPECT_TRUE(rp.ok());
    return MakeTarget(graph_, *f_.catalog, *rp);
  }

  sim::CellsFixture f_;
  logra::LockGraph graph_;
  lock::LockManager lm_;
  txn::TxnManager tm_;
  ProtocolValidator validator_;
};

TEST_F(SysRTest, AllParentsVariantScansAndLocksReferencingRobots) {
  SystemRDagProtocol proto(&graph_, f_.store.get(), &lm_);
  txn::Transaction* t = tm_.Begin(1);
  // X on effector e2, which r1 and r2 both reference: both robots' paths
  // must be IX-locked, found via a store scan.
  ASSERT_TRUE(proto.Lock(*t, EffectorTarget("e2"), LockMode::kX).ok());
  EXPECT_GT(lm_.stats().parent_searches.value(), 0u);

  nf2::AttrId robots_attr =
      *f_.catalog->FindField(f_.catalog->relation(f_.cells).root, "robots");
  logra::NodeId robot_node =
      graph_.NodeForAttr(*f_.catalog->ElementAttr(robots_attr));
  Result<const nf2::Object*> c1 = f_.store->FindByKey(f_.cells, "c1");
  ASSERT_TRUE(c1.ok());
  for (const std::string key : {"r1", "r2"}) {
    Result<nf2::ResolvedPath> rp = f_.store->Navigate(
        f_.cells, (*c1)->id, {nf2::PathStep::Elem("robots", key)});
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(lm_.HeldMode(t->id(), {robot_node, rp->target()->iid()}),
              LockMode::kIX)
        << "robot " << key << " must be IX-locked (all-parents rule)";
  }
  // The referencing relation "cells" is IX-locked too.
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.RelationNode(f_.cells), 0}),
            LockMode::kIX);
}

TEST_F(SysRTest, AllParentsXConflictsWithRobotReader) {
  // Reader S-locks robot r1 (implicitly covering its effectors).  A
  // writer X-locking e1 must block on the IX-vs-S conflict at robot r1 —
  // the all-parents rule is what makes the naive protocol sound.
  SystemRDagProtocol::Options nowait;
  nowait.wait = false;
  SystemRDagProtocol proto(&graph_, f_.store.get(), &lm_, nowait);

  txn::Transaction* reader = tm_.Begin(1);
  ASSERT_TRUE(proto.Lock(*reader, RobotTarget("r1"), LockMode::kS).ok());
  txn::Transaction* writer = tm_.Begin(2);
  EXPECT_TRUE(proto.Lock(*writer, EffectorTarget("e1"), LockMode::kX)
                  .IsConflict());
  EXPECT_TRUE(validator_.Check(lm_).empty());
}

TEST_F(SysRTest, PathOnlyVariantMissesFromTheSideConflict) {
  // §3.2.2: with the all-parents requirement given up, implicit locks on
  // common data become invisible.  Reader S-locks robot r1 (its effectors
  // implicitly S via the dashed edge); writer X-locks e1 directly through
  // its own path.  Both grants coexist — an undetected conflict.
  SystemRDagProtocol::Options opts;
  opts.variant = SystemRDagProtocol::Variant::kPathOnly;
  opts.wait = false;
  SystemRDagProtocol proto(&graph_, f_.store.get(), &lm_, opts);

  txn::Transaction* reader = tm_.Begin(1);
  ASSERT_TRUE(proto.Lock(*reader, RobotTarget("r1"), LockMode::kS).ok());
  txn::Transaction* writer = tm_.Begin(2);
  // The lock manager happily grants this — that is the bug being shown.
  ASSERT_TRUE(proto.Lock(*writer, EffectorTarget("e1"), LockMode::kX).ok());

  std::vector<Violation> violations = validator_.Check(lm_);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  Result<const nf2::Object*> e1 = f_.store->FindByKey(f_.effectors, "e1");
  ASSERT_TRUE(e1.ok());
  for (const Violation& v : violations) {
    if (v.writer == writer->id() && v.other == reader->id()) found = true;
    EXPECT_FALSE(v.ToString().empty());
  }
  EXPECT_TRUE(found);
}

TEST_F(SysRTest, ProposedProtocolSameScenarioHasNoViolation) {
  // The same scenario under the paper's protocol: the reader's downward
  // propagation placed an explicit S on e1, so the writer's X conflicts.
  authz::AuthorizationManager az;
  ASSERT_TRUE(az.Grant(2, f_.effectors, authz::Right::kModify).ok());
  ComplexObjectProtocol::Options nowait;
  nowait.wait = false;
  ComplexObjectProtocol proto(&graph_, f_.store.get(), &lm_, &az, nowait);

  txn::Transaction* reader = tm_.Begin(1);
  ASSERT_TRUE(proto.Lock(*reader, RobotTarget("r1"), LockMode::kS).ok());
  txn::Transaction* writer = tm_.Begin(2);
  EXPECT_TRUE(proto.Lock(*writer, EffectorTarget("e1"), LockMode::kX)
                  .IsConflict());
  EXPECT_TRUE(validator_.Check(lm_).empty());
}

TEST_F(SysRTest, SharedReadViaPathNeedsNoScan) {
  // S access to shared data through one path is cheap in every variant
  // (GLPT76 rule 1 needs only one locked parent).
  SystemRDagProtocol proto(&graph_, f_.store.get(), &lm_);
  txn::Transaction* t = tm_.Begin(1);
  ASSERT_TRUE(proto.Lock(*t, RobotTarget("r1"), LockMode::kS).ok());
  EXPECT_EQ(lm_.stats().parent_searches.value(), 0u);
}

TEST_F(SysRTest, DisjointTargetNeverScans) {
  SystemRDagProtocol proto(&graph_, f_.store.get(), &lm_);
  txn::Transaction* t = tm_.Begin(1);
  // X on a robot (not shared data) must not trigger the parent scan.
  ASSERT_TRUE(proto.Lock(*t, RobotTarget("r1"), LockMode::kX).ok());
  EXPECT_EQ(lm_.stats().parent_searches.value(), 0u);
}

TEST_F(SysRTest, PathGranulesTakeTheIntentionAndTheTargetTheMode) {
  SystemRDagProtocol proto(&graph_, f_.store.get(), &lm_);
  txn::Transaction* t = tm_.Begin(1);
  const LockTarget r1 = RobotTarget("r1");
  ASSERT_TRUE(proto.Lock(*t, r1, LockMode::kX).ok());
  for (size_t i = 0; i + 1 < r1.path.size(); ++i) {
    EXPECT_EQ(lm_.HeldMode(t->id(), r1.path[i]), LockMode::kIX) << i;
  }
  EXPECT_EQ(lm_.HeldMode(t->id(), r1.path.back()), LockMode::kX);
  // Only the path: System R does not propagate to the effectors below.
  EXPECT_EQ(lm_.LocksOf(t->id()).size(), r1.path.size());
}

TEST_F(SysRTest, LockEntryPointAllParentsLocksSharedRelationChain) {
  SystemRDagProtocol proto(&graph_, f_.store.get(), &lm_);
  txn::Transaction* t = tm_.Begin(1);
  Result<const nf2::Object*> c1 = f_.store->FindByKey(f_.cells, "c1");
  ASSERT_TRUE(c1.ok());
  Result<nf2::ResolvedPath> rp = f_.store->Navigate(
      f_.cells, (*c1)->id,
      {nf2::PathStep::Elem("robots", "r1"), nf2::PathStep::At("effectors", 0)});
  ASSERT_TRUE(rp.ok());
  LockTarget ref_path = MakeTarget(graph_, *f_.catalog, *rp);
  ASSERT_TRUE(proto.Lock(*t, ref_path, LockMode::kIX).ok());
  ASSERT_TRUE(proto.LockEntryPoint(*t, ref_path, LockMode::kX).ok());
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.RelationNode(f_.effectors), 0}),
            LockMode::kIX);
  EXPECT_GT(lm_.stats().parent_searches.value(), 0u);
}

}  // namespace
}  // namespace codlock::proto
