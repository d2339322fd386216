/// Tests for the paper's complex-object lock protocol (§4.4.2): parent
/// intention rules, implicit upward/downward propagation, rule 4′, entry
/// point preconditions, degeneration to GLPT76 on disjoint objects.

#include <gtest/gtest.h>

#include "proto/co_protocol.h"
#include "sim/fixtures.h"

namespace codlock::proto {
namespace {

using lock::LockMode;

class CoProtocolTest : public ::testing::Test {
 protected:
  CoProtocolTest()
      : f_(sim::BuildFigure7Instance()),
        graph_(logra::LockGraph::Build(*f_.catalog)),
        tm_(&lm_),
        proto_(&graph_, f_.store.get(), &lm_, &authz_) {}

  /// Target for a path below cell c1.
  LockTarget Target(const nf2::Path& path) {
    Result<const nf2::Object*> c1 = f_.store->FindByKey(f_.cells, "c1");
    EXPECT_TRUE(c1.ok());
    Result<nf2::ResolvedPath> rp =
        f_.store->Navigate(f_.cells, (*c1)->id, path);
    EXPECT_TRUE(rp.ok()) << rp.status();
    return MakeTarget(graph_, *f_.catalog, *rp);
  }

  lock::ResourceId EffectorResource(const std::string& key) {
    Result<const nf2::Object*> e = f_.store->FindByKey(f_.effectors, key);
    EXPECT_TRUE(e.ok());
    return lock::ResourceId{graph_.ComplexObjectNode(f_.effectors),
                            (*e)->root.iid()};
  }

  /// Modes \p txn holds on the entry points of e1, e2 and e3, and on no
  /// other effector entry point.
  std::vector<LockMode> EffectorModes(lock::TxnId txn) {
    const logra::NodeId ep = graph_.ComplexObjectNode(f_.effectors);
    size_t held = 0;
    for (const lock::HeldLock& h : lm_.LocksOf(txn)) {
      held += h.resource.node == ep ? 1 : 0;
    }
    EXPECT_EQ(held, 3u);
    return {lm_.HeldMode(txn, EffectorResource("e1")),
            lm_.HeldMode(txn, EffectorResource("e2")),
            lm_.HeldMode(txn, EffectorResource("e3"))};
  }

  sim::CellsFixture f_;
  logra::LockGraph graph_;
  lock::LockManager lm_;
  txn::TxnManager tm_;
  authz::AuthorizationManager authz_;
  ComplexObjectProtocol proto_;
};

TEST_F(CoProtocolTest, IntentionLocksAlongPath) {
  txn::Transaction* t = tm_.Begin(1);
  LockTarget robots = Target({nf2::PathStep::Field("robots")});
  ASSERT_TRUE(proto_.Lock(*t, robots, LockMode::kIS).ok());
  EXPECT_EQ(lm_.HeldMode(t->id(),
                         {graph_.DatabaseNode(f_.db), 0}),
            LockMode::kIS);
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.SegmentNode(f_.seg1), 0}),
            LockMode::kIS);
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.RelationNode(f_.cells), 0}),
            LockMode::kIS);
  EXPECT_EQ(lm_.HeldMode(t->id(), {robots.target_node(), robots.target_iid()}),
            LockMode::kIS);
  // An IS request does not propagate downward.
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e1")), LockMode::kNL);
}

TEST_F(CoProtocolTest, SLockPropagatesSDownToEntryPoints) {
  txn::Transaction* t = tm_.Begin(1);
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  ASSERT_TRUE(proto_.Lock(*t, r1, LockMode::kS).ok());
  // Downward propagation: S on e1 and e2; e3 untouched.
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e1")), LockMode::kS);
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e2")), LockMode::kS);
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e3")), LockMode::kNL);
  // Upward propagation: IS on the superunit chain of the entry points.
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.SegmentNode(f_.seg2), 0}),
            LockMode::kIS);
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.RelationNode(f_.effectors), 0}),
            LockMode::kIS);
}

TEST_F(CoProtocolTest, Rule4PrimeWeakensXToSOnNonModifiableUnits) {
  // Txn may modify cells but not effectors.
  ASSERT_TRUE(authz_.Grant(1, f_.cells, authz::Right::kModify).ok());
  txn::Transaction* t = tm_.Begin(1);
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  ASSERT_TRUE(proto_.Lock(*t, r1, LockMode::kX).ok());
  EXPECT_EQ(lm_.HeldMode(t->id(), {r1.target_node(), r1.target_iid()}),
            LockMode::kX);
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e1")), LockMode::kS);
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e2")), LockMode::kS);
  // Upward propagation uses the matching intention for S: IS.
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.RelationNode(f_.effectors), 0}),
            LockMode::kIS);
}

TEST_F(CoProtocolTest, Rule4PrimePropagatesXOnModifiableUnits) {
  authz::UserId user = 2;
  ASSERT_TRUE(authz_.Grant(user, f_.cells, authz::Right::kModify).ok());
  ASSERT_TRUE(authz_.Grant(user, f_.effectors, authz::Right::kModify).ok());
  txn::Transaction* t = tm_.Begin(user);
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  ASSERT_TRUE(proto_.Lock(*t, r1, LockMode::kX).ok());
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e1")), LockMode::kX);
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.RelationNode(f_.effectors), 0}),
            LockMode::kIX);
}

TEST_F(CoProtocolTest, PlainRule4AlwaysPropagatesX) {
  ComplexObjectProtocol::Options opts;
  opts.use_rule4_prime = false;
  ComplexObjectProtocol rule4(&graph_, f_.store.get(), &lm_, &authz_, opts);
  txn::Transaction* t = tm_.Begin(3);  // no rights at all
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  ASSERT_TRUE(rule4.Lock(*t, r1, LockMode::kX).ok());
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e1")), LockMode::kX);
}

TEST_F(CoProtocolTest, TwoRobotUpdatersShareEffectorUnderRule4Prime) {
  // The paper's Q2 ∥ Q3 argument: both updaters S-lock shared e2, which is
  // compatible, so neither blocks.
  txn::Transaction* t2 = tm_.Begin(1);
  txn::Transaction* t3 = tm_.Begin(2);
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  LockTarget r2 = Target({nf2::PathStep::Elem("robots", "r2")});
  ASSERT_TRUE(proto_.Lock(*t2, r1, LockMode::kX).ok());
  ASSERT_TRUE(proto_.Lock(*t3, r2, LockMode::kX).ok());
  EXPECT_EQ(lm_.HeldMode(t2->id(), EffectorResource("e2")), LockMode::kS);
  EXPECT_EQ(lm_.HeldMode(t3->id(), EffectorResource("e2")), LockMode::kS);
}

TEST_F(CoProtocolTest, UnderPlainRule4UpdatersConflictOnSharedEffector) {
  ComplexObjectProtocol::Options opts;
  opts.use_rule4_prime = false;
  opts.wait = false;
  ComplexObjectProtocol rule4(&graph_, f_.store.get(), &lm_, &authz_, opts);
  txn::Transaction* t2 = tm_.Begin(1);
  txn::Transaction* t3 = tm_.Begin(2);
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  LockTarget r2 = Target({nf2::PathStep::Elem("robots", "r2")});
  ASSERT_TRUE(rule4.Lock(*t2, r1, LockMode::kX).ok());
  // Q3's X propagation onto e2 conflicts with Q2's X on e2.
  EXPECT_TRUE(rule4.Lock(*t3, r2, LockMode::kX).IsConflict());
}

TEST_F(CoProtocolTest, DownwardPropagationBlocksDirectEffectorWriter) {
  // From-the-side visibility: after Q2-style S on robot r1, a direct X on
  // effector e1 must conflict.
  txn::Transaction* reader = tm_.Begin(1);
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  ASSERT_TRUE(proto_.Lock(*reader, r1, LockMode::kS).ok());

  ComplexObjectProtocol::Options nowait;
  nowait.wait = false;
  ComplexObjectProtocol p2(&graph_, f_.store.get(), &lm_, &authz_, nowait);
  authz::UserId writer_user = 9;
  ASSERT_TRUE(
      authz_.Grant(writer_user, f_.effectors, authz::Right::kModify).ok());
  txn::Transaction* writer = tm_.Begin(writer_user);
  Result<const nf2::Object*> e1 = f_.store->FindByKey(f_.effectors, "e1");
  ASSERT_TRUE(e1.ok());
  Result<nf2::ResolvedPath> rp = f_.store->Navigate(f_.effectors, (*e1)->id, {});
  ASSERT_TRUE(rp.ok());
  LockTarget direct = MakeTarget(graph_, *f_.catalog, *rp);
  EXPECT_TRUE(p2.Lock(*writer, direct, LockMode::kX).IsConflict());
}

TEST_F(CoProtocolTest, SkipsPropagationWhenSemanticsAllowIt) {
  // §4.5: deleting a robot without the right to delete effectors needs no
  // locks on common data at all.
  txn::Transaction* t = tm_.Begin(1);
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  r1.access_implies_refs = false;
  ASSERT_TRUE(proto_.Lock(*t, r1, LockMode::kX).ok());
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e1")), LockMode::kNL);
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e2")), LockMode::kNL);
  EXPECT_EQ(lm_.HeldMode(t->id(), {graph_.RelationNode(f_.effectors), 0}),
            LockMode::kNL);
}

TEST_F(CoProtocolTest, RelationLevelSLockCoversAllObjects) {
  txn::Transaction* t = tm_.Begin(1);
  LockTarget rel = MakeSingletonTarget(graph_, graph_.RelationNode(f_.cells));
  ASSERT_TRUE(proto_.Lock(*t, rel, LockMode::kS).ok());
  // Every effector referenced from any cell is S-locked.
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e1")), LockMode::kS);
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e2")), LockMode::kS);
  EXPECT_EQ(lm_.HeldMode(t->id(), EffectorResource("e3")), LockMode::kS);
}

TEST_F(CoProtocolTest, SegmentLevelSLocksEachReferencedEntryPointOnce) {
  txn::Transaction* t = tm_.Begin(1);
  const uint64_t down0 = lm_.stats().downward_propagations.value();
  LockTarget seg1 = MakeSingletonTarget(graph_, graph_.SegmentNode(f_.seg1));
  ASSERT_TRUE(proto_.Lock(*t, seg1, LockMode::kS).ok());
  // c1's robots reference e1, e2 (r1) and e2, e3 (r2): three entry points,
  // e2 entered once.
  EXPECT_EQ(lm_.stats().downward_propagations.value() - down0, 3u);
  EXPECT_EQ(EffectorModes(t->id()),
            (std::vector<LockMode>{LockMode::kS, LockMode::kS, LockMode::kS}));

  // seg2 holds only the effectors, which reference nothing: an S on it
  // locks its path and no entry point.
  txn::Transaction* u = tm_.Begin(1);
  LockTarget seg2 = MakeSingletonTarget(graph_, graph_.SegmentNode(f_.seg2));
  ASSERT_TRUE(proto_.Lock(*u, seg2, LockMode::kS).ok());
  EXPECT_EQ(lm_.LocksOf(u->id()).size(), seg2.path.size());
}

TEST_F(CoProtocolTest, DatabaseLevelXLocksEachReferencedEntryPointOnce) {
  const LockTarget db = MakeSingletonTarget(graph_, graph_.DatabaseNode(f_.db));
  // Rule 4′: user 1 may modify the cells but not the effectors, so the X
  // reaches every effector entry point as S.
  ASSERT_TRUE(authz_.Grant(1, f_.cells, authz::Right::kModify).ok());
  txn::Transaction* t = tm_.Begin(1);
  uint64_t down0 = lm_.stats().downward_propagations.value();
  ASSERT_TRUE(proto_.Lock(*t, db, LockMode::kX).ok());
  EXPECT_EQ(lm_.stats().downward_propagations.value() - down0, 3u);
  EXPECT_EQ(EffectorModes(t->id()),
            (std::vector<LockMode>{LockMode::kS, LockMode::kS, LockMode::kS}));
  ASSERT_TRUE(tm_.Commit(t).ok());

  // A user entitled to modify the effectors gets X on each of them.
  ASSERT_TRUE(authz_.Grant(2, f_.cells, authz::Right::kModify).ok());
  ASSERT_TRUE(authz_.Grant(2, f_.effectors, authz::Right::kModify).ok());
  txn::Transaction* u = tm_.Begin(2);
  down0 = lm_.stats().downward_propagations.value();
  ASSERT_TRUE(proto_.Lock(*u, db, LockMode::kX).ok());
  EXPECT_EQ(lm_.stats().downward_propagations.value() - down0, 3u);
  EXPECT_EQ(EffectorModes(u->id()),
            (std::vector<LockMode>{LockMode::kX, LockMode::kX, LockMode::kX}));
}

TEST_F(CoProtocolTest, LockEntryPointRequiresLockedReferencingNode) {
  txn::Transaction* t = tm_.Begin(1);
  // Build the ref-BLU path without locking anything first.
  Result<const nf2::Object*> c1 = f_.store->FindByKey(f_.cells, "c1");
  ASSERT_TRUE(c1.ok());
  Result<nf2::ResolvedPath> rp = f_.store->Navigate(
      f_.cells, (*c1)->id,
      {nf2::PathStep::Elem("robots", "r1"), nf2::PathStep::At("effectors", 0)});
  ASSERT_TRUE(rp.ok());
  LockTarget ref_path = MakeTarget(graph_, *f_.catalog, *rp);
  ASSERT_TRUE(ref_path.value->is_ref());
  EXPECT_TRUE(
      proto_.LockEntryPoint(*t, ref_path, LockMode::kS).IsFailedPrecondition());

  // After locking the path with intentions, the entry point is reachable.
  ASSERT_TRUE(proto_.Lock(*t, ref_path, LockMode::kIS).ok());
  ASSERT_TRUE(proto_.LockEntryPoint(*t, ref_path, LockMode::kS).ok());
  const nf2::RefValue& ref = ref_path.value->as_ref();
  Result<nf2::Iid> iid = f_.store->RootIid(ref.relation, ref.object);
  ASSERT_TRUE(iid.ok());
  EXPECT_EQ(lm_.HeldMode(
                t->id(),
                {graph_.ComplexObjectNode(f_.effectors), *iid}),
            LockMode::kS);
}

TEST_F(CoProtocolTest, DisjointObjectsDegenerateToClassicalProtocol) {
  // On a schema without references the protocol takes exactly the
  // classical path locks: intentions plus the target, nothing else.
  sim::SyntheticParams p;
  p.depth = 1;
  p.refs_per_leaf = 0;
  p.num_objects = 2;
  sim::SyntheticFixture sf = sim::BuildSynthetic(p);
  logra::LockGraph g = logra::LockGraph::Build(*sf.catalog);
  lock::LockManager lm;
  txn::TxnManager tm(&lm);
  authz::AuthorizationManager az;
  ComplexObjectProtocol proto(&g, sf.store.get(), &lm, &az);

  txn::Transaction* t = tm.Begin(1);
  std::vector<nf2::ObjectId> ids = sf.store->ObjectsOf(sf.main_relation);
  Result<nf2::ResolvedPath> rp = sf.store->Navigate(sf.main_relation, ids[0], {});
  ASSERT_TRUE(rp.ok());
  LockTarget target = MakeTarget(g, *sf.catalog, *rp);
  ASSERT_TRUE(proto.Lock(*t, target, LockMode::kX).ok());
  // db IX, seg IX, relation IX, object X — exactly 4 locks.
  EXPECT_EQ(lm.LocksOf(t->id()).size(), 4u);
  EXPECT_EQ(lm.stats().downward_propagations.value(), 0u);
  EXPECT_EQ(lm.stats().upward_propagations.value(), 0u);
}

TEST_F(CoProtocolTest, RejectsNLRequests) {
  txn::Transaction* t = tm_.Begin(1);
  LockTarget r1 = Target({nf2::PathStep::Elem("robots", "r1")});
  EXPECT_TRUE(proto_.Lock(*t, r1, LockMode::kNL).IsInvalidArgument());
}

// A target's path is its node's solid-parent chain, database first: the
// database, segment and relation as singletons, then one granule per
// resolved step with the instance navigation saw.
TEST_F(CoProtocolTest, TargetPathFollowsTheSolidParentChain) {
  Result<const nf2::Object*> c1 = f_.store->FindByKey(f_.cells, "c1");
  ASSERT_TRUE(c1.ok());
  LockTarget t = Target({nf2::PathStep::Elem("robots", "r1"),
                         nf2::PathStep::Field("trajectory")});
  const std::vector<logra::NodeId>& chain =
      graph_.SuperunitChain(t.target_node());
  ASSERT_EQ(t.path.size(), chain.size() + 1);
  for (size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(t.path[i].node, chain[chain.size() - 1 - i]) << i;
    EXPECT_EQ(t.path[i].singleton(), i < 3) << i;
  }
  EXPECT_EQ(t.path[3], (lock::ResourceId{graph_.ComplexObjectNode(f_.cells),
                                         (*c1)->root.iid()}));
  EXPECT_EQ(t.target_iid(), t.value->iid());
  EXPECT_EQ(t.object, (*c1)->id);
}

TEST_F(CoProtocolTest, SingletonTargetPathIsTheSuperunitChain) {
  const logra::NodeId db = graph_.DatabaseNode(f_.db);
  const logra::NodeId seg = graph_.SegmentNode(f_.seg2);
  const logra::NodeId rel = graph_.RelationNode(f_.effectors);
  EXPECT_EQ(MakeSingletonTarget(graph_, db).path,
            (std::vector<lock::ResourceId>{{db, 0}}));
  EXPECT_EQ(MakeSingletonTarget(graph_, seg).relation, nf2::kInvalidRelation);
  const LockTarget t = MakeSingletonTarget(graph_, rel);
  EXPECT_EQ(t.path,
            (std::vector<lock::ResourceId>{{db, 0}, {seg, 0}, {rel, 0}}));
  EXPECT_EQ(t.relation, f_.effectors);
  EXPECT_EQ(t.value, nullptr);
}

TEST_F(CoProtocolTest, ObjectTargetEndsAtTheComplexObjectNode) {
  Result<const nf2::Object*> e1 = f_.store->FindByKey(f_.effectors, "e1");
  ASSERT_TRUE(e1.ok());
  Result<LockTarget> t = MakeObjectTarget(graph_, *f_.catalog, *f_.store,
                                          f_.effectors, (*e1)->id);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->path.size(), 4u);
  EXPECT_EQ(t->path.back(), EffectorResource("e1"));
  EXPECT_EQ(t->value, &(*e1)->root);
}

TEST_F(CoProtocolTest, ObjectTargetOfAMissingObjectIsNotFound) {
  Result<LockTarget> t = MakeObjectTarget(graph_, *f_.catalog, *f_.store,
                                          f_.effectors, 999'999);
  EXPECT_TRUE(t.status().IsNotFound()) << t.status();
}

TEST_F(CoProtocolTest, XOnADeepTargetTakesIXOnEveryGranuleAbove) {
  txn::Transaction* t = tm_.Begin(1);
  LockTarget traj = Target({nf2::PathStep::Elem("robots", "r1"),
                            nf2::PathStep::Field("trajectory")});
  ASSERT_TRUE(proto_.Lock(*t, traj, LockMode::kX).ok());
  for (size_t i = 0; i + 1 < traj.path.size(); ++i) {
    EXPECT_EQ(lm_.HeldMode(t->id(), traj.path[i]), LockMode::kIX) << i;
  }
  EXPECT_EQ(lm_.HeldMode(t->id(), traj.path.back()), LockMode::kX);
  // The trajectory references nothing: no lock off the path.
  EXPECT_EQ(lm_.LocksOf(t->id()).size(), traj.path.size());
}

}  // namespace
}  // namespace codlock::proto
