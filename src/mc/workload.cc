#include "mc/workload.h"

#include <cassert>
#include <utility>

namespace codlock::mc {

using lock::LockMode;

WorkloadSpec SharedEffectorWorkload() {
  WorkloadSpec w;
  w.name = "shared-effector";
  // Q2 and Q3 of Figure 7: X on robots r1/r2, implicit S on the shared
  // effector e2 via rule 4′ (neither may modify "effectors").
  TxnSpec q2;
  q2.user = 2;
  q2.ops = {OpSpec::LockRobot("r1", LockMode::kX), OpSpec::Commit()};
  TxnSpec q3;
  q3.user = 3;
  q3.ops = {OpSpec::LockRobot("r2", LockMode::kX), OpSpec::Commit()};
  w.txns = {std::move(q2), std::move(q3)};
  return w;
}

WorkloadSpec SideEntryWorkload() {
  WorkloadSpec w;
  w.name = "side-entry";
  // T1: robot writer — rule 4′ leaves implicit S on e1/e2.
  TxnSpec t1;
  t1.user = 2;
  t1.ops = {OpSpec::LockRobot("r1", LockMode::kX), OpSpec::Commit()};
  // T2: from-the-side writer of the shared effector e2 (explicit X on the
  // inner unit's entry point) — conflicts with T1's implicit S.
  TxnSpec t2;
  t2.user = 4;
  t2.can_modify_effectors = true;
  t2.ops = {OpSpec::LockEffector("e2", LockMode::kX), OpSpec::Commit()};
  // T3: relation-level writer — X on "effectors".  Only the IS/IX that
  // *upward propagation* put on the relation makes T1's and T2's inner-
  // unit locks visible to this request; skipping that propagation is
  // exactly the invisible-implicit-lock failure of §3.2.2.
  TxnSpec t3;
  t3.user = 5;
  t3.can_modify_effectors = true;
  t3.ops = {OpSpec::LockRelation(LockMode::kX), OpSpec::Commit()};
  w.txns = {std::move(t1), std::move(t2), std::move(t3)};
  return w;
}

WorkloadSpec CrossDeadlockWorkload() {
  WorkloadSpec w;
  w.name = "cross-deadlock";
  TxnSpec t1;
  t1.user = 2;
  t1.ops = {OpSpec::LockRobot("r1", LockMode::kX),
            OpSpec::LockRobot("r2", LockMode::kX), OpSpec::Commit()};
  TxnSpec t2;
  t2.user = 3;
  t2.ops = {OpSpec::LockRobot("r2", LockMode::kX),
            OpSpec::LockRobot("r1", LockMode::kX), OpSpec::Commit()};
  w.txns = {std::move(t1), std::move(t2)};
  return w;
}

std::vector<WorkloadSpec> AllWorkloads() {
  return {SharedEffectorWorkload(), SideEntryWorkload(),
          CrossDeadlockWorkload()};
}

WorkloadRun::WorkloadRun(const WorkloadSpec& spec, const RunOptions& opts)
    : spec_(spec),
      opts_(opts),
      fixture_(sim::BuildFigure7Instance()),
      graph_(logra::LockGraph::Build(*fixture_.catalog)),
      lm_([&] {
        lock::LockManager::Options o;
        o.num_shards = 4;  // tiny fixture; fewer shards, denser conflicts
        o.deadlock_policy = opts.policy;
        return o;
      }()),
      tm_(&lm_) {
  proto::ComplexObjectProtocol::Options po;
  po.use_rule4_prime = opts.use_rule4_prime;
  proto_ = std::make_unique<proto::ComplexObjectProtocol>(
      &graph_, fixture_.store.get(), &lm_, &authz_, po);
  // Begin every transaction up front so ids (= ages, for wound-wait and
  // wait-die) are fixed by script position, independent of the schedule.
  for (const TxnSpec& t : spec_.txns) {
    if (t.can_modify_cells) {
      Status s = authz_.Grant(t.user, fixture_.cells, authz::Right::kModify);
      assert(s.ok());
      (void)s;
    }
    if (t.can_modify_effectors) {
      Status s =
          authz_.Grant(t.user, fixture_.effectors, authz::Right::kModify);
      assert(s.ok());
      (void)s;
    }
    txns_.push_back(tm_.Begin(t.user));
    outcomes_.push_back(TxnOutcome::kRunning);
  }
}

Result<proto::LockTarget> WorkloadRun::TargetFor(const OpSpec& op) {
  const nf2::InstanceStore& store = *fixture_.store;
  switch (op.kind) {
    case OpSpec::Kind::kLockRobot: {
      Result<const nf2::Object*> c1 = store.FindByKey(fixture_.cells, "c1");
      if (!c1.ok()) return c1.status();
      Result<nf2::ResolvedPath> rp = store.Navigate(
          fixture_.cells, (*c1)->id, {nf2::PathStep::Elem("robots", op.key)});
      if (!rp.ok()) return rp.status();
      return proto::MakeTarget(graph_, *fixture_.catalog, *rp);
    }
    case OpSpec::Kind::kLockEffector: {
      Result<const nf2::Object*> e = store.FindByKey(fixture_.effectors, op.key);
      if (!e.ok()) return e.status();
      return proto::MakeObjectTarget(graph_, *fixture_.catalog, store,
                                     fixture_.effectors, (*e)->id);
    }
    case OpSpec::Kind::kLockRelation:
      return proto::MakeSingletonTarget(
          graph_, graph_.RelationNode(fixture_.effectors));
    case OpSpec::Kind::kCommit:
      break;
  }
  return Status::InvalidArgument("op has no lock target");
}

bool WorkloadRun::ExecOp(int i, const OpSpec& op) {
  txn::Transaction* txn = txns_[i];
  if (op.kind == OpSpec::Kind::kCommit) {
    Status s = tm_.Commit(txn);
    outcomes_[i] = s.ok() ? TxnOutcome::kCommitted : TxnOutcome::kAborted;
    return false;
  }
  Result<proto::LockTarget> target = TargetFor(op);
  assert(target.ok());
  Status s = proto_->Lock(*txn, *target, op.mode);
  if (!s.ok()) {
    // Deadlock victim, wound, or injected timeout: strict 2PL abort.
    (void)tm_.Abort(txn);
    outcomes_[i] = TxnOutcome::kAborted;
    return false;
  }
  proto::HistoryOp h;
  h.txn = txn->id();
  h.cov = proto::ExpandLockCoverage(graph_, *fixture_.store,
                                    target->path.back(), op.mode);
  {
    std::lock_guard<std::mutex> lk(history_mu_);
    history_.push_back(std::move(h));
  }
  return true;
}

void WorkloadRun::RunTxn(int i, const std::function<void()>& yield) {
  const TxnSpec& t = spec_.txns[i];
  for (size_t k = 0; k < t.ops.size(); ++k) {
    if (k > 0) yield();
    if (!ExecOp(i, t.ops[k])) break;
  }
  if (outcomes_[i] == TxnOutcome::kRunning) {
    (void)tm_.Abort(txns_[i]);
    outcomes_[i] = TxnOutcome::kAborted;
  }
}

std::vector<std::function<void()>> WorkloadRun::MakeBodies(
    std::function<void()> yield) {
  std::vector<std::function<void()>> bodies;
  bodies.reserve(txns_.size());
  for (int i = 0; i < num_txns(); ++i) {
    bodies.push_back([this, i, yield] { RunTxn(i, yield); });
  }
  return bodies;
}

std::unordered_set<lock::TxnId> WorkloadRun::CommittedIds() const {
  std::unordered_set<lock::TxnId> out;
  for (size_t i = 0; i < txns_.size(); ++i) {
    if (outcomes_[i] == TxnOutcome::kCommitted) out.insert(txns_[i]->id());
  }
  return out;
}

std::vector<proto::HistoryOp> WorkloadRun::History() const {
  std::lock_guard<std::mutex> lk(history_mu_);
  return history_;
}

}  // namespace codlock::mc
