#include "proto/protocol.h"

namespace codlock::proto {

LockTarget MakeTarget(const logra::LockGraph& graph,
                      const nf2::Catalog& catalog,
                      const nf2::ResolvedPath& resolved) {
  LockTarget t;
  const nf2::RelationDef& rdef = catalog.relation(resolved.relation);
  t.relation = resolved.relation;
  t.object = resolved.object;
  t.path.push_back({graph.DatabaseNode(rdef.database), 0});
  t.path.push_back({graph.SegmentNode(rdef.segment), 0});
  t.path.push_back({graph.RelationNode(resolved.relation), 0});
  for (const nf2::ResolvedStep& step : resolved.steps) {
    // Use the latched-captured iid: step.value may already dangle if a
    // structural writer intervened after navigation (see ResolvedStep).
    t.path.push_back({graph.NodeForAttr(step.attr), step.iid});
  }
  t.value = resolved.target();
  return t;
}

LockTarget MakeSingletonTarget(const logra::LockGraph& graph,
                               logra::NodeId node) {
  LockTarget t;
  const std::vector<logra::NodeId>& chain = graph.SuperunitChain(node);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    t.path.push_back({*it, 0});
  }
  t.path.push_back({node, 0});
  const logra::Node& n = graph.node(node);
  if (n.level == logra::NodeLevel::kRelation) t.relation = n.relation;
  return t;
}

Result<LockTarget> MakeObjectTarget(const logra::LockGraph& graph,
                                    const nf2::Catalog& catalog,
                                    const nf2::InstanceStore& store,
                                    nf2::RelationId rel, nf2::ObjectId obj) {
  Result<nf2::ResolvedPath> resolved = store.Navigate(rel, obj, {});
  if (!resolved.ok()) return resolved.status();
  return MakeTarget(graph, catalog, *resolved);
}

LockMode EffectiveModeOnPath(const lock::LockManager& lm, lock::TxnId txn,
                             const LockTarget& path) {
  using lock::LockMode;
  LockMode inherited = LockMode::kNL;
  LockMode effective = LockMode::kNL;
  for (const lock::ResourceId& res : path.path) {
    LockMode explicit_mode = lm.HeldMode(txn, res);
    effective = lock::Supremum(explicit_mode, inherited);
    // S/SIX cover descendants in S; X covers them in X.
    switch (effective) {
      case LockMode::kX:
        inherited = LockMode::kX;
        break;
      case LockMode::kS:
      case LockMode::kSIX:
        inherited = lock::Supremum(inherited, LockMode::kS);
        break;
      default:
        break;
    }
  }
  return effective;
}

}  // namespace codlock::proto
