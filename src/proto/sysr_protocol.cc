#include "proto/sysr_protocol.h"

namespace codlock::proto {

using lock::LockMode;

Status SystemRDagProtocol::Lock(txn::Transaction& txn,
                                const LockTarget& target, LockMode mode) {
  if (mode == LockMode::kNL) {
    return Status::InvalidArgument("cannot request mode NL");
  }
  const lock::AcquireOptions opts = AcquireOpts(txn);
  const LockMode intention = lock::IntentionFor(mode);

  for (size_t i = 0; i + 1 < target.path.size(); ++i) {
    CODLOCK_RETURN_IF_ERROR(lm_->Acquire(txn.id(), target.path[i], intention,
                                         opts, &txn.locks()));
  }

  // GLPT76 rule 2: X/IX on a node requires *all* parents IX-locked.  For a
  // node inside common data the parents include every referencing ref BLU
  // in other complex objects, which must first be found by scanning.
  const bool exclusive =
      mode == LockMode::kX || mode == LockMode::kIX || mode == LockMode::kSIX;
  const logra::Node& node = graph_->node(target.target_node());
  const bool target_is_shared =
      node.relation != nf2::kInvalidRelation &&
      graph_->IsEntryPoint(graph_->ComplexObjectNode(node.relation));
  if (exclusive && target_is_shared &&
      options_.variant == Variant::kAllParents &&
      target.object != nf2::kInvalidObject) {
    CODLOCK_RETURN_IF_ERROR(
        LockAllParents(txn, target.relation, target.object));
  }

  return lm_->Acquire(txn.id(), target.path.back(), mode, opts,
                      &txn.locks());
}

Status SystemRDagProtocol::LockAllParents(txn::Transaction& txn,
                                          nf2::RelationId rel,
                                          nf2::ObjectId obj) {
  const lock::AcquireOptions opts = AcquireOpts(txn);
  uint64_t scanned = 0;
  std::vector<nf2::BackRefPath> parents =
      store_->FindReferencing(rel, obj, &scanned);
  lm_->stats().parent_searches.Add(scanned);

  const nf2::Catalog& catalog = store_->catalog();
  for (const nf2::BackRefPath& parent : parents) {
    const nf2::RelationDef& rdef = catalog.relation(parent.relation);
    CODLOCK_RETURN_IF_ERROR(lm_->Acquire(
        txn.id(),
        lock::ResourceId{graph_->DatabaseNode(rdef.database), 0},
        LockMode::kIX, opts, &txn.locks()));
    CODLOCK_RETURN_IF_ERROR(lm_->Acquire(
        txn.id(), lock::ResourceId{graph_->SegmentNode(rdef.segment), 0},
        LockMode::kIX, opts, &txn.locks()));
    CODLOCK_RETURN_IF_ERROR(lm_->Acquire(
        txn.id(), lock::ResourceId{graph_->RelationNode(parent.relation), 0},
        LockMode::kIX, opts, &txn.locks()));
    for (const auto& [attr, iid] : parent.chain) {
      CODLOCK_RETURN_IF_ERROR(lm_->Acquire(
          txn.id(), lock::ResourceId{graph_->NodeForAttr(attr), iid},
          LockMode::kIX, opts, &txn.locks()));
    }
  }
  return Status::OK();
}

Status SystemRDagProtocol::LockEntryPoint(txn::Transaction& txn,
                                          const LockTarget& ref_path,
                                          LockMode mode) {
  if (ref_path.value == nullptr || !ref_path.value->is_ref()) {
    return Status::InvalidArgument(
        "LockEntryPoint requires a ref BLU target");
  }
  const nf2::RefValue& ref = ref_path.value->as_ref();
  const lock::AcquireOptions opts = AcquireOpts(txn);
  logra::NodeId ep_node = graph_->ComplexObjectNode(ref.relation);

  Result<nf2::Iid> root_iid = store_->RootIid(ref.relation, ref.object);
  if (!root_iid.ok()) return root_iid.status();

  const bool exclusive =
      mode == LockMode::kX || mode == LockMode::kIX || mode == LockMode::kSIX;
  if (exclusive && options_.variant == Variant::kAllParents) {
    // All parents of the shared node must be IX-locked first — including
    // the relation chain of the shared relation itself.
    const nf2::Catalog& catalog = store_->catalog();
    const nf2::RelationDef& rdef = catalog.relation(ref.relation);
    CODLOCK_RETURN_IF_ERROR(lm_->Acquire(
        txn.id(), lock::ResourceId{graph_->DatabaseNode(rdef.database), 0},
        LockMode::kIX, opts, &txn.locks()));
    CODLOCK_RETURN_IF_ERROR(lm_->Acquire(
        txn.id(), lock::ResourceId{graph_->SegmentNode(rdef.segment), 0},
        LockMode::kIX, opts, &txn.locks()));
    CODLOCK_RETURN_IF_ERROR(lm_->Acquire(
        txn.id(), lock::ResourceId{graph_->RelationNode(ref.relation), 0},
        LockMode::kIX, opts, &txn.locks()));
    CODLOCK_RETURN_IF_ERROR(LockAllParents(txn, ref.relation, ref.object));
  }
  // kPathOnly (and the S side of kAllParents): the used path's ref BLU is
  // "a parent" and is already intention-locked — GLPT76 rule 1 is
  // satisfied with a single locked parent.
  return lm_->Acquire(txn.id(), lock::ResourceId{ep_node, *root_iid}, mode,
                      opts, &txn.locks());
}

}  // namespace codlock::proto
