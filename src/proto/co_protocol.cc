#include "proto/co_protocol.h"

#include <algorithm>
#include <array>
#include <span>

#include "util/mutation_points.h"

namespace codlock::proto {

using lock::LockMode;

Status ComplexObjectProtocol::Lock(txn::Transaction& txn,
                                   const LockTarget& target, LockMode mode) {
  if (mode == LockMode::kNL) {
    return Status::InvalidArgument("cannot request mode NL");
  }
  const lock::AcquireOptions opts = AcquireOpts(txn);

  // Rule 5: request root-to-leaf.  Rules 1–4 parent conditions: every
  // immediate parent along the path gets (at least) the matching intention
  // mode.  The root of the outer unit (database node) needs no prior locks.
  // AcquirePath batches the whole path — resources the transaction's held
  // rows already cover are hits, the rest are grouped per lock shard.
  CODLOCK_RETURN_IF_ERROR(
      lm_->AcquirePath(txn.id(), target.path, mode, opts, &txn.locks()));

  // Rules 3/4/4′: implicit downward propagation for S and X.  Skipped when
  // the query's semantics guarantee the referenced common data is not
  // accessed (§4.5), and — a schema-level test — when no ref BLU exists
  // below the target node at all: "In case of disjoint complex objects no
  // inner units exist.  So, for disjoint complex objects the above lock
  // protocol is identical to the traditional one" (§4.4.2.1).
  if ((mode == LockMode::kS || mode == LockMode::kX) &&
      target.access_implies_refs &&
      // Mutation point (kill-suite only): rules 3/4 dropped — locks on
      // common data are never propagated, recreating the §3.2.2 protocol
      // defect the visibility oracle exists to catch.
      !mutation::Enabled(mutation::Mutant::kSkipDownwardPropagation) &&
      !graph_->RefBlusUnder(target.target_node()).empty()) {
    Visited visited;
    if (target.value != nullptr) {
      // Re-resolve the value by its (stable) instance id: the caller
      // navigated *before* this lock was granted, and a structural change
      // by a conflicting transaction we just waited for may have moved —
      // or removed — the value node.  Now that the lock is held, no
      // further structural change can touch this subtree.
      Result<nf2::InstanceStore::IidInfo> fresh =
          store_->FindIid(target.target_iid());
      if (!fresh.ok()) {
        return Status::NotFound(
            "target vanished while waiting for its lock");
      }
      return PropagateDown(txn, *fresh->value, mode, &visited);
    }
    return PropagateDownFromSingleton(txn, target.target_node(), mode,
                                      &visited);
  }
  return Status::OK();
}

namespace {

/// Deterministic propagation order: every batch of references is entered
/// sorted by (relation DESCENDING, object), so any two transactions
/// acquire shared entry points in one global order — the invariant the
/// static acquisition-order analysis (`logra/prove`) verifies
/// schema-wide.  Descending relation id is a topological order of the
/// reference DAG (a Ref can only name an already-created relation, so
/// target id < source id): outer units are always entered before the
/// units they reference, matching the order of explicit root-to-leaf
/// traversals through reference chains.
void SortRefs(std::vector<nf2::RefValue>& refs) {
  std::sort(refs.begin(), refs.end(),
            [](const nf2::RefValue& a, const nf2::RefValue& b) {
              return a.relation != b.relation ? a.relation > b.relation
                                              : a.object < b.object;
            });
}

}  // namespace

Status ComplexObjectProtocol::PropagateDown(txn::Transaction& txn,
                                            const nf2::Value& v,
                                            LockMode mode, Visited* visited) {
  std::vector<nf2::RefValue> refs = nf2::InstanceStore::CollectRefs(v);
  SortRefs(refs);
  for (const nf2::RefValue& ref : refs) {
    CODLOCK_RETURN_IF_ERROR(LockEntryPointInternal(txn, ref, mode, visited));
  }
  return Status::OK();
}

Status ComplexObjectProtocol::PropagateDownFromSingleton(
    txn::Transaction& txn, logra::NodeId node, LockMode mode,
    Visited* visited) {
  const logra::Node& n = graph_->node(node);
  switch (n.level) {
    case logra::NodeLevel::kRelation: {
      // S/X on a relation covers every object: their referenced inner
      // units must become visible too.  The caller's singleton lock keeps
      // each object's ref adjacency stable, so the memo applies.  The
      // whole batch is sorted before entry — per-object order would let
      // two relation-level propagations interleave shared relations in
      // opposite orders.
      std::vector<nf2::RefValue> batch;
      for (nf2::ObjectId obj : store_->ObjectsOf(n.relation)) {
        Result<std::vector<nf2::RefValue>> refs =
            ObjectRefs(n.relation, obj);
        if (!refs.ok()) continue;  // concurrently erased
        batch.insert(batch.end(), refs->begin(), refs->end());
      }
      SortRefs(batch);
      for (const nf2::RefValue& ref : batch) {
        CODLOCK_RETURN_IF_ERROR(
            LockEntryPointInternal(txn, ref, mode, visited));
      }
      return Status::OK();
    }
    case logra::NodeLevel::kDatabase:
    case logra::NodeLevel::kSegment: {
      // Cover every relation in scope.  One batch across the whole scope:
      // per-relation batches would interleave with the iteration order and
      // break the single global (relation desc, object) entry order.
      const nf2::Catalog& catalog = store_->catalog();
      std::vector<nf2::RefValue> batch;
      for (nf2::RelationId rel = 0; rel < catalog.num_relations(); ++rel) {
        const nf2::RelationDef& rdef = catalog.relation(rel);
        if (n.level == logra::NodeLevel::kDatabase &&
            rdef.database != n.database) {
          continue;
        }
        if (n.level == logra::NodeLevel::kSegment &&
            rdef.segment != n.segment) {
          continue;
        }
        for (nf2::ObjectId obj : store_->ObjectsOf(rel)) {
          Result<std::vector<nf2::RefValue>> refs = ObjectRefs(rel, obj);
          if (!refs.ok()) continue;  // concurrently erased
          batch.insert(batch.end(), refs->begin(), refs->end());
        }
      }
      SortRefs(batch);
      for (const nf2::RefValue& ref : batch) {
        CODLOCK_RETURN_IF_ERROR(
            LockEntryPointInternal(txn, ref, mode, visited));
      }
      return Status::OK();
    }
    default:
      return Status::Internal(
          "singleton downward propagation from a value-level node");
  }
}

Status ComplexObjectProtocol::LockEntryPointInternal(txn::Transaction& txn,
                                                     const nf2::RefValue& ref,
                                                     LockMode mode,
                                                     Visited* visited) {
  if (!visited->insert(VisitKey(ref.relation, ref.object)).second) {
    return Status::OK();  // diamond sharing: already covered in this call
  }

  // Rule 4′: an X being propagated onto a non-modifiable inner unit is
  // weakened to S ("at least S lock all roots of lower (dependent)
  // non-modifiable inner units").
  LockMode ep_mode = mode;
  if (mode == LockMode::kX && options_.use_rule4_prime &&
      !authz_->CanModify(txn.user(), ref.relation)) {
    ep_mode = LockMode::kS;
  }

  const lock::AcquireOptions opts = AcquireOpts(txn);

  // Implicit upward propagation: the concurrency control manager locks all
  // immediate parents of the entry point up to the root of the superunit,
  // root first (never crossing a unit boundary upward), then the entry
  // point itself.  One batched AcquirePath covers the whole chain: the
  // prefix gets IntentionFor(ep_mode), the entry point ep_mode, and each
  // lock shard is visited at most once.
  logra::NodeId ep_node = graph_->ComplexObjectNode(ref.relation);
  Result<nf2::Iid> root_iid = store_->RootIid(ref.relation, ref.object);
  if (!root_iid.ok()) return root_iid.status();

  // The superunit chain (relation, segment, database), root first, then
  // the entry point.  An entry point is a relation's complex-object node,
  // so its chain has three nodes and the path fits a stack buffer.
  const std::vector<logra::NodeId>& chain = graph_->SuperunitChain(ep_node);
  std::array<lock::ResourceId, 4> path;
  if (chain.size() >= path.size()) {
    return Status::Internal("entry point is not directly under its relation");
  }
  size_t len = 0;
  // Mutation point (kill-suite only): rules 1/2 dropped — the entry point
  // is locked without its superunit chain, so a relation/segment-level
  // request no longer conflicts with the inner unit's use.
  if (!mutation::Enabled(mutation::Mutant::kSkipUpwardPropagation)) {
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      path[len++] = lock::ResourceId{*it, 0};
    }
  }
  path[len++] = lock::ResourceId{ep_node, *root_iid};
  CODLOCK_RETURN_IF_ERROR(
      lm_->AcquirePath(txn.id(), std::span(path.data(), len), ep_mode, opts,
                       &txn.locks()));
  lm_->stats().upward_propagations.Add(chain.size());
  lm_->stats().downward_propagations.Add();

  // Common data may again contain common data: recurse.  The scan over the
  // object's references happens while the data is read anyway (§4.4.2.1);
  // with the S/X on the entry point held, the object's ref adjacency is
  // stable and comes from the propagation memo.
  if (ep_mode == LockMode::kS || ep_mode == LockMode::kX) {
    Result<std::vector<nf2::RefValue>> refs =
        ObjectRefs(ref.relation, ref.object);
    if (!refs.ok()) return refs.status();
    for (const nf2::RefValue& r : *refs) {
      CODLOCK_RETURN_IF_ERROR(
          LockEntryPointInternal(txn, r, ep_mode, visited));
    }
  }
  return Status::OK();
}

Result<std::vector<nf2::RefValue>> ComplexObjectProtocol::ObjectRefs(
    nf2::RelationId rel, nf2::ObjectId obj) {
  const uint64_t key = VisitKey(rel, obj);
  const uint64_t before = store_->mutation_epoch();
  {
    ReaderLock lk(memo_mu_);
    if (memo_epoch_ == before) {
      auto it = refs_memo_.find(key);
      if (it != refs_memo_.end()) return it->second;
    }
  }
  Result<const nf2::Object*> o = store_->Get(rel, obj);
  if (!o.ok()) return o.status();
  std::vector<nf2::RefValue> refs =
      nf2::InstanceStore::CollectRefs((*o)->root);
  SortRefs(refs);
  const uint64_t after = store_->mutation_epoch();
  WriterLock lk(memo_mu_);
  if (memo_epoch_ != after) {
    refs_memo_.clear();
    memo_epoch_ = after;
  }
  // Cache only walks no mutator overlapped: the caller's covering S/X lock
  // rules out writers of *this* object, but an unrelated mutation mid-walk
  // would leave the fill attributable to neither epoch.
  if (before == after) refs_memo_[key] = refs;
  return refs;
}

Status ComplexObjectProtocol::LockNewValueRefs(txn::Transaction& txn,
                                               const nf2::Value& v,
                                               LockMode mode) {
  if (mode != LockMode::kS && mode != LockMode::kX) {
    return Status::InvalidArgument("LockNewValueRefs requires S or X");
  }
  Visited visited;
  return PropagateDown(txn, v, mode, &visited);
}

Status ComplexObjectProtocol::Deescalate(txn::Transaction& txn,
                                         const LockTarget& coarse,
                                         const std::vector<size_t>& keep_indices) {
  if (coarse.value == nullptr || !coarse.value->is_collection()) {
    return Status::InvalidArgument(
        "de-escalation target must be a collection HoLU");
  }
  const lock::ResourceId res = coarse.path.back();
  const LockMode held = lm_->HeldMode(txn.id(), res);
  if (held != LockMode::kS && held != LockMode::kX) {
    return Status::FailedPrecondition(
        "de-escalation requires the collection to be held S or X (holds " +
        std::string(lock::LockModeName(held)) + ")");
  }
  // The element node is the collection node's single solid child.
  const logra::Node& coll_node = graph_->node(coarse.target_node());
  if (coll_node.solid_children.size() != 1) {
    return Status::Internal("collection HoLU must have one element node");
  }
  logra::NodeId elem_node = coll_node.solid_children[0];

  // Lock the kept elements individually first (never a window in which
  // they are unprotected), then downgrade the coarse lock.
  const lock::AcquireOptions opts = AcquireOpts(txn);
  const std::vector<nf2::Value>& elems = coarse.value->children();
  for (size_t idx : keep_indices) {
    if (idx >= elems.size()) {
      return Status::InvalidArgument("keep index " + std::to_string(idx) +
                                     " out of range");
    }
    CODLOCK_RETURN_IF_ERROR(
        lm_->Acquire(txn.id(), lock::ResourceId{elem_node, elems[idx].iid()},
                     held, opts, &txn.locks()));
  }
  CODLOCK_RETURN_IF_ERROR(lm_->Downgrade(txn.id(), res,
                                         lock::IntentionFor(held),
                                         &txn.locks()));
  lm_->stats().deescalations.Add();
  return Status::OK();
}

Status ComplexObjectProtocol::LockEntryPoint(txn::Transaction& txn,
                                             const LockTarget& ref_path,
                                             LockMode mode) {
  if (ref_path.value == nullptr || !ref_path.value->is_ref()) {
    return Status::InvalidArgument(
        "LockEntryPoint requires a ref BLU target");
  }
  // Rule precondition: "the node which references that entry point must be
  // (at least) IS/IX locked by the transaction".
  const LockMode needed = lock::IntentionFor(mode) == LockMode::kIX
                              ? LockMode::kIX
                              : LockMode::kIS;
  LockMode effective = EffectiveModeOnPath(*lm_, txn.id(), ref_path);
  if (!lock::Covers(effective, needed)) {
    return Status::FailedPrecondition(
        "referencing node holds " +
        std::string(lock::LockModeName(effective)) + ", needs >= " +
        std::string(lock::LockModeName(needed)));
  }
  Visited visited;
  return LockEntryPointInternal(txn, ref_path.value->as_ref(), mode,
                                &visited);
}

}  // namespace codlock::proto
