#include "query/executor.h"

#include <cmath>

namespace codlock::query {

Result<nf2::Iid> QueryExecutor::ExecuteInsert(txn::Transaction& txn,
                                              nf2::RelationId relation,
                                              const std::string& object_key,
                                              const nf2::Path& coll_path,
                                              nf2::Value elem) {
  Result<const nf2::Object*> obj = store_->FindByKey(relation, object_key);
  if (!obj.ok()) return obj.status();
  Result<nf2::ResolvedPath> resolved =
      store_->Navigate(relation, (*obj)->id, coll_path);
  if (!resolved.ok()) return resolved.status();
  // Schema-level check: never dereference pre-lock value pointers.
  if (!nf2::IsCollection(catalog_->attr(resolved->target_attr()).kind)) {
    return Status::InvalidArgument("insert target is not a collection");
  }
  proto::LockTarget target = proto::MakeTarget(*graph_, *catalog_, *resolved);
  // The insert does not read the existing elements' common data — only
  // the new element's references are locked below.
  target.access_implies_refs = false;
  CODLOCK_RETURN_IF_ERROR(protocol_->Lock(txn, target, lock::LockMode::kX));
  CODLOCK_RETURN_IF_ERROR(
      protocol_->LockNewValueRefs(txn, elem, lock::LockMode::kX));
  // Extract the element's key for the undo record before the move.
  std::string elem_key;
  Result<nf2::AttrId> elem_attr = catalog_->ElementAttr(resolved->target_attr());
  if (elem_attr.ok() && elem.is_tuple()) {
    const nf2::AttrDef& edef = catalog_->attr(*elem_attr);
    for (size_t i = 0; i < edef.children.size(); ++i) {
      if (catalog_->attr(edef.children[i]).is_key &&
          elem.children()[i].kind() == nf2::AttrKind::kString) {
        elem_key = elem.children()[i].as_string();
        break;
      }
    }
  }
  Result<nf2::Iid> inserted =
      store_->AddElement(relation, (*obj)->id, coll_path, std::move(elem));
  if (inserted.ok() && options_.undo != nullptr && !elem_key.empty()) {
    options_.undo->RecordInsert(txn.id(), relation, (*obj)->id, coll_path,
                                elem_key);
  }
  return inserted;
}

Status QueryExecutor::ExecuteErase(txn::Transaction& txn,
                                   nf2::RelationId relation,
                                   const std::string& object_key,
                                   const nf2::Path& coll_path,
                                   const std::string& elem_key) {
  Result<const nf2::Object*> obj = store_->FindByKey(relation, object_key);
  if (!obj.ok()) return obj.status();
  Result<nf2::ResolvedPath> resolved =
      store_->Navigate(relation, (*obj)->id, coll_path);
  if (!resolved.ok()) return resolved.status();
  if (!nf2::IsCollection(catalog_->attr(resolved->target_attr()).kind)) {
    return Status::InvalidArgument("erase target is not a collection");
  }
  proto::LockTarget target = proto::MakeTarget(*graph_, *catalog_, *resolved);
  // §4.5: the deleted element's referenced common data is not accessed.
  target.access_implies_refs = false;
  CODLOCK_RETURN_IF_ERROR(protocol_->Lock(txn, target, lock::LockMode::kX));
  if (options_.undo != nullptr) {
    // Before-image for rollback: copy the element prior to removal.
    nf2::Path epath = coll_path;
    if (!epath.empty()) {
      epath.back().elem_key = elem_key;
    }
    Result<nf2::ResolvedPath> before =
        store_->Navigate(relation, (*obj)->id, epath);
    if (before.ok()) {
      options_.undo->RecordRemove(txn.id(), relation, (*obj)->id, coll_path,
                                  *before->target());
    }
  }
  return store_->RemoveElement(relation, (*obj)->id, coll_path, elem_key);
}

Result<QueryResult> QueryExecutor::Execute(txn::Transaction& txn,
                                           const Query& query,
                                           const QueryPlan& plan) {
  QueryResult result;
  if (!query.object_key.empty()) {
    Result<const nf2::Object*> obj =
        store_->FindByKey(query.relation, query.object_key);
    if (!obj.ok()) return obj.status();
    CODLOCK_RETURN_IF_ERROR(
        ExecuteOnObject(txn, query, plan, (*obj)->id, &result));
  } else {
    for (nf2::ObjectId obj : store_->ObjectsOf(query.relation)) {
      CODLOCK_RETURN_IF_ERROR(
          ExecuteOnObject(txn, query, plan, obj, &result));
    }
  }
  return result;
}

Status QueryExecutor::ExecuteOnObject(txn::Transaction& txn,
                                      const Query& query,
                                      const QueryPlan& plan,
                                      nf2::ObjectId obj,
                                      QueryResult* result) {
  Result<nf2::ResolvedPath> resolved =
      store_->Navigate(query.relation, obj, plan.lock_path);
  if (!resolved.ok()) return resolved.status();
  ++result->objects_visited;

  const bool write = query.is_write();
  proto::LockTarget target = proto::MakeTarget(*graph_, *catalog_, *resolved);
  target.access_implies_refs = plan.access_implies_refs;

  // NOTE on pointer stability: navigation above ran *before* any locks
  // were taken, so a conflicting structural update we wait for during
  // lock acquisition may relocate (or remove) the resolved value nodes.
  // Instance ids are stable, so after the locks are granted we re-resolve
  // the target through the store's iid index; from that point structural
  // changes are excluded by the held locks (inserts/erases need X on the
  // covering collection, incompatible with our IS/IX/S/X).
  auto refresh = [&](const nf2::Value** out) -> Status {
    Result<nf2::InstanceStore::IidInfo> fresh =
        store_->FindIid(target.target_iid());
    if (!fresh.ok()) {
      return Status::NotFound("target vanished while waiting for its lock");
    }
    *out = fresh->value;
    return Status::OK();
  };

  if (!plan.per_element) {
    CODLOCK_RETURN_IF_ERROR(protocol_->Lock(txn, target, plan.target_mode));
    ++result->target_locks;
    const nf2::Value* value = nullptr;
    CODLOCK_RETURN_IF_ERROR(refresh(&value));
    // The lock may cover more than the query touches (anticipated
    // escalation): the access itself still only visits the selected slice
    // of a collection target.
    if (value->is_collection() && query.selectivity < 1.0) {
      const auto& elems = value->children();
      const size_t k = std::min(
          elems.size(),
          static_cast<size_t>(std::ceil(
              query.selectivity * static_cast<double>(elems.size()))));
      ++result->values_read;  // the collection node itself
      for (size_t i = 0; i < k; ++i) {
        Touch(txn, elems[i], write, plan.access_implies_refs, result);
      }
    } else {
      Touch(txn, *value, write, plan.access_implies_refs, result);
    }
    return Status::OK();
  }

  // Per-element locking: intention on the collection, then the touched
  // elements individually.
  CODLOCK_RETURN_IF_ERROR(protocol_->Lock(
      txn, target, lock::IntentionFor(plan.target_mode)));

  const nf2::Value* coll_ptr = nullptr;
  CODLOCK_RETURN_IF_ERROR(refresh(&coll_ptr));
  const nf2::Value& coll = *coll_ptr;
  if (!coll.is_collection()) {
    return Status::Internal("per-element plan on a non-collection target");
  }
  Result<nf2::AttrId> elem_attr =
      catalog_->ElementAttr(resolved->target_attr());
  if (!elem_attr.ok()) return elem_attr.status();
  logra::NodeId elem_node = graph_->NodeForAttr(*elem_attr);

  const size_t n = coll.children().size();
  const size_t k = std::min(
      n, static_cast<size_t>(std::ceil(query.selectivity *
                                       static_cast<double>(n))));
  for (size_t i = 0; i < k; ++i) {
    const nf2::Value& elem = coll.children()[i];
    if (options_.runtime_escalation_threshold > 0 &&
        i >= options_.runtime_escalation_threshold) {
      // Run-time escalation: trade the element locks taken so far for one
      // coarse lock on the collection — a mid-flight upgrade (IX → S/X on
      // the HoLU) that can deadlock against a peer doing the same.  This
      // is exactly what anticipated escalation (§4.5) avoids.
      CODLOCK_RETURN_IF_ERROR(
          protocol_->Lock(txn, target, plan.target_mode));
      if (stats_ != nullptr) stats_->escalations.Add();
      ++result->target_locks;
      for (size_t j = i; j < k; ++j) {
        Touch(txn, coll.children()[j], write, plan.access_implies_refs,
              result);
      }
      return Status::OK();
    }
    proto::LockTarget elem_target = target;
    elem_target.path.push_back({elem_node, elem.iid()});
    elem_target.value = &elem;
    CODLOCK_RETURN_IF_ERROR(
        protocol_->Lock(txn, elem_target, plan.target_mode));
    ++result->target_locks;
    Touch(txn, elem, write, plan.access_implies_refs, result);
  }
  return Status::OK();
}

void QueryExecutor::Touch(txn::Transaction& txn, const nf2::Value& v,
                          bool write, bool follow_refs,
                          QueryResult* result) {
  ++result->values_read;
  if (write) ++result->values_written;
  if (v.is_ref()) {
    if (!follow_refs) return;
    Result<const nf2::Object*> obj = store_->Deref(v.as_ref());
    if (obj.ok()) {
      // Referenced common data is read-only for this access unless the
      // transaction explicitly X-locked it; reads only here.
      Touch(txn, (*obj)->root, /*write=*/false, follow_refs, result);
    }
    return;
  }
  if (v.is_atomic()) {
    if (write && options_.apply_writes && v.kind() == nf2::AttrKind::kInt) {
      // Safe under a sound protocol: the covering X lock grants exclusive
      // access to this leaf.  (Integration tests use this to demonstrate
      // mutual exclusion; the value is owned by the store.)
      auto* mutable_v = const_cast<nf2::Value*>(&v);
      if (options_.undo != nullptr) {
        options_.undo->RecordIntUpdate(txn.id(), v.iid(), v.as_int());
      }
      mutable_v->set_int(mutable_v->as_int() + 1);
    }
    return;
  }
  for (const nf2::Value& child : v.children()) {
    Touch(txn, child, write, follow_refs, result);
  }
}

}  // namespace codlock::query
