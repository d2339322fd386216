#include "nf2/store.h"

#include <cassert>

namespace codlock::nf2 {

InstanceStore::RelationStore& InstanceStore::StoreFor(RelationId rel) const {
  {
    ReaderLock lk(stores_mu_);
    auto it = stores_.find(rel);
    if (it != stores_.end()) return *it->second;
  }
  WriterLock lk(stores_mu_);
  auto& slot = stores_[rel];
  if (!slot) slot = std::make_unique<RelationStore>();
  return *slot;
}

void InstanceStore::AssignIids(Value* v) {
  const Iid iid = next_iid_.fetch_add(1, std::memory_order_relaxed);
  // Bit 63 is the lock manager's lane tag (lock/resource.h).
  assert(iid < (Iid{1} << 63));
  v->set_iid(iid);
  if (!v->is_atomic() && !v->is_ref()) {
    for (Value& child : v->children()) AssignIids(&child);
  }
}

Result<ObjectId> InstanceStore::Insert(RelationId rel, Value root) {
  BumpMutationEpoch();
  if (rel >= catalog_->num_relations()) {
    return Status::NotFound("unknown relation id");
  }
  const RelationDef& def = catalog_->relation(rel);
  CODLOCK_RETURN_IF_ERROR(root.Validate(*catalog_, def.root));

  auto obj = std::make_unique<Object>();
  obj->relation = rel;
  obj->id = next_object_.fetch_add(1, std::memory_order_relaxed);
  obj->root = std::move(root);
  AssignIids(&obj->root);

  // Extract the key value (first key attribute among root fields).
  if (def.key_attr != kInvalidAttr) {
    const AttrDef& root_def = catalog_->attr(def.root);
    for (size_t i = 0; i < root_def.children.size(); ++i) {
      if (root_def.children[i] == def.key_attr) {
        const Value& kv = obj->root.children()[i];
        if (kv.kind() == AttrKind::kString) {
          obj->key = kv.as_string();
        } else if (kv.kind() == AttrKind::kInt) {
          obj->key = std::to_string(kv.as_int());
        }
        break;
      }
    }
  }

  RelationStore& rs = StoreFor(rel);
  WriterLock lk(rs.mu);
  if (!obj->key.empty()) {
    auto [it, inserted] = rs.by_key.try_emplace(obj->key, obj->id);
    if (!inserted) {
      return Status::AlreadyExists("relation '" + def.name +
                                   "' already contains key '" + obj->key +
                                   "'");
    }
  }
  ObjectId id = obj->id;
  const Value& root_ref = obj->root;
  rs.objects.emplace(id, std::move(obj));
  IndexIids(root_ref, rel, id);
  return id;
}

void InstanceStore::IndexIids(const Value& v, RelationId rel, ObjectId obj) {
  WriterLock lk(iid_mu_);
  std::vector<const Value*> work{&v};
  while (!work.empty()) {
    const Value* cur = work.back();
    work.pop_back();
    iid_index_[cur->iid()] = IidInfo{rel, obj, cur};
    if (!cur->is_atomic() && !cur->is_ref()) {
      for (const Value& child : cur->children()) work.push_back(&child);
    }
  }
}

void InstanceStore::UnindexIids(const Value& v) {
  WriterLock lk(iid_mu_);
  std::vector<const Value*> work{&v};
  while (!work.empty()) {
    const Value* cur = work.back();
    work.pop_back();
    iid_index_.erase(cur->iid());
    if (!cur->is_atomic() && !cur->is_ref()) {
      for (const Value& child : cur->children()) work.push_back(&child);
    }
  }
}

Result<InstanceStore::IidInfo> InstanceStore::FindIid(Iid iid) const {
  ReaderLock lk(iid_mu_);
  auto it = iid_index_.find(iid);
  if (it == iid_index_.end()) {
    return Status::NotFound("instance id " + std::to_string(iid) +
                            " is not indexed");
  }
  return it->second;
}

Status InstanceStore::Erase(RelationId rel, ObjectId id) {
  BumpMutationEpoch();
  RelationStore& rs = StoreFor(rel);
  WriterLock lk(rs.mu);
  auto it = rs.objects.find(id);
  if (it == rs.objects.end()) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not found in relation " + std::to_string(rel));
  }
  if (!it->second->key.empty()) rs.by_key.erase(it->second->key);
  UnindexIids(it->second->root);
  rs.objects.erase(it);
  return Status::OK();
}

Result<const Object*> InstanceStore::Get(RelationId rel, ObjectId id) const {
  RelationStore& rs = StoreFor(rel);
  ReaderLock lk(rs.mu);
  auto it = rs.objects.find(id);
  if (it == rs.objects.end()) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not found in relation " + std::to_string(rel));
  }
  return const_cast<const Object*>(it->second.get());
}

Result<const Object*> InstanceStore::FindByKey(RelationId rel,
                                               const std::string& key) const {
  RelationStore& rs = StoreFor(rel);
  ReaderLock lk(rs.mu);
  auto it = rs.by_key.find(key);
  if (it == rs.by_key.end()) {
    return Status::NotFound("key '" + key + "' not found in relation " +
                            std::to_string(rel));
  }
  return const_cast<const Object*>(rs.objects.at(it->second).get());
}

namespace {

/// Finds the element of collection \p coll whose key attribute equals
/// \p key; returns nullptr if absent.  \p elem_def must be the collection's
/// element attribute (a tuple with a key field, per the Fig. 1 idiom).
const Value* FindElemByKey(const Catalog& catalog, const AttrDef& elem_def,
                           const Value& coll, const std::string& key) {
  // Locate the key field index within the element tuple.
  if (elem_def.kind != AttrKind::kTuple) return nullptr;
  size_t key_idx = elem_def.children.size();
  for (size_t i = 0; i < elem_def.children.size(); ++i) {
    if (catalog.attr(elem_def.children[i]).is_key) {
      key_idx = i;
      break;
    }
  }
  if (key_idx == elem_def.children.size()) return nullptr;
  for (const Value& elem : coll.children()) {
    const Value& kv = elem.children()[key_idx];
    if (kv.kind() == AttrKind::kString && kv.as_string() == key) return &elem;
    if (kv.kind() == AttrKind::kInt && std::to_string(kv.as_int()) == key) {
      return &elem;
    }
  }
  return nullptr;
}

}  // namespace

Result<ResolvedPath> InstanceStore::Navigate(RelationId rel, ObjectId id,
                                             const Path& path) const {
  // Structure latch (action-oriented, [BaSc77]): navigation reads the
  // value tree, which a concurrent structural update (AddElement/
  // RemoveElement under the exclusive latch) may relocate.  Callers that
  // dereference the returned pointers after blocking on transaction locks
  // must re-resolve through FindIid (see query::QueryExecutor).
  RelationStore& rs = StoreFor(rel);
  ReaderLock latch(rs.mu);
  return NavigateLocked(rs, rel, id, path);
}

Result<ResolvedPath> InstanceStore::NavigateLocked(const RelationStore& rs,
                                                   RelationId rel,
                                                   ObjectId id,
                                                   const Path& path) const {
  auto oit = rs.objects.find(id);
  if (oit == rs.objects.end()) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not found in relation " + std::to_string(rel));
  }
  Result<const Object*> obj(const_cast<const Object*>(oit->second.get()));

  ResolvedPath out;
  out.relation = rel;
  out.object = id;
  AttrId cur_attr = catalog_->relation(rel).root;
  const Value* cur = &(*obj)->root;
  out.steps.push_back({cur_attr, cur, cur->iid()});

  for (const PathStep& step : path) {
    const AttrDef& cur_def = catalog_->attr(cur_attr);
    if (cur_def.kind != AttrKind::kTuple) {
      return Status::InvalidArgument(
          "path step '" + step.attr_name + "' applied to non-tuple node '" +
          catalog_->AttrPath(cur_attr) + "'");
    }
    Result<AttrId> field = catalog_->FindField(cur_attr, step.attr_name);
    if (!field.ok()) return field.status();
    // Locate the field's position to descend in the value tree.
    size_t idx = 0;
    for (; idx < cur_def.children.size(); ++idx) {
      if (cur_def.children[idx] == *field) break;
    }
    cur_attr = *field;
    cur = &cur->children()[idx];
    out.steps.push_back({cur_attr, cur, cur->iid()});

    if (step.selects_element()) {
      const AttrDef& field_def = catalog_->attr(cur_attr);
      if (!IsCollection(field_def.kind)) {
        return Status::InvalidArgument("element selection on non-collection '" +
                                       catalog_->AttrPath(cur_attr) + "'");
      }
      AttrId elem_attr = field_def.children[0];
      const Value* elem = nullptr;
      if (!step.elem_key.empty()) {
        elem = FindElemByKey(*catalog_, catalog_->attr(elem_attr), *cur,
                             step.elem_key);
        if (elem == nullptr) {
          return Status::NotFound("no element with key '" + step.elem_key +
                                  "' in '" + catalog_->AttrPath(cur_attr) +
                                  "'");
        }
      } else {
        if (step.index < 0 ||
            static_cast<size_t>(step.index) >= cur->children().size()) {
          return Status::NotFound("index " + std::to_string(step.index) +
                                  " out of range in '" +
                                  catalog_->AttrPath(cur_attr) + "'");
        }
        elem = &cur->children()[static_cast<size_t>(step.index)];
      }
      cur_attr = elem_attr;
      cur = elem;
      out.steps.push_back({cur_attr, cur, cur->iid()});
    }
  }
  return out;
}

Result<const Object*> InstanceStore::Deref(const RefValue& ref) const {
  return Get(ref.relation, ref.object);
}

Result<Iid> InstanceStore::AddElement(RelationId rel, ObjectId id,
                                      const Path& coll_path, Value elem) {
  BumpMutationEpoch();
  // Exclusive structure latch: relocating the element buffer must not
  // race with concurrent navigation (shared latch holders).
  RelationStore& rs = StoreFor(rel);
  WriterLock latch(rs.mu);
  Result<ResolvedPath> rp = NavigateLocked(rs, rel, id, coll_path);
  if (!rp.ok()) return rp.status();
  const AttrDef& coll_def = catalog_->attr(rp->target_attr());
  if (!IsCollection(coll_def.kind)) {
    return Status::InvalidArgument("AddElement target '" +
                                   catalog_->AttrPath(rp->target_attr()) +
                                   "' is not a set or list");
  }
  AttrId elem_attr = coll_def.children[0];
  CODLOCK_RETURN_IF_ERROR(elem.Validate(*catalog_, elem_attr));

  // Reject duplicate keys within the collection (Fig. 1's "_id" idiom).
  const AttrDef& elem_def = catalog_->attr(elem_attr);
  if (elem_def.kind == AttrKind::kTuple) {
    for (size_t i = 0; i < elem_def.children.size(); ++i) {
      if (!catalog_->attr(elem_def.children[i]).is_key) continue;
      const Value& kv = elem.children()[i];
      if (kv.kind() == AttrKind::kString &&
          FindElemByKey(*catalog_, elem_def, *rp->target(), kv.as_string()) !=
              nullptr) {
        return Status::AlreadyExists("collection already contains key '" +
                                     kv.as_string() + "'");
      }
      break;
    }
  }

  // Mutation is legal here: the store owns the value tree and the caller
  // holds an exclusive lock on the collection.
  auto* coll = const_cast<Value*>(rp->target());
  AssignIids(&elem);
  Iid new_iid = elem.iid();
  coll->children().push_back(std::move(elem));
  // The push_back may have relocated the element buffer: refresh the iid
  // index for the whole collection subtree.
  IndexIids(*coll, rel, id);
  return new_iid;
}

Status InstanceStore::RemoveElement(RelationId rel, ObjectId id,
                                    const Path& coll_path,
                                    const std::string& elem_key) {
  BumpMutationEpoch();
  RelationStore& rs = StoreFor(rel);
  WriterLock latch(rs.mu);
  Result<ResolvedPath> rp = NavigateLocked(rs, rel, id, coll_path);
  if (!rp.ok()) return rp.status();
  const AttrDef& coll_def = catalog_->attr(rp->target_attr());
  if (!IsCollection(coll_def.kind)) {
    return Status::InvalidArgument("RemoveElement target '" +
                                   catalog_->AttrPath(rp->target_attr()) +
                                   "' is not a set or list");
  }
  const AttrDef& elem_def = catalog_->attr(coll_def.children[0]);
  const Value* found =
      FindElemByKey(*catalog_, elem_def, *rp->target(), elem_key);
  if (found == nullptr) {
    return Status::NotFound("no element with key '" + elem_key + "' in '" +
                            catalog_->AttrPath(rp->target_attr()) + "'");
  }
  auto* coll = const_cast<Value*>(rp->target());
  size_t idx = static_cast<size_t>(found - coll->children().data());
  UnindexIids(coll->children()[idx]);
  coll->children().erase(coll->children().begin() + static_cast<long>(idx));
  IndexIids(*coll, rel, id);
  return Status::OK();
}

std::vector<RefValue> InstanceStore::CollectRefs(const Value& v) {
  std::vector<RefValue> out;
  // Breadth-first, with the visited prefix of the vector as the queue.
  std::vector<const Value*> work{&v};
  for (size_t head = 0; head < work.size(); ++head) {
    const Value* cur = work[head];
    if (cur->is_ref()) {
      const RefValue& ref = cur->as_ref();
      bool seen = false;
      for (const RefValue& r : out) {
        if (r == ref) {
          seen = true;
          break;
        }
      }
      if (!seen) out.push_back(ref);
    } else if (!cur->is_atomic()) {
      for (const Value& child : cur->children()) work.push_back(&child);
    }
  }
  return out;
}

namespace {

void ScanForRefs(const Catalog& catalog, AttrId attr, const Value& v,
                 RelationId target_rel, ObjectId target_obj,
                 std::vector<std::pair<AttrId, Iid>>* chain,
                 std::vector<std::vector<std::pair<AttrId, Iid>>>* hits,
                 uint64_t* scanned) {
  if (scanned != nullptr) ++*scanned;
  chain->emplace_back(attr, v.iid());
  if (v.is_ref()) {
    const RefValue& ref = v.as_ref();
    if (ref.relation == target_rel && ref.object == target_obj) {
      hits->push_back(*chain);
    }
  } else if (!v.is_atomic()) {
    const AttrDef& def = catalog.attr(attr);
    if (IsCollection(def.kind)) {
      AttrId elem = def.children[0];
      for (const Value& child : v.children()) {
        ScanForRefs(catalog, elem, child, target_rel, target_obj, chain, hits,
                    scanned);
      }
    } else {  // tuple
      for (size_t i = 0; i < v.children().size(); ++i) {
        ScanForRefs(catalog, def.children[i], v.children()[i], target_rel,
                    target_obj, chain, hits, scanned);
      }
    }
  }
  chain->pop_back();
}

}  // namespace

std::vector<BackRefPath> InstanceStore::FindReferencing(
    RelationId target_rel, ObjectId target_obj,
    uint64_t* scanned_nodes) const {
  std::vector<BackRefPath> out;
  // Only relations whose schema contains a ref to target_rel can hold
  // back references; the scan over their *instances* is the expensive part.
  std::vector<RelationId> candidates =
      catalog_->ReferencingRelations(target_rel);
  for (RelationId rel : candidates) {
    RelationStore& rs = StoreFor(rel);
    ReaderLock lk(rs.mu);
    for (const auto& [id, obj] : rs.objects) {
      std::vector<std::pair<AttrId, Iid>> chain;
      std::vector<std::vector<std::pair<AttrId, Iid>>> hits;
      ScanForRefs(*catalog_, catalog_->relation(rel).root, obj->root,
                  target_rel, target_obj, &chain, &hits, scanned_nodes);
      for (auto& hit : hits) {
        BackRefPath brp;
        brp.relation = rel;
        brp.object = id;
        brp.chain = std::move(hit);
        out.push_back(std::move(brp));
      }
    }
  }
  return out;
}

std::vector<ObjectId> InstanceStore::ObjectsOf(RelationId rel) const {
  RelationStore& rs = StoreFor(rel);
  ReaderLock lk(rs.mu);
  std::vector<ObjectId> out;
  out.reserve(rs.objects.size());
  for (const auto& [id, obj] : rs.objects) out.push_back(id);
  return out;
}

size_t InstanceStore::ObjectCount(RelationId rel) const {
  RelationStore& rs = StoreFor(rel);
  ReaderLock lk(rs.mu);
  return rs.objects.size();
}

Result<Iid> InstanceStore::RootIid(RelationId rel, ObjectId id) const {
  Result<const Object*> obj = Get(rel, id);
  if (!obj.ok()) return obj.status();
  return (*obj)->root.iid();
}

}  // namespace codlock::nf2
