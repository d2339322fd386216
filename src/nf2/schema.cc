#include "nf2/schema.h"

namespace codlock::nf2 {

bool IsAtomic(AttrKind kind) {
  switch (kind) {
    case AttrKind::kString:
    case AttrKind::kInt:
    case AttrKind::kReal:
    case AttrKind::kBool:
      return true;
    default:
      return false;
  }
}

bool IsCollection(AttrKind kind) {
  return kind == AttrKind::kSet || kind == AttrKind::kList;
}

std::string_view AttrKindName(AttrKind kind) {
  switch (kind) {
    case AttrKind::kString:
      return "string";
    case AttrKind::kInt:
      return "int";
    case AttrKind::kReal:
      return "real";
    case AttrKind::kBool:
      return "bool";
    case AttrKind::kSet:
      return "set";
    case AttrKind::kList:
      return "list";
    case AttrKind::kTuple:
      return "tuple";
    case AttrKind::kRef:
      return "ref";
  }
  return "unknown";
}

Result<DatabaseId> Catalog::CreateDatabase(const std::string& name) {
  if (FindDatabase(name).ok()) {
    return Status::AlreadyExists("database '" + name + "' already exists");
  }
  DatabaseId id = static_cast<DatabaseId>(databases_.size());
  databases_.push_back(DatabaseDef{id, name});
  return id;
}

Result<SegmentId> Catalog::CreateSegment(DatabaseId db,
                                         const std::string& name) {
  if (db >= databases_.size()) {
    return Status::NotFound("unknown database id");
  }
  if (FindSegment(name).ok()) {
    return Status::AlreadyExists("segment '" + name + "' already exists");
  }
  SegmentId id = static_cast<SegmentId>(segments_.size());
  segments_.push_back(SegmentDef{id, name, db});
  return id;
}

Result<RelationId> Catalog::CreateRelation(SegmentId segment,
                                           const std::string& name,
                                           const AttrSpec& spec) {
  if (segment >= segments_.size()) {
    return Status::NotFound("unknown segment id");
  }
  if (FindRelation(name).ok()) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  if (spec.kind != AttrKind::kTuple) {
    return Status::InvalidArgument(
        "relation root spec must be a tuple (got " +
        std::string(AttrKindName(spec.kind)) + ")");
  }
  RelationId id = static_cast<RelationId>(relations_.size());
  RelationDef rel;
  rel.id = id;
  rel.name = name;
  rel.segment = segment;
  rel.database = segments_[segment].database;
  relations_.push_back(rel);

  Status st;
  AttrId root = AddAttrTree(spec, id, kInvalidAttr, 0, &st);
  if (!st.ok()) {
    relations_.pop_back();
    // Attribute-table entries added by the failed tree remain but are
    // unreachable; the catalog is DDL-time only so this is acceptable.
    return st;
  }
  relations_[id].root = root;
  for (AttrId child : attrs_[root].children) {
    if (attrs_[child].is_key) {
      relations_[id].key_attr = child;
      break;
    }
  }
  return id;
}

AttrId Catalog::AddAttrTree(const AttrSpec& spec, RelationId rel,
                            AttrId parent, uint32_t depth, Status* status) {
  AttrId id = static_cast<AttrId>(attrs_.size());
  AttrDef def;
  def.id = id;
  def.name = spec.name;
  def.kind = spec.kind;
  def.is_key = spec.is_key;
  def.relation = rel;
  def.parent = parent;
  def.depth = depth;

  if (spec.kind == AttrKind::kRef) {
    Result<RelationId> target = FindRelation(spec.ref_relation);
    if (!target.ok()) {
      *status = Status::InvalidArgument(
          "reference attribute '" + spec.name +
          "' targets unknown relation '" + spec.ref_relation + "'");
      return kInvalidAttr;
    }
    if (*target == rel) {
      *status = Status::InvalidArgument(
          "recursive reference in attribute '" + spec.name +
          "': the paper's technique covers non-recursive complex objects");
      return kInvalidAttr;
    }
    def.ref_target = *target;
  }
  if (IsCollection(spec.kind) && spec.children.size() != 1) {
    *status = Status::InvalidArgument("set/list attribute '" + spec.name +
                                      "' needs exactly one element type");
    return kInvalidAttr;
  }
  if (spec.kind == AttrKind::kTuple && spec.children.empty()) {
    *status = Status::InvalidArgument("tuple attribute '" + spec.name +
                                      "' needs at least one field");
    return kInvalidAttr;
  }
  if (IsAtomic(spec.kind) && !spec.children.empty()) {
    *status = Status::InvalidArgument("atomic attribute '" + spec.name +
                                      "' cannot have children");
    return kInvalidAttr;
  }

  attrs_.push_back(def);
  for (const AttrSpec& child : spec.children) {
    AttrId cid = AddAttrTree(child, rel, id, depth + 1, status);
    if (!status->ok()) return kInvalidAttr;
    attrs_[id].children.push_back(cid);
  }
  return id;
}

Result<DatabaseId> Catalog::FindDatabase(const std::string& name) const {
  for (const DatabaseDef& d : databases_) {
    if (d.name == name) return d.id;
  }
  return Status::NotFound("database '" + name + "' not found");
}

Result<SegmentId> Catalog::FindSegment(const std::string& name) const {
  for (const SegmentDef& s : segments_) {
    if (s.name == name) return s.id;
  }
  return Status::NotFound("segment '" + name + "' not found");
}

Result<RelationId> Catalog::FindRelation(std::string_view name) const {
  for (const RelationDef& r : relations_) {
    if (r.name == name) return r.id;
  }
  return Status::NotFound("relation '" + std::string(name) + "' not found");
}

Result<AttrId> Catalog::FindField(AttrId tuple_attr,
                                  std::string_view name) const {
  if (tuple_attr >= attrs_.size()) return Status::NotFound("unknown attr id");
  const AttrDef& def = attrs_[tuple_attr];
  if (def.kind != AttrKind::kTuple) {
    return Status::InvalidArgument("attribute '" + def.name +
                                   "' is not a tuple");
  }
  for (AttrId child : def.children) {
    if (attrs_[child].name == name) return child;
  }
  return Status::NotFound("tuple '" + def.name + "' has no field '" +
                          std::string(name) + "'");
}

Result<AttrId> Catalog::ElementAttr(AttrId collection_attr) const {
  if (collection_attr >= attrs_.size()) {
    return Status::NotFound("unknown attr id");
  }
  const AttrDef& def = attrs_[collection_attr];
  if (!IsCollection(def.kind)) {
    return Status::InvalidArgument("attribute '" + def.name +
                                   "' is not a set or list");
  }
  return def.children[0];
}

std::vector<RelationId> Catalog::ReferencingRelations(RelationId rel) const {
  std::vector<RelationId> out;
  for (const AttrDef& a : attrs_) {
    if (a.kind == AttrKind::kRef && a.ref_target == rel) {
      if (out.empty() || out.back() != a.relation) {
        out.push_back(a.relation);
      }
    }
  }
  return out;
}

bool Catalog::HasReferences(RelationId rel) const {
  for (const AttrDef& a : attrs_) {
    if (a.relation == rel && a.kind == AttrKind::kRef) return true;
  }
  return false;
}

std::string Catalog::AttrPath(AttrId attr) const {
  if (attr >= attrs_.size()) return "?";
  std::vector<const AttrDef*> chain;
  for (AttrId cur = attr; cur != kInvalidAttr; cur = attrs_[cur].parent) {
    chain.push_back(&attrs_[cur]);
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!out.empty()) out += '.';
    out += (*it)->name;
  }
  return out;
}

}  // namespace codlock::nf2
