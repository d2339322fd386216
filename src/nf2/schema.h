/// \file schema.h
/// \brief Extended NF² schema and catalog.
///
/// The paper bases its discussion on the extended NF² data model
/// [PiAn86, ScSc86] with an additional *reference* concept: an attribute of
/// a relation may be atomic (string/int/real/bool), table-valued (a set or
/// a list), tuple-valued (a complex tuple), or a reference to common data.
/// Per the paper's assumption (§2), a reference always targets a *complex
/// object of a relation* (never a part of one), which loses no generality.
///
/// The catalog mirrors the System R hierarchy the lock graphs are built on:
/// databases contain segments, segments contain relations (Fig. 2/5).

#ifndef CODLOCK_NF2_SCHEMA_H_
#define CODLOCK_NF2_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace codlock::nf2 {

using DatabaseId = uint32_t;
using SegmentId = uint32_t;
using RelationId = uint32_t;
/// Index of an attribute definition in the catalog-global attribute table.
using AttrId = uint32_t;

inline constexpr AttrId kInvalidAttr = static_cast<AttrId>(-1);
inline constexpr RelationId kInvalidRelation = static_cast<RelationId>(-1);

/// Attribute type constructors of the extended NF² model.
enum class AttrKind : uint8_t {
  kString,  ///< atomic: character string
  kInt,     ///< atomic: integer
  kReal,    ///< atomic: real number
  kBool,    ///< atomic: boolean
  kSet,     ///< homogeneous collection, unordered
  kList,    ///< homogeneous collection, ordered
  kTuple,   ///< heterogeneous composite (complex tuple)
  kRef      ///< reference to a complex object of another relation
};

/// True for string/int/real/bool.
bool IsAtomic(AttrKind kind);
/// True for set/list.
bool IsCollection(AttrKind kind);
/// "string", "set", ... for diagnostics.
std::string_view AttrKindName(AttrKind kind);

/// \brief One node of a relation's schema tree.
struct AttrDef {
  AttrId id = kInvalidAttr;
  std::string name;
  AttrKind kind = AttrKind::kString;
  /// Key attribute ("_id" suffix convention in the paper's Fig. 1).
  bool is_key = false;
  /// Tuple: field attr ids in order. Set/list: exactly one element attr.
  std::vector<AttrId> children;
  /// kRef only: the referenced relation.
  RelationId ref_target = kInvalidRelation;
  /// Owning relation.
  RelationId relation = kInvalidRelation;
  /// Parent attribute within the schema tree (kInvalidAttr for the root).
  AttrId parent = kInvalidAttr;
  /// Depth below the relation's root tuple (root tuple = 0).
  uint32_t depth = 0;
};

/// \brief Declarative schema specification used to create relations.
///
/// Built with the factory helpers below, e.g. (Fig. 1, relation "cells"):
/// \code
///   AttrSpec cells = AttrSpec::Tuple("cells", {
///     AttrSpec::Key("cell_id"),
///     AttrSpec::Set("c_objects", AttrSpec::Tuple("c_object", {
///       AttrSpec::Key("obj_id"), AttrSpec::Str("obj_name")})),
///     AttrSpec::List("robots", AttrSpec::Tuple("robot", {
///       AttrSpec::Key("robot_id"), AttrSpec::Str("trajectory"),
///       AttrSpec::Set("effectors", AttrSpec::Ref("ref", "effectors"))})),
///   });
/// \endcode
struct AttrSpec {
  std::string name;
  AttrKind kind = AttrKind::kString;
  bool is_key = false;
  std::vector<AttrSpec> children;
  /// kRef only: name of the referenced relation (resolved at creation).
  std::string ref_relation;

  static AttrSpec Str(std::string n) {
    return {std::move(n), AttrKind::kString, false, {}, {}};
  }
  static AttrSpec Int(std::string n) {
    return {std::move(n), AttrKind::kInt, false, {}, {}};
  }
  static AttrSpec Real(std::string n) {
    return {std::move(n), AttrKind::kReal, false, {}, {}};
  }
  static AttrSpec Bool(std::string n) {
    return {std::move(n), AttrKind::kBool, false, {}, {}};
  }
  /// Atomic string key attribute.
  static AttrSpec Key(std::string n) {
    return {std::move(n), AttrKind::kString, true, {}, {}};
  }
  static AttrSpec Set(std::string n, AttrSpec elem) {
    AttrSpec s{std::move(n), AttrKind::kSet, false, {}, {}};
    s.children.push_back(std::move(elem));
    return s;
  }
  static AttrSpec List(std::string n, AttrSpec elem) {
    AttrSpec s{std::move(n), AttrKind::kList, false, {}, {}};
    s.children.push_back(std::move(elem));
    return s;
  }
  static AttrSpec Tuple(std::string n, std::vector<AttrSpec> fields) {
    AttrSpec s{std::move(n), AttrKind::kTuple, false, std::move(fields), {}};
    return s;
  }
  static AttrSpec Ref(std::string n, std::string target_relation) {
    AttrSpec s{std::move(n), AttrKind::kRef, false, {}, {}};
    s.ref_relation = std::move(target_relation);
    return s;
  }
};

/// \brief Relation metadata: a named set of complex tuples.
struct RelationDef {
  RelationId id = kInvalidRelation;
  std::string name;
  DatabaseId database = 0;
  SegmentId segment = 0;
  /// Root of the schema tree: a kTuple AttrDef describing one complex
  /// object of this relation.
  AttrId root = kInvalidAttr;
  /// First key attribute among the root tuple's direct children
  /// (kInvalidAttr if the relation has no key).
  AttrId key_attr = kInvalidAttr;
};

/// \brief Segment metadata.
struct SegmentDef {
  SegmentId id = 0;
  std::string name;
  DatabaseId database = 0;
};

/// \brief Database metadata.
struct DatabaseDef {
  DatabaseId id = 0;
  std::string name;
};

/// \brief The schema catalog: databases → segments → relations → attributes.
///
/// The catalog is immutable once populated (DDL happens before workloads
/// run); lookups are therefore unsynchronized and cheap.
class Catalog {
 public:
  /// Creates a database; fails with AlreadyExists on duplicate name.
  Result<DatabaseId> CreateDatabase(const std::string& name);

  /// Creates a segment in \p db.
  Result<SegmentId> CreateSegment(DatabaseId db, const std::string& name);

  /// Creates a relation in \p segment from \p spec (a kTuple AttrSpec whose
  /// children are the relation's top-level attributes).  All kRef specs must
  /// name already-existing relations (the paper restricts itself to
  /// non-recursive complex objects, so definition order always exists).
  Result<RelationId> CreateRelation(SegmentId segment, const std::string& name,
                                    const AttrSpec& spec);

  Result<DatabaseId> FindDatabase(const std::string& name) const;
  Result<SegmentId> FindSegment(const std::string& name) const;
  Result<RelationId> FindRelation(std::string_view name) const;

  const DatabaseDef& database(DatabaseId id) const { return databases_[id]; }
  const SegmentDef& segment(SegmentId id) const { return segments_[id]; }
  const RelationDef& relation(RelationId id) const { return relations_[id]; }
  const AttrDef& attr(AttrId id) const { return attrs_[id]; }

  size_t num_databases() const { return databases_.size(); }
  size_t num_segments() const { return segments_.size(); }
  size_t num_relations() const { return relations_.size(); }
  size_t num_attrs() const { return attrs_.size(); }

  /// Resolves the child of tuple attribute \p tuple_attr by name.
  Result<AttrId> FindField(AttrId tuple_attr, std::string_view name) const;

  /// Element attribute of a set/list attribute.
  Result<AttrId> ElementAttr(AttrId collection_attr) const;

  /// All relations whose schema contains a kRef targeting \p rel.
  std::vector<RelationId> ReferencingRelations(RelationId rel) const;

  /// True if any attribute of \p rel is a kRef (i.e. the relation's objects
  /// are potentially non-disjoint with common data).
  bool HasReferences(RelationId rel) const;

  /// Dotted path of \p attr from its relation root, e.g.
  /// "cells.robots.robot.trajectory" (diagnostics, DOT labels).
  std::string AttrPath(AttrId attr) const;

 private:
  AttrId AddAttrTree(const AttrSpec& spec, RelationId rel, AttrId parent,
                     uint32_t depth, Status* status);

  std::vector<DatabaseDef> databases_;
  std::vector<SegmentDef> segments_;
  std::vector<RelationDef> relations_;
  std::vector<AttrDef> attrs_;
};

}  // namespace codlock::nf2

#endif  // CODLOCK_NF2_SCHEMA_H_
