/// \file lock_graph.h
/// \brief Lock graphs for disjoint and non-disjoint complex objects.
///
/// Implements §4.2–§4.4.1 of the paper:
///
///  * the **general lock graph** (Fig. 4) defines three node kinds —
///    *basic lockable units* (BLU), *homogeneous lockable units* (HoLU:
///    sets/lists) and *heterogeneous lockable units* (HeLU: complex
///    tuples);
///  * an **object-specific lock graph** (Fig. 5) is derived per relation
///    from the general graph, catalog information and the derivation rules
///    of §4.3 (list→HoLU, set→HoLU, tuple→HeLU, atomic→BLU; a reference
///    BLU carries a *dashed* edge into the referenced relation's graph);
///  * the **unit decomposition** of §4.4.1 (Fig. 6): outer unit, inner
///    units with *entry points*, *immediate parents* (solid edges only)
///    and *superunits* (a unit's root plus its immediate-parent chain up
///    to and including the database node).
///
/// One `LockGraph` covers a whole catalog; the object-specific lock graph
/// of a relation is the subgraph reachable from the database node through
/// that relation (plus the dashed closure into shared relations).  Because
/// schema graphs are static, the builder runs once at DDL time — the
/// paper's "Construction of Object-Specific Lock Graphs" phase (§4.6,
/// advantage 6a).
///
/// Lockable *resources* are instances of graph nodes: singleton granules
/// (database/segment/relation) use instance id 0; nodes inside complex
/// objects use the instance id of the corresponding value node; a shared
/// complex object's entry point uses the root instance id of the target
/// object, independent of the path used to reach it.

#ifndef CODLOCK_LOGRA_LOCK_GRAPH_H_
#define CODLOCK_LOGRA_LOCK_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lock/resource.h"
#include "nf2/schema.h"
#include "nf2/store.h"
#include "util/result.h"

namespace codlock::logra {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Node kinds of the general lock graph (Fig. 4).
enum class NodeKind : uint8_t {
  kBLU,   ///< basic lockable unit (atomic attribute or reference)
  kHoLU,  ///< homogeneous lockable unit (set, list, relation)
  kHeLU,  ///< heterogeneous lockable unit (tuple, segment, database)
};

/// Structural role of a node (diagnostics and instance mapping).
enum class NodeLevel : uint8_t {
  kDatabase,
  kSegment,
  kRelation,
  kIndex,          ///< key index of a relation (Fig. 2: "Indexes")
  kComplexObject,  ///< root tuple of a relation's objects
  kAttribute,      ///< any attribute node below the complex-object root
};

std::string_view NodeKindName(NodeKind kind);

/// \brief One lockable unit in the (catalog-wide) lock graph.
struct Node {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kBLU;
  NodeLevel level = NodeLevel::kAttribute;
  std::string label;

  nf2::DatabaseId database = 0;
  nf2::SegmentId segment = 0;
  nf2::RelationId relation = nf2::kInvalidRelation;
  /// Backing schema attribute (kInvalidAttr for db/seg/rel nodes).
  nf2::AttrId attr = nf2::kInvalidAttr;

  /// Immediate parent: "the parent node from which the dependent node can
  /// be reached exclusively by following a single solid line" (§4.4.1).
  NodeId solid_parent = kInvalidNode;
  std::vector<NodeId> solid_children;

  /// Ref BLUs only: the entry point (complex-object node) of the
  /// referenced relation — a *dashed* edge, i.e. a unit boundary.
  NodeId dashed_target = kInvalidNode;
  /// Entry points only: ref BLU nodes referencing this node.
  std::vector<NodeId> dashed_in;

  bool is_ref_blu() const { return dashed_target != kInvalidNode; }
};

/// \brief The catalog-wide lock graph with unit decomposition.
class LockGraph {
 public:
  /// Builds the graph for every database/segment/relation in \p catalog
  /// using the derivation rules of §4.3.
  static LockGraph Build(const nf2::Catalog& catalog);

  const Node& node(NodeId id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }

  NodeId DatabaseNode(nf2::DatabaseId db) const { return db_nodes_.at(db); }
  NodeId SegmentNode(nf2::SegmentId seg) const { return seg_nodes_.at(seg); }
  NodeId RelationNode(nf2::RelationId rel) const { return rel_nodes_.at(rel); }
  /// The HeLU representing one complex object of \p rel (Fig. 5's
  /// "HeLU (C.O. ...)" directly under the relation HoLU).
  NodeId ComplexObjectNode(nf2::RelationId rel) const {
    return co_nodes_.at(rel);
  }
  /// Node backing schema attribute \p attr (the relation's root attr maps
  /// to the complex-object node).
  NodeId NodeForAttr(nf2::AttrId attr) const { return attr_nodes_.at(attr); }

  /// The key-index node of \p rel (Fig. 2's "Indexes", a sibling of the
  /// relation under its segment).  It reproduces the figure's lock graph;
  /// no component locks instances of it (the paper leaves "the
  /// integration of indexes" to future work, §5).
  NodeId IndexNode(nf2::RelationId rel) const { return idx_nodes_.at(rel); }

  /// True if \p id is the root of (potential) inner units: the
  /// complex-object node of a relation referenced from somewhere.
  bool IsEntryPoint(NodeId id) const;

  // The three closures below are fixed by the schema, so `Build` derives
  // them once for every node (§4.6, advantage 6a) and requests only read
  // them.

  /// Immediate-parent chain of \p id, nearest first, up to and including
  /// the database node.  For an entry point this is exactly the node set
  /// implicit upward propagation must lock (minus the entry point itself):
  /// its relation, segment and database nodes (§4.4.1: superunit).
  const std::vector<NodeId>& SuperunitChain(NodeId id) const {
    return closures_[id].superunit_chain;
  }

  /// Ref-BLU nodes in the subtree of \p id *within the same unit*
  /// (descending solid edges only, breadth-first).  Their dashed targets
  /// are the entry points of the lower (dependent) inner units reachable
  /// via \p id — the schema-level footprint of implicit downward
  /// propagation.
  const std::vector<NodeId>& RefBlusUnder(NodeId id) const {
    return closures_[id].ref_blus_under;
  }

  /// Distinct relations whose entry points are reachable from \p id via
  /// one dashed hop (transitively closed over nested sharing), in
  /// breadth-first order of discovery.
  const std::vector<nf2::RelationId>& ReachableSharedRelations(
      NodeId id) const {
    return closures_[id].reachable_shared;
  }

  /// Nodes of the object-specific lock graph of \p rel: the database,
  /// segment and relation chain, the relation's own subtree, and the
  /// dashed closure into shared relations (Fig. 5 for "cells").
  std::vector<NodeId> ObjectSpecificNodes(nf2::RelationId rel) const;

  /// Lock resource for the singleton instance of a database/segment/
  /// relation node.
  lock::ResourceId SingletonResource(NodeId node) const {
    return lock::ResourceId{node, 0};
  }

  /// Lock resource for instance \p iid of node \p node.
  lock::ResourceId Resource(NodeId node, nf2::Iid iid) const {
    return lock::ResourceId{node, iid};
  }

  /// GraphViz rendering of the object-specific lock graph of \p rel
  /// (solid containment edges, dashed reference edges).
  std::string ToDot(nf2::RelationId rel, const nf2::Catalog& catalog) const;

  /// Human-readable node name ("HoLU(robots)", "HeLU(C.O. effectors)", ...).
  std::string NodeName(NodeId id) const;

  /// Direct mutable access to a node.  `Build` output is immutable in
  /// production; this hook exists solely so lint tests and the prover's
  /// kill-suite can seed structural violations (cycles, rewired edges)
  /// into an otherwise valid graph.  The closures above keep the values
  /// `Build` derived until `RederiveForTest` runs.
  Node& MutableNodeForTest(NodeId id) { return nodes_[id]; }

  /// Derives the closures again from the edited edges.  Requires what
  /// `Build` guarantees of the solid edges (a forest) and of every dashed
  /// target (an existing node); dashed edges may form cycles.
  void RederiveForTest() { DeriveClosures(); }

 private:
  /// Schema-derived facts of one node (see the accessors above).
  struct Closures {
    std::vector<NodeId> superunit_chain;
    std::vector<NodeId> ref_blus_under;
    std::vector<nf2::RelationId> reachable_shared;
  };

  NodeId AddNode(Node node);
  NodeId BuildAttrSubtree(const nf2::Catalog& catalog, nf2::AttrId attr,
                          NodeId parent, NodeLevel level);
  void DeriveClosures();

  std::vector<Node> nodes_;
  std::vector<Closures> closures_;  ///< indexed by NodeId
  // Indexed by the catalog's dense ids.  `attr_nodes_` holds kInvalidNode
  // for an attribute no relation's tree reaches (a failed AddRelation).
  std::vector<NodeId> db_nodes_;
  std::vector<NodeId> seg_nodes_;
  std::vector<NodeId> rel_nodes_;
  std::vector<NodeId> co_nodes_;
  std::vector<NodeId> idx_nodes_;
  std::vector<NodeId> attr_nodes_;
};

}  // namespace codlock::logra

#endif  // CODLOCK_LOGRA_LOCK_GRAPH_H_
