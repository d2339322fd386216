#include "logra/lock_graph.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_set>

namespace codlock::logra {

std::string_view NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kBLU:
      return "BLU";
    case NodeKind::kHoLU:
      return "HoLU";
    case NodeKind::kHeLU:
      return "HeLU";
  }
  return "?";
}

NodeId LockGraph::AddNode(Node node) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  node.id = id;
  if (node.solid_parent != kInvalidNode) {
    nodes_[node.solid_parent].solid_children.push_back(id);
  }
  nodes_.push_back(std::move(node));
  return id;
}

NodeId LockGraph::BuildAttrSubtree(const nf2::Catalog& catalog,
                                   nf2::AttrId attr, NodeId parent,
                                   NodeLevel level) {
  const nf2::AttrDef& def = catalog.attr(attr);
  Node node;
  node.level = level;
  node.label = def.name;
  node.relation = def.relation;
  node.database = catalog.relation(def.relation).database;
  node.segment = catalog.relation(def.relation).segment;
  node.attr = attr;
  node.solid_parent = parent;

  // Derivation rules of §4.3.
  switch (def.kind) {
    case nf2::AttrKind::kSet:
    case nf2::AttrKind::kList:
      node.kind = NodeKind::kHoLU;  // rules 1 and 2
      break;
    case nf2::AttrKind::kTuple:
      node.kind = NodeKind::kHeLU;  // rule 3
      break;
    default:
      node.kind = NodeKind::kBLU;  // rule 4 (atomic) and references
      break;
  }

  NodeId id = AddNode(std::move(node));
  attr_nodes_.at(attr) = id;

  if (def.kind == nf2::AttrKind::kRef) {
    // Dashed edge to the referenced relation's complex-object node.  The
    // catalog forbids forward/recursive references, so the target's nodes
    // already exist (relations are built in creation order).
    NodeId target = co_nodes_.at(def.ref_target);
    nodes_[id].dashed_target = target;
    nodes_[target].dashed_in.push_back(id);
  } else if (!nf2::IsAtomic(def.kind)) {
    for (nf2::AttrId child : def.children) {
      BuildAttrSubtree(catalog, child, id, NodeLevel::kAttribute);
    }
  }
  return id;
}

LockGraph LockGraph::Build(const nf2::Catalog& catalog) {
  LockGraph g;
  g.attr_nodes_.assign(catalog.num_attrs(), kInvalidNode);
  for (nf2::DatabaseId db = 0; db < catalog.num_databases(); ++db) {
    Node n;
    n.kind = NodeKind::kHeLU;  // §4.2: "database can be regarded as a HeLU"
    n.level = NodeLevel::kDatabase;
    n.label = catalog.database(db).name;
    n.database = db;
    g.db_nodes_.push_back(g.AddNode(std::move(n)));
  }
  for (nf2::SegmentId seg = 0; seg < catalog.num_segments(); ++seg) {
    Node n;
    n.kind = NodeKind::kHeLU;
    n.level = NodeLevel::kSegment;
    n.label = catalog.segment(seg).name;
    n.database = catalog.segment(seg).database;
    n.segment = seg;
    n.solid_parent = g.db_nodes_.at(n.database);
    g.seg_nodes_.push_back(g.AddNode(std::move(n)));
  }
  for (nf2::RelationId rel = 0; rel < catalog.num_relations(); ++rel) {
    const nf2::RelationDef& rdef = catalog.relation(rel);
    Node n;
    n.kind = NodeKind::kHoLU;  // §4.2: "'relations' is a HoLU"
    n.level = NodeLevel::kRelation;
    n.label = rdef.name;
    n.database = rdef.database;
    n.segment = rdef.segment;
    n.relation = rel;
    n.solid_parent = g.seg_nodes_.at(rdef.segment);
    NodeId rel_node = g.AddNode(std::move(n));
    g.rel_nodes_.push_back(rel_node);

    // The complex-object HeLU is the subtree built from the root tuple.
    NodeId co =
        g.BuildAttrSubtree(catalog, rdef.root, rel_node,
                           NodeLevel::kComplexObject);
    g.nodes_[co].label = "C.O. " + rdef.name;
    g.co_nodes_.push_back(co);

    // Fig. 2: indexes hang under the segment, siblings of the relation.
    Node idx;
    idx.kind = NodeKind::kHoLU;
    idx.level = NodeLevel::kIndex;
    idx.label = "idx " + rdef.name;
    idx.database = rdef.database;
    idx.segment = rdef.segment;
    idx.relation = rel;
    idx.solid_parent = g.seg_nodes_.at(rdef.segment);
    g.idx_nodes_.push_back(g.AddNode(std::move(idx)));
  }
  g.DeriveClosures();
  return g;
}

bool LockGraph::IsEntryPoint(NodeId id) const {
  return !nodes_[id].dashed_in.empty();
}

void LockGraph::DeriveClosures() {
  closures_.assign(nodes_.size(), Closures{});
  std::vector<NodeId> queue;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    Closures& c = closures_[id];
    for (NodeId cur = nodes_[id].solid_parent; cur != kInvalidNode;
         cur = nodes_[cur].solid_parent) {
      c.superunit_chain.push_back(cur);
    }
    // Solid edges only: never descend across a unit boundary here.
    queue.assign(1, id);
    for (size_t head = 0; head < queue.size(); ++head) {
      const Node& n = nodes_[queue[head]];
      if (n.is_ref_blu()) c.ref_blus_under.push_back(queue[head]);
      queue.insert(queue.end(), n.solid_children.begin(),
                   n.solid_children.end());
    }
  }
  // Needs every node's ref BLUs, so it runs as a second pass.
  std::unordered_set<nf2::RelationId> seen;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    std::vector<nf2::RelationId>& out = closures_[id].reachable_shared;
    seen.clear();
    queue.assign(1, id);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId ref : closures_[queue[head]].ref_blus_under) {
        NodeId target = nodes_[ref].dashed_target;
        nf2::RelationId rel = nodes_[target].relation;
        if (seen.insert(rel).second) {
          out.push_back(rel);
          // Common data may again contain common data.
          queue.push_back(target);
        }
      }
    }
  }
}

std::vector<NodeId> LockGraph::ObjectSpecificNodes(nf2::RelationId rel) const {
  std::vector<NodeId> out;
  std::unordered_set<NodeId> seen;
  auto add = [&](NodeId id) {
    if (seen.insert(id).second) out.push_back(id);
  };
  NodeId rel_node = rel_nodes_.at(rel);
  // Ancestor chain (database, segment), root first for readability.
  const std::vector<NodeId>& chain = SuperunitChain(rel_node);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) add(*it);
  // The relation subtree plus the dashed closure.
  std::deque<NodeId> work{rel_node};
  while (!work.empty()) {
    NodeId cur = work.front();
    work.pop_front();
    add(cur);
    const Node& n = nodes_[cur];
    for (NodeId child : n.solid_children) work.push_back(child);
    if (n.is_ref_blu()) {
      NodeId target = n.dashed_target;
      // Include the shared relation's superunit chain (Fig. 5 shows
      // "Segment seg2" and "HoLU (Relation effectors)" in cells' graph).
      for (NodeId anc : SuperunitChain(target)) add(anc);
      if (!seen.contains(target)) work.push_back(target);
    }
  }
  return out;
}

std::string LockGraph::NodeName(NodeId id) const {
  const Node& n = nodes_[id];
  std::string name(NodeKindName(n.kind));
  name += '(';
  switch (n.level) {
    case NodeLevel::kDatabase:
      name += "Database \"" + n.label + "\"";
      break;
    case NodeLevel::kSegment:
      name += "Segment \"" + n.label + "\"";
      break;
    case NodeLevel::kRelation:
      name += "Relation \"" + n.label + "\"";
      break;
    case NodeLevel::kIndex:
      name += "Index \"" + n.label + "\"";
      break;
    case NodeLevel::kComplexObject:
      name += "\"" + n.label + "\"";
      break;
    case NodeLevel::kAttribute:
      name += "\"" + n.label + "\"";
      break;
  }
  name += ')';
  return name;
}

std::string LockGraph::ToDot(nf2::RelationId rel,
                             const nf2::Catalog& catalog) const {
  std::ostringstream os;
  os << "digraph \"lock graph of " << catalog.relation(rel).name << "\" {\n";
  os << "  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n";
  std::vector<NodeId> nodes = ObjectSpecificNodes(rel);
  std::unordered_set<NodeId> included(nodes.begin(), nodes.end());
  auto escape = [](std::string s) {
    std::string out;
    for (char c : s) {
      if (c == '"') out += '\\';
      out += c;
    }
    return out;
  };
  for (NodeId id : nodes) {
    const Node& n = nodes_[id];
    os << "  n" << id << " [label=\"" << escape(NodeName(id)) << "\"";
    if (IsEntryPoint(id)) os << ", style=bold, color=blue";
    if (n.kind == NodeKind::kBLU) os << ", shape=ellipse";
    os << "];\n";
  }
  for (NodeId id : nodes) {
    const Node& n = nodes_[id];
    for (NodeId child : n.solid_children) {
      if (included.contains(child)) {
        os << "  n" << id << " -> n" << child << ";\n";
      }
    }
    if (n.is_ref_blu() && included.contains(n.dashed_target)) {
      os << "  n" << id << " -> n" << n.dashed_target
         << " [style=dashed, color=blue];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace codlock::logra
