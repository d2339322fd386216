#include "logra/lint.h"

#include <algorithm>
#include <sstream>

#include "util/json.h"

namespace codlock::logra {

namespace {

/// DFS colors for the cycle check.
enum class Color : uint8_t { kWhite, kGray, kBlack };

class Linter {
 public:
  Linter(const LockGraph& graph, const nf2::Catalog& catalog)
      : graph_(graph), catalog_(catalog) {}

  LintReport Run() {
    CheckNodes();
    CheckSolidEdges();
    CheckDashedEdges();
    CheckRegisteredRelations();
    CheckAcyclic();
    CheckEntryPointReachability();
    report_.nodes_checked = graph_.num_nodes();
    report_.relations_checked = catalog_.num_relations();
    return std::move(report_);
  }

 private:
  bool InRange(NodeId id) const { return id < graph_.num_nodes(); }

  std::string Name(NodeId id) const {
    if (!InRange(id)) return "node#" + std::to_string(id) + " (out of range)";
    return graph_.NodeName(id);
  }

  void Add(LintCode code, NodeId node, std::string message) {
    report_.findings.push_back(LintFinding{code, node, std::move(message)});
  }

  /// Invariant 1: derivation rules of §4.3 and the §4.2 hierarchy kinds.
  void CheckNodes() {
    for (const Node& n : graph_.nodes()) {
      switch (n.level) {
        case NodeLevel::kDatabase:
        case NodeLevel::kSegment:
          if (n.kind != NodeKind::kHeLU) {
            Add(LintCode::kDerivationRule, n.id,
                Name(n.id) + ": database/segment must be a HeLU (§4.2)");
          }
          break;
        case NodeLevel::kRelation:
        case NodeLevel::kIndex:
          if (n.kind != NodeKind::kHoLU) {
            Add(LintCode::kDerivationRule, n.id,
                Name(n.id) + ": relation/index must be a HoLU (§4.2)");
          }
          break;
        case NodeLevel::kComplexObject:
        case NodeLevel::kAttribute:
          CheckAttrNode(n);
          break;
      }
    }
  }

  void CheckAttrNode(const Node& n) {
    if (n.attr == nf2::kInvalidAttr || n.attr >= catalog_.num_attrs()) {
      Add(LintCode::kDerivationRule, n.id,
          Name(n.id) + ": attribute node without a backing schema attribute");
      return;
    }
    const nf2::AttrDef& def = catalog_.attr(n.attr);
    switch (def.kind) {
      case nf2::AttrKind::kSet:
      case nf2::AttrKind::kList:
        if (n.kind != NodeKind::kHoLU) {
          Add(LintCode::kDerivationRule, n.id,
              Name(n.id) + ": set/list attribute \"" + def.name +
                  "\" must derive a HoLU (§4.3 rules 1, 2)");
        }
        break;
      case nf2::AttrKind::kTuple:
        if (n.kind != NodeKind::kHeLU) {
          Add(LintCode::kDerivationRule, n.id,
              Name(n.id) + ": tuple attribute \"" + def.name +
                  "\" must derive a HeLU (§4.3 rule 3)");
        }
        break;
      case nf2::AttrKind::kRef:
        if (n.kind != NodeKind::kBLU) {
          Add(LintCode::kDerivationRule, n.id,
              Name(n.id) + ": reference attribute \"" + def.name +
                  "\" must derive a BLU (§4.3)");
        }
        if (n.dashed_target == kInvalidNode) {
          Add(LintCode::kDanglingRef, n.id,
              Name(n.id) + ": reference attribute \"" + def.name +
                  "\" has no dashed edge into the referenced relation");
        }
        break;
      default:  // atomic
        if (n.kind != NodeKind::kBLU) {
          Add(LintCode::kDerivationRule, n.id,
              Name(n.id) + ": atomic attribute \"" + def.name +
                  "\" must derive a BLU (§4.3 rule 4)");
        }
        if (n.dashed_target != kInvalidNode) {
          Add(LintCode::kDerivationRule, n.id,
              Name(n.id) + ": atomic attribute \"" + def.name +
                  "\" must not carry a dashed reference edge");
        }
        break;
    }
  }

  /// Invariant 5 (plus bookkeeping): solid edges stay inside one unit and
  /// the System R hierarchy; both edge endpoints agree; BLUs are leaves.
  void CheckSolidEdges() {
    for (const Node& parent : graph_.nodes()) {
      if (parent.kind == NodeKind::kBLU && !parent.solid_children.empty()) {
        Add(LintCode::kBluHasChildren, parent.id,
            Name(parent.id) + ": a BLU is a leaf but has " +
                std::to_string(parent.solid_children.size()) +
                " solid children");
      }
      for (NodeId child_id : parent.solid_children) {
        if (!InRange(child_id)) {
          Add(LintCode::kParentChildMismatch, parent.id,
              Name(parent.id) + ": solid child " + Name(child_id));
          continue;
        }
        const Node& child = graph_.node(child_id);
        if (child.solid_parent != parent.id) {
          Add(LintCode::kParentChildMismatch, child_id,
              "solid edge " + Name(parent.id) + " -> " + Name(child_id) +
                  " is not mirrored by the child's solid_parent");
        }
        CheckSolidEdgeLegal(parent, child);
      }
      if (parent.solid_parent != kInvalidNode) {
        if (!InRange(parent.solid_parent)) {
          Add(LintCode::kParentChildMismatch, parent.id,
              Name(parent.id) + ": solid parent out of range");
        } else {
          const auto& siblings = graph_.node(parent.solid_parent).solid_children;
          if (std::find(siblings.begin(), siblings.end(), parent.id) ==
              siblings.end()) {
            Add(LintCode::kParentChildMismatch, parent.id,
                Name(parent.id) + ": solid parent " +
                    Name(parent.solid_parent) +
                    " does not list it as a child");
          }
        }
      } else if (parent.level != NodeLevel::kDatabase) {
        Add(LintCode::kParentChildMismatch, parent.id,
            Name(parent.id) + ": only database nodes may lack a solid parent");
      }
    }
  }

  void CheckSolidEdgeLegal(const Node& parent, const Node& child) {
    bool legal = false;
    switch (parent.level) {
      case NodeLevel::kDatabase:
        legal = child.level == NodeLevel::kSegment;
        break;
      case NodeLevel::kSegment:
        legal = child.level == NodeLevel::kRelation ||
                child.level == NodeLevel::kIndex;
        break;
      case NodeLevel::kRelation:
        legal = child.level == NodeLevel::kComplexObject &&
                child.relation == parent.relation;
        break;
      case NodeLevel::kIndex:
        legal = false;  // index entries are instances, not schema nodes
        break;
      case NodeLevel::kComplexObject:
      case NodeLevel::kAttribute:
        // Containment never leaves the relation's schema tree: a solid
        // edge into another relation's nodes (or into an entry point)
        // crosses a unit boundary — only dashed edges may do that.
        legal = child.level == NodeLevel::kAttribute &&
                child.relation == parent.relation;
        break;
    }
    if (!legal) {
      Add(LintCode::kSolidCrossUnit, parent.id,
          "solid edge " + Name(parent.id) + " -> " + Name(child.id) +
              " crosses a unit boundary (§4.4.1: only dashed edges connect "
              "units)");
    }
  }

  /// Invariants 3 and 4: dashed edges land exactly on registered inner-unit
  /// entry points, with consistent back-edges.
  void CheckDashedEdges() {
    for (const Node& n : graph_.nodes()) {
      if (n.dashed_target != kInvalidNode) CheckRefBlu(n);
      for (NodeId ref : n.dashed_in) {
        if (!InRange(ref) || graph_.node(ref).dashed_target != n.id) {
          Add(LintCode::kParentChildMismatch, n.id,
              Name(n.id) + ": dashed back-edge from " + Name(ref) +
                  " is not mirrored by that node's dashed_target");
        }
      }
    }
  }

  void CheckRefBlu(const Node& n) {
    if (!InRange(n.dashed_target)) {
      Add(LintCode::kDanglingRef, n.id,
          Name(n.id) + ": dashed edge dangles at " + Name(n.dashed_target));
      return;
    }
    const Node& target = graph_.node(n.dashed_target);
    if (target.level != NodeLevel::kComplexObject) {
      Add(LintCode::kMultipleEntryPoints, n.id,
          "dashed edge " + Name(n.id) + " -> " + Name(target.id) +
              " enters a unit at a non-root node: the inner unit would have "
              "a second entry point (§4.4.1)");
      return;
    }
    // The target must be the *registered* entry of the declared relation.
    nf2::RelationId declared = nf2::kInvalidRelation;
    if (n.attr != nf2::kInvalidAttr && n.attr < catalog_.num_attrs() &&
        catalog_.attr(n.attr).kind == nf2::AttrKind::kRef) {
      declared = catalog_.attr(n.attr).ref_target;
    }
    if (declared != nf2::kInvalidRelation &&
        (declared >= catalog_.num_relations() ||
         graph_.ComplexObjectNode(declared) != target.id)) {
      Add(LintCode::kDanglingRef, n.id,
          Name(n.id) + ": dashed edge targets " + Name(target.id) +
              ", not the registered entry point of the declared relation");
    }
  }

  /// Every relation's registered node triple is wired into the hierarchy.
  void CheckRegisteredRelations() {
    for (nf2::RelationId rel = 0; rel < catalog_.num_relations(); ++rel) {
      NodeId rel_node = graph_.RelationNode(rel);
      NodeId co = graph_.ComplexObjectNode(rel);
      if (InRange(co) && InRange(rel_node) &&
          graph_.node(co).solid_parent != rel_node) {
        Add(LintCode::kSolidCrossUnit, co,
            Name(co) + ": registered entry point is not contained in " +
                Name(rel_node));
      }
    }
  }

  /// Invariant 2: the solid+dashed graph is a DAG.
  void CheckAcyclic() {
    std::vector<Color> color(graph_.num_nodes(), Color::kWhite);
    struct Frame {
      NodeId node;
      size_t next_edge;
    };
    for (NodeId root = 0; root < graph_.num_nodes(); ++root) {
      if (color[root] != Color::kWhite) continue;
      std::vector<Frame> stack{{root, 0}};
      color[root] = Color::kGray;
      while (!stack.empty()) {
        Frame& frame = stack.back();
        std::vector<NodeId> edges = EdgesOf(frame.node);
        if (frame.next_edge >= edges.size()) {
          color[frame.node] = Color::kBlack;
          stack.pop_back();
          continue;
        }
        NodeId next = edges[frame.next_edge++];
        if (color[next] == Color::kGray) {
          // Back edge: report the cycle once and stop — one broken edge
          // tends to produce many overlapping cycles.
          std::ostringstream os;
          os << "lock graph is cyclic: ";
          bool in_cycle = false;
          for (const Frame& f : stack) {
            if (f.node == next) in_cycle = true;
            if (in_cycle) os << Name(f.node) << " -> ";
          }
          os << Name(next);
          Add(LintCode::kCycle, next, os.str());
          return;
        }
        if (color[next] == Color::kWhite) {
          color[next] = Color::kGray;
          stack.push_back({next, 0});
        }
      }
    }
  }

  /// Every inner-unit entry point must be reachable from an outer-unit
  /// root: BFS from the database nodes over solid containment and dashed
  /// reference edges (the paths implicit propagation travels).
  void CheckEntryPointReachability() {
    std::vector<bool> reached(graph_.num_nodes(), false);
    std::vector<NodeId> frontier;
    for (const Node& n : graph_.nodes()) {
      if (n.level == NodeLevel::kDatabase) {
        reached[n.id] = true;
        frontier.push_back(n.id);
      }
    }
    while (!frontier.empty()) {
      NodeId id = frontier.back();
      frontier.pop_back();
      for (NodeId next : EdgesOf(id)) {
        if (!reached[next]) {
          reached[next] = true;
          frontier.push_back(next);
        }
      }
    }
    for (const Node& n : graph_.nodes()) {
      if (n.level == NodeLevel::kComplexObject && !reached[n.id]) {
        Add(LintCode::kUnreachableEntryPoint, n.id,
            Name(n.id) +
                ": entry point unreachable from every database root — "
                "implicit locks can never arrive here (§4.3 rule 4, "
                "§4.4.2)");
      }
    }
  }

  std::vector<NodeId> EdgesOf(NodeId id) const {
    std::vector<NodeId> edges;
    const Node& n = graph_.node(id);
    for (NodeId child : n.solid_children) {
      if (InRange(child)) edges.push_back(child);
    }
    if (n.dashed_target != kInvalidNode && InRange(n.dashed_target)) {
      edges.push_back(n.dashed_target);
    }
    return edges;
  }

  const LockGraph& graph_;
  const nf2::Catalog& catalog_;
  LintReport report_;
};

}  // namespace

std::string_view LintCodeName(LintCode code) {
  switch (code) {
    case LintCode::kDerivationRule:
      return "derivation-rule";
    case LintCode::kCycle:
      return "cycle";
    case LintCode::kMultipleEntryPoints:
      return "multiple-entry-points";
    case LintCode::kDanglingRef:
      return "dangling-ref";
    case LintCode::kSolidCrossUnit:
      return "solid-cross-unit";
    case LintCode::kParentChildMismatch:
      return "parent-child-mismatch";
    case LintCode::kBluHasChildren:
      return "blu-has-children";
    case LintCode::kUnreachableEntryPoint:
      return "unreachable-entry-point";
  }
  return "?";
}

std::string LintReport::ToJson() const {
  std::ostringstream os;
  os << "{\"ok\":" << (ok() ? "true" : "false")
     << ",\"nodes\":" << nodes_checked
     << ",\"relations\":" << relations_checked << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const LintFinding& f = findings[i];
    if (i > 0) os << ',';
    os << "{\"code\":\"" << LintCodeName(f.code) << "\",\"node\":";
    if (f.node == kInvalidNode) {
      os << "null";
    } else {
      os << f.node;
    }
    os << ",\"message\":\"" << JsonEscape(f.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string LintReport::ToString() const {
  std::ostringstream os;
  if (ok()) {
    os << "lock graph OK (" << nodes_checked << " nodes, "
       << relations_checked << " relations checked)\n";
    return os.str();
  }
  os << findings.size() << " lock-graph violation(s):\n";
  for (const LintFinding& f : findings) {
    os << "  [" << LintCodeName(f.code) << "] " << f.message << '\n';
  }
  return os.str();
}

LintReport LintLockGraph(const LockGraph& graph, const nf2::Catalog& catalog) {
  return Linter(graph, catalog).Run();
}

}  // namespace codlock::logra
