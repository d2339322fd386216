#include "query/planner.h"

#include <cmath>
#include <sstream>

namespace codlock::query {

std::string_view GranulePolicyName(GranulePolicy policy) {
  switch (policy) {
    case GranulePolicy::kWholeObject:
      return "whole-object";
    case GranulePolicy::kTuple:
      return "tuple";
    case GranulePolicy::kOptimal:
      return "optimal";
  }
  return "?";
}

std::string QuerySpecificLockGraph::ToString(
    const logra::LockGraph& graph) const {
  std::ostringstream os;
  for (const Entry& e : entries) {
    os << "  " << graph.NodeName(e.node) << " <- "
       << lock::LockModeName(e.mode);
    if (e.per_element) os << " (per element)";
    os << '\n';
  }
  return os.str();
}

Result<QueryPlan> LockPlanner::Plan(const Query& query) const {
  if (query.relation == nf2::kInvalidRelation ||
      query.relation >= catalog_->num_relations()) {
    return Status::InvalidArgument("query names an unknown relation");
  }
  const nf2::RelationDef& rdef = catalog_->relation(query.relation);

  QueryPlan plan;
  plan.policy = options_.policy;
  plan.target_mode = query.is_write() ? LockMode::kX : LockMode::kS;
  plan.access_implies_refs = query.access_implies_refs;
  const LockMode intention = lock::IntentionFor(plan.target_mode);

  // The query-specific lock graph in rule 5 order: the outer unit's root
  // chain, then every node the path visits, all with intention modes for
  // now.  Walking the path resolves it against the schema, once, and so
  // validates it before any data is accessed (query analysis).
  std::vector<QuerySpecificLockGraph::Entry>& entries = plan.qslg.entries;
  entries.reserve(8 + 2 * query.path.size());
  auto add = [&entries](logra::NodeId node, LockMode mode, bool per_element) {
    entries.push_back(QuerySpecificLockGraph::Entry{node, mode, per_element});
  };
  add(graph_->DatabaseNode(rdef.database), intention, false);
  add(graph_->SegmentNode(rdef.segment), intention, false);
  add(graph_->RelationNode(query.relation), intention, false);
  nf2::AttrId target_attr = rdef.root;
  add(graph_->NodeForAttr(target_attr), intention, false);
  for (const nf2::PathStep& step : query.path) {
    Result<nf2::AttrId> field =
        catalog_->FindField(target_attr, step.attr_name);
    if (!field.ok()) return field.status();
    target_attr = *field;
    add(graph_->NodeForAttr(target_attr), intention, false);
    if (step.selects_element()) {
      Result<nf2::AttrId> elem = catalog_->ElementAttr(target_attr);
      if (!elem.ok()) return elem.status();
      target_attr = *elem;
      add(graph_->NodeForAttr(target_attr), intention, false);
    }
  }

  switch (options_.policy) {
    case GranulePolicy::kWholeObject:
      // The whole complex object, references included, behind one lock.
      plan.lock_path = {};
      plan.per_element = false;
      plan.expected_target_locks = 1.0;
      break;

    case GranulePolicy::kTuple: {
      plan.lock_path = query.path;
      const nf2::AttrDef& def = catalog_->attr(target_attr);
      // "Locking each single tuple individually": a collection target is
      // locked element by element, regardless of how many there are.
      plan.per_element = nf2::IsCollection(def.kind);
      plan.expected_target_locks =
          plan.per_element
              ? std::max(1.0, query.selectivity *
                                  stats_->CardinalityOf(target_attr))
              : 1.0;
      break;
    }

    case GranulePolicy::kOptimal: {
      plan.lock_path = query.path;
      const nf2::AttrDef& def = catalog_->attr(target_attr);
      if (nf2::IsCollection(def.kind)) {
        // Anticipated escalation: estimate the fine-granule lock count;
        // if it exceeds θ, lock the collection HoLU up-front instead.
        double expected = std::max(
            1.0, query.selectivity * stats_->CardinalityOf(target_attr));
        if (expected <= options_.escalation_threshold) {
          plan.per_element = true;
          plan.expected_target_locks = expected;
        } else {
          plan.per_element = false;
          plan.expected_target_locks = 1.0;
        }
      } else {
        plan.per_element = false;
        plan.expected_target_locks = 1.0;
      }
      // Whole-object accesses collapse to the complex-object granule.
      if (query.path.empty()) {
        plan.lock_path = {};
        plan.per_element = false;
      }
      break;
    }
  }

  // The last node gets the target mode — unless per-element locking is
  // planned, in which case the collection node keeps its intention mode
  // and the element node is marked.
  if (plan.per_element) {
    Result<nf2::AttrId> elem = catalog_->ElementAttr(target_attr);
    if (elem.ok()) {
      add(graph_->NodeForAttr(*elem), plan.target_mode, true);
    }
  } else {
    entries.back().mode = plan.target_mode;
  }

  // Anticipated downward propagation: entry points of shared relations
  // reachable from the target node appear in the query-specific lock
  // graph with the mode rule 4/4′ will request (shown as S here; the
  // protocol decides S vs X per transaction rights at run time).
  if (plan.access_implies_refs &&
      (plan.target_mode == LockMode::kS || plan.target_mode == LockMode::kX)) {
    for (nf2::RelationId shared :
         graph_->ReachableSharedRelations(entries.back().node)) {
      const nf2::RelationDef& sdef = catalog_->relation(shared);
      add(graph_->DatabaseNode(sdef.database), LockMode::kIS, false);
      add(graph_->SegmentNode(sdef.segment), LockMode::kIS, false);
      add(graph_->RelationNode(shared), LockMode::kIS, false);
      add(graph_->ComplexObjectNode(shared), LockMode::kS, false);
    }
  }
  return plan;
}

}  // namespace codlock::query
