/// \file planner.h
/// \brief Determination of "optimal" lock requests (§4.5, [HDKS89]).
///
/// The planner runs during query analysis — before any data is accessed —
/// and produces a **query-specific lock graph**: for every lock-graph node
/// the query will traverse, the mode to request, and for the query's
/// target the chosen granule.  The mechanism is the *anticipation of lock
/// escalations*: from structural statistics the planner estimates how many
/// fine-granule locks a query would take; when that count exceeds the
/// escalation threshold θ it requests the coarser granule up-front, so no
/// run-time escalation (with its overhead and deadlock risk) ever occurs.
/// Granules are "neither too coarse (data would be blocked unnecessarily)
/// nor too small (high overhead would result)"; modes are the least
/// restrictive necessary.
///
/// Besides the paper's optimal policy the planner implements the two
/// baseline granule policies of §3:
///  * whole-object locking (XSQL's "complex object" granule),
///  * tuple-level locking ("locking each single tuple individually").

#ifndef CODLOCK_QUERY_PLANNER_H_
#define CODLOCK_QUERY_PLANNER_H_

#include <string>
#include <vector>

#include "lock/mode.h"
#include "logra/lock_graph.h"
#include "query/query.h"
#include "query/statistics.h"

namespace codlock::query {

using lock::LockMode;

/// Granule selection policy.
enum class GranulePolicy : uint8_t {
  kWholeObject,  ///< always lock the complex object as a whole (§3.1 XSQL)
  kTuple,        ///< always lock the finest granules (element tuples)
  kOptimal,      ///< anticipated-escalation optimum (§4.5)
};

std::string_view GranulePolicyName(GranulePolicy policy);

/// \brief The query-specific lock graph: granule and mode information
/// determined during query analysis, consumed during query execution
/// (§4.1, §4.6 advantage 6).
struct QuerySpecificLockGraph {
  struct Entry {
    logra::NodeId node = logra::kInvalidNode;
    LockMode mode = LockMode::kNL;
    /// True: this collection's *elements* are locked individually in
    /// `mode` (the node itself receives the matching intention mode).
    bool per_element = false;
  };
  /// Root-to-leaf order (rule 5: locks are requested in this order).
  std::vector<Entry> entries;

  std::string ToString(const logra::LockGraph& graph) const;
};

/// \brief Executable lock plan for one query.
struct QueryPlan {
  GranulePolicy policy = GranulePolicy::kOptimal;
  /// Mode for the target granule (S for READ, X for UPDATE/DELETE).
  LockMode target_mode = LockMode::kS;
  /// Where to place the target lock: a prefix of (or the whole) query
  /// path.  Empty path = the complex-object node.
  nf2::Path lock_path;
  /// If the lock path ends at a collection: lock each touched element
  /// individually instead of the collection HoLU.
  bool per_element = false;
  /// Planner's estimate of target locks per object.
  double expected_target_locks = 1.0;
  /// Forwarded from the query (§4.5 semantics hook).
  bool access_implies_refs = true;
  /// The stored granule+mode information.
  QuerySpecificLockGraph qslg;
};

/// \brief Plans lock requests for queries.
class LockPlanner {
 public:
  struct Options {
    GranulePolicy policy = GranulePolicy::kOptimal;
    /// Escalation threshold θ: the planner never plans more than θ
    /// fine-granule target locks; above that it escalates in advance.
    double escalation_threshold = 16.0;
  };

  LockPlanner(const logra::LockGraph* graph, const nf2::Catalog* catalog,
              const Statistics* stats, Options options)
      : graph_(graph), catalog_(catalog), stats_(stats), options_(options) {}

  LockPlanner(const logra::LockGraph* graph, const nf2::Catalog* catalog,
              const Statistics* stats)
      : LockPlanner(graph, catalog, stats, Options()) {}

  /// Analyzes \p query and produces its plan + query-specific lock graph.
  Result<QueryPlan> Plan(const Query& query) const;

  const Options& options() const { return options_; }

 private:
  const logra::LockGraph* graph_;
  const nf2::Catalog* catalog_;
  const Statistics* stats_;
  Options options_;
};

}  // namespace codlock::query

#endif  // CODLOCK_QUERY_PLANNER_H_
