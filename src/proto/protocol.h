/// \file protocol.h
/// \brief Lock protocol interface and lock targets.
///
/// A lock protocol implements the *rules for explicitly requesting locks*
/// (§4.4): given a target granule (a lock-graph node instance reached via a
/// concrete access path) and a requested mode, it acquires the target lock
/// plus every ancillary lock its rules demand (intention locks on parents,
/// implicit upward/downward propagation, ...).
///
/// Which granule to request in which mode is *not* the protocol's decision:
/// that is the query layer's granule policy / query-specific lock graph
/// (§4.5).  Keeping the two concerns separate lets benchmarks combine any
/// protocol with any granule policy — exactly the comparisons of the
/// paper's §3/§4.6.

#ifndef CODLOCK_PROTO_PROTOCOL_H_
#define CODLOCK_PROTO_PROTOCOL_H_

#include <string_view>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/mode.h"
#include "logra/lock_graph.h"
#include "nf2/store.h"
#include "txn/txn_manager.h"
#include "util/status.h"

namespace codlock::proto {

using lock::LockMode;

/// \brief A concrete lock target: a lock-graph node instance plus the full
/// access path from the database root used to reach it.
///
/// `path[0]` is always the database node (instance 0); the last element is
/// the target itself.  The path never crosses a dashed (reference) edge —
/// entering an inner unit is a separate `LockEntryPoint` call, mirroring
/// the unit boundary of the lock graphs.
struct LockTarget {
  /// The granules from the database node down to the target: each a
  /// lock-graph node and its instance id.
  std::vector<lock::ResourceId> path;
  /// Relation/object context of the value-level part of the path
  /// (kInvalidRelation for database/segment/relation-level targets).
  nf2::RelationId relation = nf2::kInvalidRelation;
  nf2::ObjectId object = nf2::kInvalidObject;
  /// Value node backing the target (nullptr for singleton granules).
  const nf2::Value* value = nullptr;
  /// §4.5 query-semantics hook: when false, accessing this target does
  /// *not* imply accessing the referenced common data (e.g. deleting a
  /// robot without the right to delete effectors), so a protocol may skip
  /// downward propagation entirely.
  bool access_implies_refs = true;

  logra::NodeId target_node() const { return path.back().node; }
  nf2::Iid target_iid() const { return path.back().instance; }
};

/// Builds a `LockTarget` from a resolved navigation path: the database,
/// segment and relation chain followed by one entry per resolved step.
LockTarget MakeTarget(const logra::LockGraph& graph,
                      const nf2::Catalog& catalog,
                      const nf2::ResolvedPath& resolved);

/// Builds the singleton target for a database/segment/relation node.
LockTarget MakeSingletonTarget(const logra::LockGraph& graph,
                               logra::NodeId node);

/// Builds the target for the *whole complex object* \p obj of \p rel
/// (the complex-object HeLU instance — XSQL's "complex object" granule).
Result<LockTarget> MakeObjectTarget(const logra::LockGraph& graph,
                                    const nf2::Catalog& catalog,
                                    const nf2::InstanceStore& store,
                                    nf2::RelationId rel, nf2::ObjectId obj);

/// \brief Abstract lock protocol (rules for explicitly requesting locks).
class LockProtocol {
 public:
  virtual ~LockProtocol() = default;

  /// Protocol name for reports ("complex-object", "sysr-dag", ...).
  virtual std::string_view name() const = 0;

  /// Acquires \p mode (IS, IX, S or X) on the target of \p path for
  /// transaction \p txn, plus all ancillary locks the protocol requires.
  ///
  /// On failure (deadlock, timeout) locks already acquired remain held and
  /// the caller is expected to abort the transaction, which releases
  /// everything (strict 2PL).
  virtual Status Lock(txn::Transaction& txn, const LockTarget& target,
                      LockMode mode) = 0;

  /// Crosses a dashed edge: acquires \p mode on the entry point of the
  /// inner unit referenced by \p ref_path's target (which must be a ref
  /// BLU), plus whatever the protocol's rules require.
  virtual Status LockEntryPoint(txn::Transaction& txn,
                                const LockTarget& ref_path,
                                LockMode mode) = 0;

  /// Locks the common data referenced by a value that is *about to be
  /// inserted* (structural update): the new references must be visible to
  /// from-the-side accessors before the element becomes reachable.  The
  /// default is a no-op — the traditional protocols never propagate.
  virtual Status LockNewValueRefs(txn::Transaction& txn, const nf2::Value& v,
                                  LockMode mode) {
    (void)txn;
    (void)v;
    (void)mode;
    return Status::OK();
  }
};

/// \brief Effective (explicit + implicit) mode a transaction holds on the
/// last node of \p path: the explicit mode there, joined with S/X coverage
/// inherited from ancestors along the path (S and SIX cover descendants in
/// S; X covers them in X).
LockMode EffectiveModeOnPath(const lock::LockManager& lm, lock::TxnId txn,
                             const LockTarget& path);

}  // namespace codlock::proto

#endif  // CODLOCK_PROTO_PROTOCOL_H_
