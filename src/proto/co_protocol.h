/// \file co_protocol.h
/// \brief The paper's lock protocol for disjoint and non-disjoint complex
/// objects (§4.4.2).
///
/// Rules implemented (numbering as in the paper):
///
///  1./2. **IS/IX** — on the root of an outer unit (the database node): no
///        prior locks needed.  On a non-root node: all immediate parents
///        (along the access path; units are hierarchical) must hold at
///        least IS/IX.  On an inner unit's entry point: the *referencing*
///        node must hold at least IS/IX, and the concurrency control
///        manager itself locks the entry point's immediate parents up to
///        the root of the superunit ("implicit upward propagation").
///
///  3./4. **S/X** — same parent conditions; additionally, before granting
///        S/X on any node, the concurrency control manager locks all entry
///        points of lower (dependent) inner units *accessible via the
///        requested node* in S/X ("implicit downward propagation").  This
///        makes locks on common data visible to from-the-side accessors.
///
///  4′.   **authorization-aware X** — during downward propagation of an X
///        request, entry points of inner units the transaction is *not*
///        entitled to modify are locked **S** instead of X, and modifiable
///        ones X.  (Solves the authorization-oriented problem; Q2 ∥ Q3.)
///
///  5.    Locks are requested root-to-leaf (the `Lock` call acquires the
///        access path in that order); release is at EOT via the
///        transaction manager (or leaf-to-root manually).
///
/// For disjoint complex objects (no references) no inner units exist and
/// the protocol degenerates to the classical DAG protocol of [GLPT76].

#ifndef CODLOCK_PROTO_CO_PROTOCOL_H_
#define CODLOCK_PROTO_CO_PROTOCOL_H_

#include <vector>

#include "authz/authz.h"
#include "proto/protocol.h"

namespace codlock::proto {

/// \brief The proposed protocol.
class ComplexObjectProtocol : public LockProtocol {
 public:
  struct Options {
    /// Use rule 4′ (authorization-aware downward propagation).  With
    /// false, plain rule 4 is used: X propagates X onto every reachable
    /// entry point (the E4 benchmark's ablation).
    bool use_rule4_prime = true;
    /// Acquire options forwarded to the lock manager.
    bool wait = true;
    uint64_t timeout_ms = 0;
  };

  ComplexObjectProtocol(const logra::LockGraph* graph,
                        const nf2::InstanceStore* store,
                        lock::LockManager* lock_manager,
                        const authz::AuthorizationManager* authz,
                        Options options)
      : graph_(graph),
        store_(store),
        lm_(lock_manager),
        authz_(authz),
        options_(options) {}

  ComplexObjectProtocol(const logra::LockGraph* graph,
                        const nf2::InstanceStore* store,
                        lock::LockManager* lock_manager,
                        const authz::AuthorizationManager* authz)
      : ComplexObjectProtocol(graph, store, lock_manager, authz, Options()) {}

  std::string_view name() const override {
    return options_.use_rule4_prime ? "complex-object(4')" : "complex-object";
  }

  Status Lock(txn::Transaction& txn, const LockTarget& target,
              LockMode mode) override;

  Status LockEntryPoint(txn::Transaction& txn, const LockTarget& ref_path,
                        LockMode mode) override;

  Status LockNewValueRefs(txn::Transaction& txn, const nf2::Value& v,
                          LockMode mode) override;

  /// De-escalation (§5 future work: "the efficient release of locks"):
  /// the transaction holds \p coarse (a collection HoLU) in S or X and
  /// narrows it — the elements at \p keep_indices are locked individually
  /// in the coarse mode, then the coarse lock is downgraded to the
  /// matching intention mode, releasing the rest of the collection for
  /// other transactions *before* EOT.
  Status Deescalate(txn::Transaction& txn, const LockTarget& coarse,
                    const std::vector<size_t>& keep_indices);

 private:
  /// The entry points one call has entered, kept sorted in propagation
  /// order and compared exactly.  A call enters a handful, so a flat
  /// vector serves; it allocates nothing until the first entry point.
  using Visited = std::vector<nf2::RefValue>;

  lock::AcquireOptions AcquireOpts(const txn::Transaction& txn) const {
    lock::AcquireOptions o;
    o.duration = txn.lock_duration();
    o.wait = options_.wait;
    o.timeout_ms = options_.timeout_ms;
    return o;
  }

  /// Implicit downward propagation (§4.4.2): locks all entry points of
  /// lower inner units reachable from value \p v, recursing through nested
  /// common data.  \p mode is the S/X mode being granted on the covering
  /// node.
  Status PropagateDown(txn::Transaction& txn, const nf2::Value& v,
                       LockMode mode, Visited* visited) const;

  /// Locks a single entry point including implicit upward propagation and
  /// the downward recursion into its own referenced data.
  Status LockEntryPointInternal(txn::Transaction& txn,
                                const nf2::RefValue& ref, LockMode mode,
                                Visited* visited) const;

  /// Downward propagation from a singleton granule (relation/segment/
  /// database level S/X lock): covers every object in scope.
  Status PropagateDownFromSingleton(txn::Transaction& txn,
                                    logra::NodeId node, LockMode mode,
                                    Visited* visited) const;

  /// The distinct refs contained in (rel, obj)'s value tree, in
  /// propagation order, read from the store.  Precondition: the calling
  /// transaction holds an S/X lock covering the object (the entry point
  /// itself, or a relation/segment/database singleton above it), so no
  /// writer can change or erase the value tree while it is walked.
  Result<std::vector<nf2::RefValue>> ObjectRefs(nf2::RelationId rel,
                                                nf2::ObjectId obj) const;

  // Set at construction and never written again: the protocol keeps no
  // state between calls.
  const logra::LockGraph* const graph_;
  const nf2::InstanceStore* const store_;
  lock::LockManager* const lm_;
  const authz::AuthorizationManager* const authz_;
  const Options options_;
};

}  // namespace codlock::proto

#endif  // CODLOCK_PROTO_CO_PROTOCOL_H_
