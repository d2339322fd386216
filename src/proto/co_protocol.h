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

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "authz/authz.h"
#include "proto/protocol.h"
#include "util/read_mostly_latch.h"
#include "util/thread_annotations.h"

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

  /// Key of (relation, object) in visited sets and the propagation memo.
  ///
  /// A full-avalanche mix of both components: the earlier
  /// `(rel << 48) ^ obj` aliased systematically whenever object ids used
  /// bit 48 and above (e.g. (rel=1, obj=0) and (rel=0, obj=1<<48) mapped to
  /// the same key, silently skipping a propagation step).  Packing 96 bits
  /// into 64 cannot be injective, but the mix turns residual collisions
  /// into data-independent birthday-bound events instead of structural
  /// ones.  Public so tests can assert the old colliding pairs now differ.
  static constexpr uint64_t VisitKey(nf2::RelationId rel, nf2::ObjectId obj) {
    return Mix64(Mix64(static_cast<uint64_t>(rel) + 0x9E3779B97F4A7C15ULL) ^
                 Mix64(obj + 0xBF58476D1CE4E5B9ULL));
  }

 private:
  using Visited = std::unordered_set<uint64_t>;

  /// splitmix64 finalizer (bijective on uint64).
  static constexpr uint64_t Mix64(uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

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
                       LockMode mode, Visited* visited);

  /// Locks a single entry point including implicit upward propagation and
  /// the downward recursion into its own referenced data.
  Status LockEntryPointInternal(txn::Transaction& txn,
                                const nf2::RefValue& ref, LockMode mode,
                                Visited* visited);

  /// Downward propagation from a singleton granule (relation/segment/
  /// database level S/X lock): covers every object in scope.
  Status PropagateDownFromSingleton(txn::Transaction& txn,
                                    logra::NodeId node, LockMode mode,
                                    Visited* visited);

  /// The distinct refs contained in (rel, obj)'s value tree, memoized per
  /// (relation, object) and revalidated against the store's mutation
  /// epoch.  Precondition: the calling transaction holds an S/X lock
  /// covering the object (the entry point itself, or a relation/segment/
  /// database singleton above it), so no writer can be mutating the value
  /// tree — which is what makes a fill safe to share across transactions.
  Result<std::vector<nf2::RefValue>> ObjectRefs(nf2::RelationId rel,
                                                nf2::ObjectId obj);

  const logra::LockGraph* graph_;
  const nf2::InstanceStore* store_;
  lock::LockManager* lm_;
  const authz::AuthorizationManager* authz_;
  Options options_;

  /// Guards the refs memo below.  Lookups take it shared, a fill and the
  /// epoch's clear exclusive.  Leaf latch: taken only from protocol code
  /// with no lock-manager mutex or store latch held.
  mutable ReadMostlyLatch memo_mu_;
  /// store_->mutation_epoch() value the refs memo was filled under; a
  /// mismatch at lookup means stored values may have changed and the whole
  /// table is dropped.
  uint64_t memo_epoch_ CODLOCK_GUARDED_BY(memo_mu_) = 0;
  /// VisitKey(rel, obj) → distinct refs in the object's value tree.
  std::unordered_map<uint64_t, std::vector<nf2::RefValue>> refs_memo_
      CODLOCK_GUARDED_BY(memo_mu_);
};

}  // namespace codlock::proto

#endif  // CODLOCK_PROTO_CO_PROTOCOL_H_
