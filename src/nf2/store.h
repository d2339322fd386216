/// \file store.h
/// \brief In-memory instance store for extended NF² complex objects.
///
/// The store plays the role of the host DBMS's object storage (System R /
/// XSQL / AIM-P in the paper): it holds the complex objects the lock
/// protocols synchronize, assigns instance ids to every lockable
/// sub-object, resolves navigation paths, and — for the naive DAG baseline —
/// performs the full scan needed to find all parents referencing a shared
/// object ("It is a very time-consuming task to find out which robots are
/// affected", §3.2.2).
///
/// Thread-safety: structural operations (insert/erase) and lookups are
/// internally synchronized per relation by read-mostly structure latches
/// (util/read_mostly_latch.h): every transaction reads through them, and
/// only structural updates write.  Mutation of attribute *values* inside
/// stored objects is protected by the lock protocols themselves — that is
/// precisely the property the library exists to provide.

#ifndef CODLOCK_NF2_STORE_H_
#define CODLOCK_NF2_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nf2/schema.h"
#include "nf2/value.h"
#include "util/read_mostly_latch.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace codlock::nf2 {

/// \brief A stored complex object: root tuple value plus identity.
struct Object {
  RelationId relation = kInvalidRelation;
  ObjectId id = kInvalidObject;
  /// Value of the key attribute (empty if the relation has no key).
  std::string key;
  Value root;
};

/// \brief One resolved navigation step: schema attribute + value node.
///
/// The instance id is captured during navigation (under the structure
/// latch): lock resources must be derivable from a ResolvedPath without
/// dereferencing `value`, whose pointee may be relocated by a structural
/// update after the latch is dropped (re-resolve via `FindIid` once
/// transaction locks are held before touching `value`).
struct ResolvedStep {
  AttrId attr = kInvalidAttr;
  const Value* value = nullptr;
  Iid iid = kInvalidIid;
};

/// \brief A fully resolved path inside one complex object.
///
/// `steps[0]` is the object's root tuple; each later entry descends one
/// schema level.  Collection element selection contributes two entries:
/// the collection node and the selected element.
struct ResolvedPath {
  RelationId relation = kInvalidRelation;
  ObjectId object = kInvalidObject;
  std::vector<ResolvedStep> steps;

  const Value* target() const { return steps.back().value; }
  AttrId target_attr() const { return steps.back().attr; }
  Iid target_iid() const { return steps.back().iid; }
};

/// \brief A path from the root of a referencing object down to a ref leaf
/// that targets some shared object (result of `FindReferencing`).
struct BackRefPath {
  RelationId relation = kInvalidRelation;
  ObjectId object = kInvalidObject;
  /// (attribute, instance id) chain, root tuple first, ref leaf last.
  std::vector<std::pair<AttrId, Iid>> chain;
};

/// \brief In-memory store of complex objects for a whole catalog.
class InstanceStore {
 public:
  explicit InstanceStore(const Catalog* catalog) : catalog_(catalog) {}

  InstanceStore(const InstanceStore&) = delete;
  InstanceStore& operator=(const InstanceStore&) = delete;

  /// Validates \p root against the relation's schema, assigns instance ids
  /// to every node, indexes the key attribute, and stores the object.
  Result<ObjectId> Insert(RelationId rel, Value root);

  /// Removes an object. Fails with NotFound for unknown ids.  Does not
  /// check inbound references (reference integrity on delete is the
  /// application's concern, as in the paper's delete-robot example §4.5).
  Status Erase(RelationId rel, ObjectId id);

  /// Looks up an object by surrogate.
  Result<const Object*> Get(RelationId rel, ObjectId id) const;

  /// Looks up an object by key attribute value (e.g. "c1", "r2").
  Result<const Object*> FindByKey(RelationId rel, const std::string& key) const;

  /// Resolves \p path below object \p id of relation \p rel.
  ///
  /// The resolved chain stops at a ref leaf if the path ends there;
  /// dereferencing into common data is a separate `Deref` call — mirroring
  /// the unit boundary ("dashed line") of the lock graphs.
  Result<ResolvedPath> Navigate(RelationId rel, ObjectId id,
                                const Path& path) const;

  /// Follows a reference to its target object.
  Result<const Object*> Deref(const RefValue& ref) const;

  /// Appends \p elem to the collection at \p coll_path inside object
  /// \p id, validating it against the collection's element type and
  /// assigning fresh instance ids.  Returns the new element's root iid.
  ///
  /// The caller must hold an exclusive lock on the collection (phantom
  /// protection, see query::QueryExecutor::ExecuteInsert): appending
  /// relocates the collection's element buffer, which is safe exactly
  /// because readers of those elements hold conflicting locks.
  Result<Iid> AddElement(RelationId rel, ObjectId id, const Path& coll_path,
                         Value elem);

  /// Removes the element whose key attribute equals \p elem_key from the
  /// collection at \p coll_path.  Same locking requirement as AddElement.
  Status RemoveElement(RelationId rel, ObjectId id, const Path& coll_path,
                       const std::string& elem_key);

  /// All distinct references contained in the value tree \p v.
  static std::vector<RefValue> CollectRefs(const Value& v);

  /// Scans *all* objects of *all* relations that may reference
  /// \p target_rel and returns the paths of every ref leaf pointing at
  /// \p target_obj.  \p scanned_nodes (optional) is incremented by the
  /// number of value nodes visited — the cost the naive DAG protocol pays.
  std::vector<BackRefPath> FindReferencing(RelationId target_rel,
                                           ObjectId target_obj,
                                           uint64_t* scanned_nodes) const;

  /// Ids of all objects currently stored in \p rel (snapshot).
  std::vector<ObjectId> ObjectsOf(RelationId rel) const;

  size_t ObjectCount(RelationId rel) const;

  /// Assigns fresh instance ids to every node of \p v (used for subtrees
  /// added to stored objects after insertion).
  void AssignIids(Value* v);

  /// Instance id of the root tuple of object \p id — the lock resource of
  /// an inner unit's entry point.
  Result<Iid> RootIid(RelationId rel, ObjectId id) const;

  /// Reverse lookup from an instance id to its owning object and value
  /// node (used by the protocol validator to expand the data coverage of
  /// held locks).  Only objects currently in the store are indexed; the
  /// returned pointer is valid while the object stays stored and
  /// structurally unmodified.
  struct IidInfo {
    RelationId relation = kInvalidRelation;
    ObjectId object = kInvalidObject;
    const Value* value = nullptr;
  };
  Result<IidInfo> FindIid(Iid iid) const;

  const Catalog& catalog() const { return *catalog_; }

  /// Monotone counter bumped by every operation that may change stored
  /// values (Insert/Erase/AddElement/RemoveElement).  Consumers
  /// deriving caches from stored data — e.g. the complex-object protocol's
  /// downward-propagation memo — compare epochs to invalidate.  Bumps are
  /// conservative: a mutator that ends up failing may still bump.
  uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }

 private:
  void BumpMutationEpoch() {
    mutation_epoch_.fetch_add(1, std::memory_order_release);
  }

  /// One relation's objects behind its structure latch.  Latch order:
  /// a relation's `mu`, then `iid_mu_`; no path takes a latch it holds.
  struct RelationStore {
    mutable ReadMostlyLatch mu;
    std::unordered_map<ObjectId, std::unique_ptr<Object>> objects
        CODLOCK_GUARDED_BY(mu);
    std::unordered_map<std::string, ObjectId> by_key CODLOCK_GUARDED_BY(mu);
  };

  RelationStore& StoreFor(RelationId rel) const CODLOCK_EXCLUDES(stores_mu_);

  /// Navigation core; the caller holds \p rs's structure latch, where
  /// \p rs is `StoreFor(rel)`.
  Result<ResolvedPath> NavigateLocked(const RelationStore& rs,
                                      RelationId rel, ObjectId id,
                                      const Path& path) const
      CODLOCK_REQUIRES_SHARED(rs.mu);

  void IndexIids(const Value& v, RelationId rel, ObjectId obj)
      CODLOCK_EXCLUDES(iid_mu_);
  void UnindexIids(const Value& v) CODLOCK_EXCLUDES(iid_mu_);

  const Catalog* catalog_;
  std::atomic<uint64_t> mutation_epoch_{1};
  std::atomic<ObjectId> next_object_{1};
  /// Iids count up from 1 and stay below 2^63: bit 63 of a lock
  /// resource's instance is reserved for the lock manager's lanes
  /// (lock/resource.h), and `AssignIids` asserts it in debug builds.
  std::atomic<Iid> next_iid_{1};
  /// Written only at a relation's first use (`StoreFor`).
  mutable ReadMostlyLatch stores_mu_;
  mutable std::unordered_map<RelationId, std::unique_ptr<RelationStore>>
      stores_ CODLOCK_GUARDED_BY(stores_mu_);
  mutable ReadMostlyLatch iid_mu_;
  std::unordered_map<Iid, IidInfo> iid_index_ CODLOCK_GUARDED_BY(iid_mu_);
};

}  // namespace codlock::nf2

#endif  // CODLOCK_NF2_STORE_H_
