/// \file authz.h
/// \brief Authorization component.
///
/// §3.2.3: "A close cooperation of the concurrency control component and
/// the authorization component (which administrates the access rights of
/// all transactions (users)), can drastically increase the degree of
/// concurrency."  Rule 4′ of the lock protocol consults this component
/// during implicit downward propagation: inner units the transaction has
/// no right to modify are locked S instead of X.
///
/// Rights are administered per *user* and *relation* — matching the
/// paper's assumption that shared data lives in relations of its own, so a
/// unit is (non-)modifiable exactly when its relation is.

#ifndef CODLOCK_AUTHZ_AUTHZ_H_
#define CODLOCK_AUTHZ_AUTHZ_H_

#include <cstdint>
#include <unordered_set>

#include "nf2/schema.h"
#include "util/read_mostly_latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace codlock::authz {

using UserId = uint64_t;

inline constexpr UserId kInvalidUser = 0;

/// Access rights a user may hold on a relation.
enum class Right : uint8_t {
  kRead,    ///< may read objects of the relation
  kModify,  ///< may insert/update/delete objects of the relation
};

/// \brief Administers access rights of all users.
///
/// Thread-safe.  A freshly created manager grants nothing; examples and
/// benchmarks set rights up-front (DCL precedes the workload), so the
/// table sits behind a read-mostly latch: rule 4′ reads it on every
/// propagated X, and only `Grant`, `GrantAll` and `Revoke` write.
class AuthorizationManager {
 public:
  /// Grants \p right on \p rel to \p user.
  Status Grant(UserId user, nf2::RelationId rel, Right right);

  /// Revokes \p right on \p rel from \p user (no-op if absent).
  void Revoke(UserId user, nf2::RelationId rel, Right right);

  /// Grants read+modify on every relation of \p catalog to \p user.
  void GrantAll(UserId user, const nf2::Catalog& catalog);

  /// True if \p user holds \p right on \p rel.
  bool Has(UserId user, nf2::RelationId rel, Right right) const;

  bool CanRead(UserId user, nf2::RelationId rel) const {
    return Has(user, rel, Right::kRead);
  }

  /// The predicate rule 4′ depends on: is the unit rooted in \p rel a
  /// *modifiable unit* for \p user?
  bool CanModify(UserId user, nf2::RelationId rel) const {
    return Has(user, rel, Right::kModify);
  }

 private:
  struct Key {
    UserId user;
    nf2::RelationId rel;
    Right right;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.user * 0x9E3779B97F4A7C15ULL;
      h ^= (static_cast<uint64_t>(k.rel) << 8) |
           static_cast<uint64_t>(k.right);
      h *= 0xBF58476D1CE4E5B9ULL;
      return static_cast<size_t>(h ^ (h >> 31));
    }
  };

  mutable ReadMostlyLatch mu_;
  std::unordered_set<Key, KeyHash> grants_ CODLOCK_GUARDED_BY(mu_);
};

}  // namespace codlock::authz

#endif  // CODLOCK_AUTHZ_AUTHZ_H_
