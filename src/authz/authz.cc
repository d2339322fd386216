#include "authz/authz.h"

namespace codlock::authz {

Status AuthorizationManager::Grant(UserId user, nf2::RelationId rel,
                                   Right right) {
  if (user == kInvalidUser) {
    return Status::InvalidArgument("invalid user id");
  }
  WriterLock lk(mu_);
  grants_.insert(Key{user, rel, right});
  return Status::OK();
}

void AuthorizationManager::Revoke(UserId user, nf2::RelationId rel,
                                  Right right) {
  WriterLock lk(mu_);
  grants_.erase(Key{user, rel, right});
}

void AuthorizationManager::GrantAll(UserId user, const nf2::Catalog& catalog) {
  WriterLock lk(mu_);
  for (nf2::RelationId rel = 0; rel < catalog.num_relations(); ++rel) {
    grants_.insert(Key{user, rel, Right::kRead});
    grants_.insert(Key{user, rel, Right::kModify});
  }
}

bool AuthorizationManager::Has(UserId user, nf2::RelationId rel,
                               Right right) const {
  ReaderLock lk(mu_);
  return grants_.contains(Key{user, rel, right});
}

}  // namespace codlock::authz
