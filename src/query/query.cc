#include "query/query.h"

namespace codlock::query {

std::string_view AccessKindName(AccessKind kind) {
  switch (kind) {
    case AccessKind::kRead:
      return "READ";
    case AccessKind::kUpdate:
      return "UPDATE";
    case AccessKind::kDelete:
      return "DELETE";
  }
  return "?";
}

std::string Query::ToString() const {
  std::string out = name.empty() ? "query" : name;
  out += ": relation " + std::to_string(relation);
  if (!object_key.empty()) out += " object '" + object_key + "'";
  if (!path.empty()) out += " path " + nf2::PathToString(path);
  out += " FOR " + std::string(AccessKindName(kind));
  if (selectivity < 1.0) {
    out += " (selectivity " + std::to_string(selectivity) + ")";
  }
  return out;
}

Query MakeQ1(nf2::RelationId cells) {
  Query q;
  q.name = "Q1";
  q.relation = cells;
  q.object_key = "c1";
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = AccessKind::kRead;
  return q;
}

Query MakeQ2(nf2::RelationId cells) {
  Query q;
  q.name = "Q2";
  q.relation = cells;
  q.object_key = "c1";
  q.path = {nf2::PathStep::Elem("robots", "r1")};
  q.kind = AccessKind::kUpdate;
  return q;
}

Query MakeQ3(nf2::RelationId cells) {
  Query q;
  q.name = "Q3";
  q.relation = cells;
  q.object_key = "c1";
  q.path = {nf2::PathStep::Elem("robots", "r2")};
  q.kind = AccessKind::kUpdate;
  return q;
}

}  // namespace codlock::query
