/// \file query.h
/// \brief The query model: path queries over complex objects.
///
/// Queries mirror the HDBL-style examples of Fig. 3:
///
/// \code
///   Q1: SELECT o FROM c IN cells, o IN c.c_objects
///       WHERE c.cell_id = 'c1' FOR READ
///   Q2: SELECT r FROM c IN cells, r IN c.robots
///       WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE
/// \endcode
///
/// A query names a relation, selects objects (by key, or all), navigates a
/// path below the object root, and declares its access kind.  This is
/// exactly the information the lock planner needs (§4.1: "Each query ...
/// is first analyzed to find out which attributes will be accessed, and
/// which kind of access ... will be done").

#ifndef CODLOCK_QUERY_QUERY_H_
#define CODLOCK_QUERY_QUERY_H_

#include <string>

#include "nf2/schema.h"
#include "nf2/value.h"

namespace codlock::query {

/// Kind of access a query performs on its target.
enum class AccessKind : uint8_t {
  kRead,    ///< FOR READ
  kUpdate,  ///< FOR UPDATE (in-place modification of the target subtree)
  kDelete,  ///< deletion of the target (a §4.5 example: the common data a
            ///< deleted object references is itself not accessed)
};

std::string_view AccessKindName(AccessKind kind);

/// \brief A path query over one relation.
struct Query {
  std::string name;  ///< label for reports ("Q1", ...)
  nf2::RelationId relation = nf2::kInvalidRelation;
  /// Key of the selected complex object; empty selects all objects.
  std::string object_key;
  /// Navigation below the object root; empty accesses the whole object.
  nf2::Path path;
  AccessKind kind = AccessKind::kRead;
  /// When the path ends at a collection without element selection: the
  /// expected fraction of its elements the query touches (WHERE-clause
  /// selectivity estimate).  1.0 = all elements.
  double selectivity = 1.0;
  /// False when the query's semantics guarantee the referenced common
  /// data is not accessed (§4.5).
  bool access_implies_refs = true;

  bool is_write() const { return kind != AccessKind::kRead; }

  std::string ToString() const;
};

/// The three example queries of Fig. 3 against the Fig. 1 schema.
Query MakeQ1(nf2::RelationId cells);
Query MakeQ2(nf2::RelationId cells);
Query MakeQ3(nf2::RelationId cells);

}  // namespace codlock::query

#endif  // CODLOCK_QUERY_QUERY_H_
