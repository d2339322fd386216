/// \file parser.h
/// \brief Parser for the paper's HDBL-style query notation (Fig. 3).
///
/// The paper writes its examples "in a query language which is an
/// extension of SQL" (HDBL, the query language of AIM-P).  This parser
/// accepts exactly the shape of those examples:
///
/// \code
///   SELECT o FROM c IN cells, o IN c.c_objects
///     WHERE c.cell_id = 'c1' FOR READ
///   SELECT r FROM c IN cells, r IN c.robots
///     WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE
/// \endcode
///
/// and lowers them to `query::Query` (relation + object selection +
/// navigation path + access kind), i.e. precisely the information query
/// analysis needs (§4.1).  Supported subset:
///
///  * `FROM v IN relation` — the range over a relation (first binding),
///  * `FROM ... , v IN w.attr` — range over a collection attribute of an
///    earlier binding (navigation); each variable is bound once,
///  * `WHERE v.keyattr = 'literal'` — equality on *key* attributes, which
///    select either the complex object (root key) or one collection
///    element (element key); conjunctions with AND, at most one
///    predicate per variable,
///  * `FOR READ | FOR UPDATE | FOR DELETE` (keywords, in any case).
///
/// Anything else (non-key predicates, joins, projections with
/// expressions) is outside the lock-relevant fragment and rejected with a
/// clear error.

#ifndef CODLOCK_QUERY_PARSER_H_
#define CODLOCK_QUERY_PARSER_H_

#include <string_view>

#include "nf2/schema.h"
#include "query/query.h"
#include "util/result.h"

namespace codlock::query {

/// Parses \p text against \p catalog into a `Query`.  Errors are
/// InvalidArgument (syntax, or outside the fragment) or NotFound (an
/// unknown relation or attribute).
Result<Query> ParseQuery(const nf2::Catalog& catalog, std::string_view text);

}  // namespace codlock::query

#endif  // CODLOCK_QUERY_PARSER_H_
