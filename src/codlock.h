/// \file codlock.h
/// \brief Umbrella header for the codlock library.
///
/// codlock implements the lock technique for disjoint and non-disjoint
/// complex objects of Herrmann, Dadam, Küspert, Roman and Schlageter
/// (EDBT 1990), together with the substrates it needs (an extended-NF²
/// data model, a multi-granularity lock manager, transactions,
/// authorization, a workstation–server check-out layer) and the baselines
/// it is evaluated against.
///
/// Typical usage (see examples/quickstart.cpp for the full walk-through):
/// \code
///   sim::CellsFixture f = sim::BuildCellsEffectors();   // Fig. 1 schema
///   sim::Engine eng(f.catalog.get(), f.store.get());    // wire the stack
///   eng.authorization().Grant(user, f.cells, authz::Right::kModify);
///   auto result = eng.RunShortTxn(user, query::MakeQ2(f.cells));
/// \endcode

#ifndef CODLOCK_CODLOCK_H_
#define CODLOCK_CODLOCK_H_

#include "authz/authz.h"
#include "lock/lock_manager.h"
#include "lock/long_lock_store.h"
#include "lock/mode.h"
#include "lock/resource.h"
#include "logra/lock_graph.h"
#include "nf2/schema.h"
#include "nf2/serialize.h"
#include "nf2/store.h"
#include "nf2/value.h"
#include "proto/co_protocol.h"
#include "proto/protocol.h"
#include "proto/sysr_protocol.h"
#include "proto/validator.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/query.h"
#include "query/statistics.h"
#include "sim/engine.h"
#include "sim/fixtures.h"
#include "sim/harness.h"
#include "sim/open_workload.h"
#include "txn/txn_manager.h"
#include "txn/undo_log.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "ws/server.h"

#endif  // CODLOCK_CODLOCK_H_
