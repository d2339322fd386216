// Experiment E7 — the documented disadvantages (§4.6).
//
// "Disadvantages of the proposed lock technique are: 1. some additional
// but small overhead to determine (only once) the object- and
// query-specific lock graph before the execution of a query and 2. some
// additional overhead when only disjoint complex objects are exclusively
// accessed by a transaction."
//
// Measured here:
//  (a) one-time object-specific lock-graph construction cost per catalog,
//  (b) per-query planning (query-specific lock graph) cost,
//  (c) a disjoint-only workload under the proposed protocol vs. the
//      classical GLPT76 protocol — the lock sequences must be identical
//      (the protocol degenerates), so the runtime overhead is ~zero and
//      only the planning cost of (b) remains.

#include <cstring>
#include <iostream>

#include "bench_context.h"
#include "sim/fixtures.h"
#include "sim/harness.h"

using namespace codlock;

namespace {

bool g_json = false;

sim::WorkloadReport RunDisjoint(sim::SyntheticFixture& f,
                                sim::ProtocolChoice protocol,
                                const std::string& label) {
  sim::EngineOptions opts;
  opts.protocol = protocol;
  sim::Engine eng(f.catalog.get(), f.store.get(), opts);
  eng.authorization().Grant(1, f.main_relation, authz::Right::kRead);
  eng.authorization().Grant(1, f.main_relation, authz::Right::kModify);

  std::vector<nf2::ObjectId> ids = f.store->ObjectsOf(f.main_relation);
  // About 1 s per protocol on a 4-vCPU host: long enough that run-to-run
  // noise does not hide a lock-path change.
  sim::WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.txns_per_thread = 250'000;
  sim::WorkloadReport r =
      sim::RunWorkload(eng, cfg, [&](int thread, int i, Rng& rng) {
        sim::TxnScript s;
        s.user = 1;
        query::Query q;
        q.relation = f.main_relation;
        // Exclusive access to one disjoint object per transaction.
        size_t idx = (static_cast<size_t>(thread) * 131 +
                      static_cast<size_t>(i) * 7 + rng.Uniform(4)) %
                     ids.size();
        Result<const nf2::Object*> obj =
            f.store->Get(f.main_relation, ids[idx]);
        if (obj.ok()) q.object_key = (*obj)->key;
        q.kind = query::AccessKind::kUpdate;
        s.queries = {q};
        return s;
      });
  if (!g_json) std::cout << r.Row(label) << "\n";
  return r;
}

void PrintReportJson(std::ostream& os, const char* name,
                     const sim::WorkloadReport& r) {
  os << "    \"" << name << "\": {\"submitted\": " << r.submitted
     << ", \"committed\": " << r.committed
     << ", \"throughput_tps\": " << r.throughput_tps()
     << ", \"locks_per_txn\": " << r.locks_per_txn()
     << ", \"lock_requests\": " << r.lock_requests
     << ", \"lock_waits\": " << r.lock_waits
     << ", \"conflicts\": " << r.conflicts
     << ", \"deadlock_aborts\": " << r.deadlock_aborts
     << ", \"timeout_aborts\": " << r.timeout_aborts
     << ", \"shed_aborts\": " << r.shed_aborts
     << ", \"retries\": " << r.retries
     << ", \"unresolved\": " << r.unresolved
     << ", \"reconciles\": " << (r.Reconciles() ? "true" : "false") << "}";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) g_json = true;
  }
  if (!g_json) {
    std::cout << "E7: overhead accounting (the paper's two disadvantages)\n\n";
  }

  // (a) Object-specific lock-graph construction (once per DDL).
  sim::CellsParams cp;
  cp.num_cells = 8;
  sim::CellsFixture cf = sim::BuildCellsEffectors(cp);
  uint64_t graph_build_us = 0;
  {
    Stopwatch sw;
    constexpr int kReps = 1000;
    size_t nodes = 0;
    for (int i = 0; i < kReps; ++i) {
      logra::LockGraph g = logra::LockGraph::Build(*cf.catalog);
      nodes = g.num_nodes();
    }
    graph_build_us = sw.ElapsedNanos() / 1000 / kReps;
    if (!g_json) {
      std::cout << "(a) object-specific lock graph construction: "
                << graph_build_us << " us per catalog (" << nodes
                << " nodes, amortized over the schema lifetime)\n";
    }
  }

  // (b) Query-specific lock graph (planning) per query.
  uint64_t planning_ns = 0;
  {
    logra::LockGraph g = logra::LockGraph::Build(*cf.catalog);
    query::Statistics stats = query::Statistics::Collect(*cf.catalog, *cf.store);
    query::LockPlanner::Options po;
    query::LockPlanner planner(&g, cf.catalog.get(), &stats, po);
    query::Query q2 = query::MakeQ2(cf.cells);
    Stopwatch sw;
    constexpr int kReps = 10000;
    for (int i = 0; i < kReps; ++i) {
      Result<query::QueryPlan> plan = planner.Plan(q2);
      if (!plan.ok()) return 1;
    }
    planning_ns = sw.ElapsedNanos() / kReps;
    if (!g_json) {
      std::cout << "(b) query-specific lock graph (planning): " << planning_ns
                << " ns per query (once per query, before execution)\n\n";
    }
  }

  // (c) Disjoint-only exclusive workload: proposed vs. classical DAG.
  if (!g_json) {
    std::cout << "(c) disjoint-only exclusive workload (no references):\n";
  }
  sim::SyntheticParams sp;
  sp.depth = 2;
  sp.fanout = 4;
  sp.refs_per_leaf = 0;
  sp.num_objects = 64;
  sim::SyntheticFixture sf = sim::BuildSynthetic(sp);
  if (!g_json) std::cout << sim::WorkloadReport::Header() << "\n";
  sim::WorkloadReport a =
      RunDisjoint(sf, sim::ProtocolChoice::kComplexObject, "proposed");
  sim::WorkloadReport b =
      RunDisjoint(sf, sim::ProtocolChoice::kSysRAllParents, "classical GLPT76");
  if (g_json) {
    std::cout << "{\n  \"benchmark\": \"overhead\",\n";
    bench::EmitContextJson(std::cout, "  ");
    std::cout << ",\n  \"graph_build_us_per_catalog\": " << graph_build_us
              << ",\n  \"planning_ns_per_query\": " << planning_ns
              << ",\n  \"disjoint_workload\": {\n";
    PrintReportJson(std::cout, "proposed", a);
    std::cout << ",\n";
    PrintReportJson(std::cout, "classical_glpt76", b);
    std::cout << "\n  }\n}\n";
    return 0;
  }
  std::cout << "\nExpected shape: identical locks/txn (" << a.locks_per_txn()
            << " vs " << b.locks_per_txn()
            << ") — on disjoint objects the proposed protocol degenerates "
               "to the traditional one; its extra cost is only the planning "
               "time of (b).\n";
  return 0;
}
