// Manufacturing cells: the paper's motivating domain (robotics / CAM).
//
// A plant database holds manufacturing cells whose robots share a library
// of effectors (tools) — non-disjoint complex objects.  Several
// engineering teams concurrently reconfigure robots, read cell layouts and
// occasionally a tool administrator updates the shared library.  The
// example contrasts the proposed protocol against whole-object locking on
// the same workload and shows the authorization-oriented win of rule 4'.
//
// Run:  ./build/examples/manufacturing_cells

#include <iostream>

#include "sim/fixtures.h"
#include "sim/harness.h"

using namespace codlock;

namespace {

sim::WorkloadReport RunScenario(sim::CellsFixture& f, sim::EngineOptions opts,
                                const std::string& label) {
  sim::Engine eng(f.catalog.get(), f.store.get(), opts);
  // Engineers (user 1) may modify cells but not the tool library; the
  // tool admin (user 2) may modify the library.
  eng.authorization().Grant(1, f.cells, authz::Right::kRead);
  eng.authorization().Grant(1, f.cells, authz::Right::kModify);
  eng.authorization().Grant(1, f.effectors, authz::Right::kRead);
  eng.authorization().Grant(2, f.effectors, authz::Right::kRead);
  eng.authorization().Grant(2, f.effectors, authz::Right::kModify);

  sim::WorkloadConfig cfg;
  cfg.threads = 6;
  cfg.txns_per_thread = 30;
  cfg.max_retries = 25;
  sim::WorkloadReport report =
      sim::RunWorkload(eng, cfg, [&](int, int, Rng& rng) {
        sim::TxnScript script;
        script.user = 1;
        script.work_us = 100;
        query::Query q;
        q.relation = f.cells;
        q.object_key =
            std::string("c").append(std::to_string(1 + rng.Uniform(8)));
        double dice = rng.NextDouble();
        if (dice < 0.50) {
          // Read the layout (c_objects) of a cell.
          q.kind = query::AccessKind::kRead;
          q.path = {nf2::PathStep::Field("c_objects")};
        } else if (dice < 0.90) {
          // Reconfigure one robot (touches its shared effectors read-only).
          q.kind = query::AccessKind::kUpdate;
          q.path = {nf2::PathStep::At("robots",
                                      static_cast<int64_t>(rng.Uniform(4)))};
        } else {
          // Inspect a whole cell.
          q.kind = query::AccessKind::kRead;
        }
        script.queries = {q};
        return script;
      });
  std::cout << report.Row(label) << "\n";
  return report;
}

}  // namespace

int main() {
  sim::CellsParams params;
  params.num_cells = 8;
  params.c_objects_per_cell = 20;
  params.robots_per_cell = 4;
  params.num_effectors = 12;
  params.effectors_per_robot = 3;
  sim::CellsFixture f = sim::BuildCellsEffectors(params);

  std::cout << "Manufacturing-cell workload: 6 teams, 30 txns each, "
               "50% layout reads / 40% robot updates / 10% cell scans\n\n";
  std::cout << sim::WorkloadReport::Header() << "\n";

  sim::EngineOptions proposed;
  proposed.protocol = sim::ProtocolChoice::kComplexObject;
  proposed.policy = query::GranulePolicy::kOptimal;
  sim::WorkloadReport a = RunScenario(f, proposed, "proposed (rule 4')");

  sim::EngineOptions rule4 = proposed;
  rule4.protocol = sim::ProtocolChoice::kComplexObjectRule4;
  sim::WorkloadReport b = RunScenario(f, rule4, "proposed (plain rule 4)");

  sim::EngineOptions whole = proposed;
  whole.policy = query::GranulePolicy::kWholeObject;
  sim::WorkloadReport c = RunScenario(f, whole, "whole-object locking");

  sim::EngineOptions tuples = proposed;
  tuples.policy = query::GranulePolicy::kTuple;
  sim::WorkloadReport d = RunScenario(f, tuples, "tuple locking");

  std::cout << "\nObservations:\n";
  std::cout << "  rule 4' vs rule 4 : " << a.lock_waits << " vs "
            << b.lock_waits
            << " lock waits (X on shared effectors serializes updaters)\n";
  std::cout << "  hierarchical vs whole-object : " << a.throughput_tps()
            << " vs " << c.throughput_tps()
            << " txn/s (partial access needn't lock whole cells)\n";
  std::cout << "  hierarchical vs tuple : " << a.locks_per_txn() << " vs "
            << d.locks_per_txn() << " lock requests per transaction\n";
  return 0;
}
