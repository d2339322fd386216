// Experiment E1 — the granule-oriented problem (§3.2.1, [RiSt77]).
//
// Throughput and locking overhead as a function of lock granularity, for a
// workload that touches *parts* of complex objects.  Expected shape:
//  * whole-object locking: fewest lock requests, worst concurrency
//    (partial accesses serialize on the object);
//  * tuple locking: best theoretical concurrency, highest overhead
//    (locks/txn grows with object size);
//  * the proposed hierarchical granules (anticipated-escalation optimum):
//    near-whole-object overhead with near-tuple concurrency → best
//    throughput for partial-object workloads, increasingly so for larger
//    complex objects.

#include <iostream>

#include "sim/fixtures.h"
#include "sim/harness.h"

using namespace codlock;

namespace {

sim::WorkloadReport RunOne(sim::CellsFixture& f, query::GranulePolicy policy,
                           const std::string& label) {
  sim::EngineOptions opts;
  opts.protocol = sim::ProtocolChoice::kComplexObject;
  opts.policy = policy;
  opts.lock_timeout_ms = 3000;
  sim::Engine eng(f.catalog.get(), f.store.get(), opts);
  eng.authorization().Grant(1, f.cells, authz::Right::kRead);
  eng.authorization().Grant(1, f.cells, authz::Right::kModify);
  eng.authorization().Grant(1, f.effectors, authz::Right::kRead);

  sim::WorkloadConfig cfg;
  cfg.threads = 6;
  cfg.txns_per_thread = 40;
  cfg.max_retries = 50;
  sim::WorkloadReport r =
      sim::RunWorkload(eng, cfg, [&](int, int, Rng& rng) {
        sim::TxnScript s;
        s.user = 1;
        s.work_us = 50;
        query::Query q;
        q.relation = f.cells;
        // High locality: everyone works on few cells, but on *parts*.
        q.object_key =
            std::string("c").append(std::to_string(1 + rng.Uniform(2)));
        if (rng.Bernoulli(0.6)) {
          q.kind = query::AccessKind::kRead;
          q.path = {nf2::PathStep::Field("c_objects")};
          q.selectivity = 0.1;  // a slice of the objects
        } else {
          q.kind = query::AccessKind::kUpdate;
          q.path = {nf2::PathStep::At("robots",
                                      static_cast<int64_t>(rng.Uniform(4)))};
        }
        s.queries = {q};
        return s;
      });
  std::cout << r.Row(label) << "\n";
  return r;
}

}  // namespace

int main() {
  std::cout << "E1: lock granularity vs. throughput/overhead "
               "(partial-object accesses on 2 hot cells, 6 threads)\n\n";
  for (int c_objects : {16, 64, 256}) {
    sim::CellsParams params;
    params.num_cells = 4;
    params.c_objects_per_cell = c_objects;
    params.robots_per_cell = 4;
    params.num_effectors = 8;
    sim::CellsFixture f = sim::BuildCellsEffectors(params);
    std::cout << "--- cells with " << c_objects << " c_objects each ---\n";
    std::cout << sim::WorkloadReport::Header() << "\n";
    sim::WorkloadReport whole =
        RunOne(f, query::GranulePolicy::kWholeObject, "whole-object");
    sim::WorkloadReport tuple =
        RunOne(f, query::GranulePolicy::kTuple, "tuple");
    sim::WorkloadReport opt =
        RunOne(f, query::GranulePolicy::kOptimal, "hierarchical(optimal)");
    std::cout << "  -> throughput optimal/whole = "
              << (whole.throughput_tps() > 0
                      ? opt.throughput_tps() / whole.throughput_tps()
                      : 0)
              << "x ; locks/txn tuple vs optimal = " << tuple.locks_per_txn()
              << " vs " << opt.locks_per_txn() << "\n\n";
  }
  return 0;
}
