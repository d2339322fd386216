// Experiment E4 — the authorization-oriented problem (§3.2.3, rule 4′).
//
// N engineers concurrently update distinct robots whose effector sets
// overlap in a small shared library.  None of them has the right to
// modify effectors.
//  * rule 4  (plain):  X propagates X onto every referenced effector →
//    updaters of different robots serialize on the shared tools;
//  * rule 4′ (authorization-aware): the propagated locks weaken to S →
//    updaters run fully in parallel (the paper's Q2 ∥ Q3).

#include <iostream>

#include "sim/fixtures.h"
#include "sim/harness.h"

using namespace codlock;

namespace {

sim::WorkloadReport RunOne(sim::CellsFixture& f, sim::ProtocolChoice protocol,
                           int threads, const std::string& label) {
  sim::EngineOptions opts;
  opts.protocol = protocol;
  opts.lock_timeout_ms = 5000;
  sim::Engine eng(f.catalog.get(), f.store.get(), opts);
  // Engineers may modify cells (robots), not the effector library.
  eng.authorization().Grant(1, f.cells, authz::Right::kRead);
  eng.authorization().Grant(1, f.cells, authz::Right::kModify);
  eng.authorization().Grant(1, f.effectors, authz::Right::kRead);

  sim::WorkloadConfig cfg;
  cfg.threads = threads;
  cfg.txns_per_thread = 240 / threads;
  cfg.max_retries = 200;
  sim::WorkloadReport r =
      sim::RunWorkload(eng, cfg, [&](int thread, int, Rng& rng) {
        sim::TxnScript s;
        s.user = 1;
        s.work_us = 300;  // reconfiguration work while holding locks
        query::Query q;
        q.relation = f.cells;
        // Each thread owns one cell: updates never collide on robots —
        // only (possibly) on the shared effectors.
        q.object_key = std::string("c").append(std::to_string(1 + thread % 8));
        q.kind = query::AccessKind::kUpdate;
        q.path = {nf2::PathStep::At("robots",
                                    static_cast<int64_t>(rng.Uniform(4)))};
        s.queries = {q};
        return s;
      });
  std::cout << r.Row(label) << "\n";
  return r;
}

}  // namespace

int main() {
  std::cout << "E4: authorization-aware downward propagation (rule 4 vs 4')\n"
               "    updaters of distinct robots, shared effector library,\n"
               "    no transaction may modify effectors\n\n";
  sim::CellsParams params;
  params.num_cells = 8;
  params.robots_per_cell = 4;
  params.num_effectors = 4;  // small, heavily shared tool library
  params.effectors_per_robot = 2;
  sim::CellsFixture f = sim::BuildCellsEffectors(params);

  std::cout << sim::WorkloadReport::Header() << "\n";
  for (int threads : {2, 4, 8}) {
    sim::WorkloadReport prime =
        RunOne(f, sim::ProtocolChoice::kComplexObject, threads,
               "rule 4' " + std::to_string(threads) + "t");
    sim::WorkloadReport plain =
        RunOne(f, sim::ProtocolChoice::kComplexObjectRule4, threads,
               "rule 4  " + std::to_string(threads) + "t");
    double speedup = plain.throughput_tps() > 0
                         ? prime.throughput_tps() / plain.throughput_tps()
                         : 0;
    std::cout << "  -> rule 4'/rule 4 throughput = " << speedup
              << "x  (waits " << prime.lock_waits << " vs "
              << plain.lock_waits << ")\n";
  }
  std::cout << "\nExpected shape: rule 4' scales with threads (S locks on "
               "effectors are compatible); plain rule 4 serializes on the "
               "shared tools.\n";
  return 0;
}
