// Lease-path overhead benchmark (workstation liveness, DESIGN.md §9).
//
// The lease subsystem sits on the check-out/check-in hot path: every
// grant installs a lease with its fencing token, every ticket-presenting
// operation verifies the fencing epochs first, and the periodic sweep
// scans all live leases.  Measured here:
//
//  (a) checkout_checkin — full check-out → check-in cycles including
//      lease grant/drop and fence bookkeeping,
//  (b) renewals        — the heartbeat path (fence check + deadline
//      bump) on a standing ticket,
//  (c) idle_sweep      — `SweepExpiredLeases` scans over a fleet of
//      live, unexpired leases (the steady-state reclamation cadence),
//  (d) fenced_rejects  — the zombie rejection path: a reclaimed ticket
//      presented repeatedly (fence comparison + counter, no locks
//      touched),
//  (e) checkout_checkin_file_<n> — the cycles of (a) with the long locks
//      persisted to a backing file while other check-outs hold about n
//      long locks (0, 100, 10000).  Each check-out and check-in appends
//      one frame to the long-lock log and waits for one fdatasync, so
//      durability's share must not grow with the table.
//      checkout_checkin_mem_<n> runs the same cycles on an in-memory
//      store: the difference between the two is what durability costs,
//      and the rest of the stack's growth with n shows in both.
//
// `--json` emits machine-readable "throughput_tps" metrics compared by
// tools/bench_regression_check.py against the committed BENCH_lease.json.

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_context.h"
#include "sim/fixtures.h"
#include "ws/server.h"

using namespace codlock;

namespace {

struct Measurement {
  uint64_t ops = 0;
  double seconds = 0;
  double tps() const { return seconds > 0 ? ops / seconds : 0; }
  double ns_per_op() const { return ops > 0 ? seconds * 1e9 / ops : 0; }
};

template <typename Fn>
Measurement Measure(uint64_t ops, Fn&& op) {
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; ++i) op();
  const auto end = std::chrono::steady_clock::now();
  return {ops, std::chrono::duration<double>(end - start).count()};
}

query::Query CellQuery(const sim::CellsFixture& f, const std::string& key) {
  query::Query q;
  q.name = "bench-lease";
  q.relation = f.cells;
  q.object_key = key;
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = query::AccessKind::kUpdate;
  return q;
}

struct ParkedCycles {
  std::string name;   ///< scenario name
  size_t parked = 0;  ///< long locks held by the parked check-outs
  Measurement cycle;
};

/// Check-out / check-in cycles on cell c1, after parking exclusive
/// check-outs of cells c2, c3, ... until the store holds at least
/// \p parked long locks.  The store persists to a file in \p dir, or stays
/// in memory when \p dir is empty.
ParkedCycles MeasureParkedCycles(const sim::CellsFixture& f, size_t parked,
                                 uint64_t ops, const std::string& dir) {
  ws::Server::Options opts;
  opts.lease.duration_ms = 1u << 30;
  opts.lease.grace_ms = 1000;
  if (!dir.empty()) {
    opts.storage_path = dir + "/parked-" + std::to_string(parked) + ".locks";
    std::filesystem::remove(opts.storage_path);
  }
  ParkedCycles out;
  out.name = std::string(dir.empty() ? "checkout_checkin_mem_"
                                     : "checkout_checkin_file_") +
             std::to_string(parked);
  ws::Server server(f.catalog.get(), f.store.get(), std::move(opts));
  for (int c = 2; server.stable_storage().size() < parked; ++c) {
    if (!server
             .CheckOut(static_cast<authz::UserId>(c),
                       CellQuery(f, "c" + std::to_string(c)),
                       ws::CheckOutMode::kExclusive)
             .ok()) {
      std::cerr << "parking check-out of c" << c << " failed\n";
      std::abort();
    }
  }
  out.parked = server.stable_storage().size();
  out.cycle = Measure(ops, [&] {
    Result<ws::CheckOutTicket> t = server.CheckOut(
        1, CellQuery(f, "c1"), ws::CheckOutMode::kExclusive);
    if (!t.ok() || !server.CheckIn(*t).ok()) std::abort();
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  uint64_t scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::max<uint64_t>(1, std::stoull(argv[++i]));
    } else {
      std::cerr << "usage: bench_lease [--json] [--scale N]\n";
      return 2;
    }
  }

  sim::CellsParams params;
  params.num_cells = 64;
  params.c_objects_per_cell = 4;
  params.robots_per_cell = 2;
  params.num_effectors = 8;
  sim::CellsFixture f = sim::BuildCellsEffectors(params);

  ws::Server::Options opts;
  opts.lease.duration_ms = 1u << 30;  // nothing expires unless we say so
  opts.lease.grace_ms = 1000;
  ws::Server server(f.catalog.get(), f.store.get(), std::move(opts));

  // (a) check-out / check-in cycles on one cell.
  Measurement cycle = Measure(2000 * scale, [&] {
    Result<ws::CheckOutTicket> t = server.CheckOut(
        1, CellQuery(f, "c1"), ws::CheckOutMode::kExclusive);
    if (!t.ok() || !server.CheckIn(*t).ok()) std::abort();
  });

  // (b) renewals on a standing ticket.
  Result<ws::CheckOutTicket> standing = server.CheckOut(
      1, CellQuery(f, "c1"), ws::CheckOutMode::kExclusive);
  if (!standing.ok()) {
    std::cerr << "setup check-out failed: " << standing.status().ToString()
              << "\n";
    return 1;
  }
  Measurement renew = Measure(100'000 * scale, [&] {
    if (!server.RenewLease(*standing).ok()) std::abort();
  });

  // (c) sweep over a fleet of live leases (cells c2..c33).
  std::vector<ws::CheckOutTicket> fleet;
  for (int c = 2; c <= 33; ++c) {
    Result<ws::CheckOutTicket> t =
        server.CheckOut(static_cast<authz::UserId>(c),
                        CellQuery(f, "c" + std::to_string(c)),
                        ws::CheckOutMode::kExclusive);
    if (!t.ok()) {
      std::cerr << "fleet check-out failed: " << t.status().ToString()
                << "\n";
      return 1;
    }
    fleet.push_back(*t);
  }
  Measurement sweep = Measure(20'000 * scale, [&] {
    if (server.SweepExpiredLeases() != 0) std::abort();  // nothing expired
  });

  // (d) the fenced zombie rejection path, on its own server so the
  // expiry does not disturb the fleet above: check out, let the lease
  // run out, reclaim, then present the stale ticket over and over.
  ws::Server::Options zopts;
  zopts.lease.duration_ms = 1000;
  zopts.lease.grace_ms = 500;
  ws::Server zserver(f.catalog.get(), f.store.get(), std::move(zopts));
  Result<ws::CheckOutTicket> zombie = zserver.CheckOut(
      1, CellQuery(f, "c34"), ws::CheckOutMode::kExclusive);
  if (!zombie.ok()) {
    std::cerr << "zombie check-out failed: " << zombie.status().ToString()
              << "\n";
    return 1;
  }
  zserver.clock().AdvanceMs(1501);
  if (zserver.SweepExpiredLeases() != 1) {
    std::cerr << "expected the zombie's lease to be reclaimed\n";
    return 1;
  }
  Measurement fenced = Measure(100'000 * scale, [&] {
    if (zserver.CheckIn(*zombie).ok()) std::abort();
  });

  // (e) cycles next to 0, 100 and 10000 parked long locks, file-backed
  // and in memory, on a fixture with enough cells to park them.
  sim::CellsParams big = params;
  big.num_cells = 1200;
  sim::CellsFixture bf = sim::BuildCellsEffectors(big);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("codlock_bench_lease_" + std::to_string(static_cast<long>(getpid()))))
          .string();
  std::filesystem::create_directories(dir);
  std::vector<ParkedCycles> parked_cycles;
  for (const std::string& store_dir : {dir, std::string()}) {
    for (size_t parked : {size_t{0}, size_t{100}, size_t{10'000}}) {
      parked_cycles.push_back(
          MeasureParkedCycles(bf, parked, 1000 * scale, store_dir));
    }
  }
  std::filesystem::remove_all(dir);

  if (json) {
    std::cout.setf(std::ios::fixed);
    std::cout.precision(1);
    std::cout << "{\n  \"benchmark\": \"lease\",\n";
    bench::EmitContextJson(std::cout, "  ");
    std::cout << ",\n  \"scenarios\": {\n"
              << "    \"checkout_checkin\": {\"ops\": " << cycle.ops
              << ", \"throughput_tps\": " << cycle.tps()
              << ", \"ns_per_op\": " << cycle.ns_per_op() << "},\n"
              << "    \"renewals\": {\"ops\": " << renew.ops
              << ", \"throughput_tps\": " << renew.tps()
              << ", \"ns_per_op\": " << renew.ns_per_op() << "},\n"
              << "    \"idle_sweep\": {\"ops\": " << sweep.ops
              << ", \"leases_scanned\": " << fleet.size()
              << ", \"throughput_tps\": " << sweep.tps()
              << ", \"ns_per_op\": " << sweep.ns_per_op() << "},\n"
              << "    \"fenced_rejects\": {\"ops\": " << fenced.ops
              << ", \"throughput_tps\": " << fenced.tps()
              << ", \"ns_per_op\": " << fenced.ns_per_op() << "}";
    for (const ParkedCycles& pc : parked_cycles) {
      std::cout << ",\n    \"" << pc.name << "\": {\"ops\": " << pc.cycle.ops
                << ", \"parked_long_locks\": " << pc.parked
                << ", \"throughput_tps\": " << pc.cycle.tps()
                << ", \"ns_per_op\": " << pc.cycle.ns_per_op() << "}";
    }
    std::cout << "\n  }\n}\n";
  } else {
    auto row = [](const char* name, const Measurement& m) {
      std::cout << name << ": " << m.ops << " ops, "
                << static_cast<uint64_t>(m.tps()) << " ops/s, "
                << static_cast<uint64_t>(m.ns_per_op()) << " ns/op\n";
    };
    row("checkout+checkin ", cycle);
    row("lease renewal    ", renew);
    row("idle sweep (32)  ", sweep);
    row("fenced rejection ", fenced);
    for (const ParkedCycles& pc : parked_cycles) {
      const std::string name =
          pc.name + " (" + std::to_string(pc.parked) + " parked)";
      row(name.c_str(), pc.cycle);
    }
  }
  return 0;
}
