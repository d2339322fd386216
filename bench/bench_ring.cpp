// Out-of-process serving overhead benchmark (DESIGN.md §13).
//
// The host/handle split moves every check-out operation through the
// shared-memory job ring: encode → admission control → publish → consume
// → execute → complete → take → decode.  Measured here:
//
//  (a) ring_ping              — the empty RPC: pure transport + codec
//      cost of one frame round-trip (steppable mode, handle pumps the
//      host),
//  (b) ring_checkout_checkin  — full check-out → check-in cycles through
//      the ring, lease grant/drop and fence bookkeeping included,
//  (c) inproc_checkout_checkin — the same cycles called directly on a
//      `ws::Server`: the in-process baseline the ring overhead is
//      compared against,
//  (d) workers_ping           — ping round-trips against host worker
//      threads parked on the ring's futex-style wait (the real
//      wake/sleep path rather than the steppable pump),
//  (e) shm_workers_ping       — the same awaited ping, but over a real
//      shm_open segment (kShmCreate backend): the process-shared futex
//      discipline and the mmap'd slot array, still one address space,
//  (f) crossproc_ping         — a forked child attaches to the segment
//      from its own address space (ShmRing::AttachTo) and drives the
//      ping loop: the true cross-process round trip, futex wakes
//      crossing a process boundary included.
//
// `--json` emits machine-readable "throughput_tps" metrics plus the
// host's ring counters (published/consumed/salvaged — the conservation
// ledger), compared by tools/bench_regression_check.py against the
// committed BENCH_ring.json.

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_context.h"
#include "sim/fixtures.h"
#include "util/metrics.h"
#include "ws/handle.h"
#include "ws/host.h"
#include "ws/shm_ring.h"

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
  q.name = "bench-ring";
  q.relation = f.cells;
  q.object_key = key;
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = query::AccessKind::kUpdate;
  return q;
}

// The forked child's ping loop: publish → futex wait → take, entirely
// through the shared segment.  _exit only — no destructors run here.
[[noreturn]] void CrossProcChild(const std::string& shm_name,
                                 uint64_t incarnation,
                                 const ws::HandleInfo& info, uint64_t ops) {
  ws::ShmRing ring(ws::RingOptions::AttachTo(shm_name, incarnation));
  if (!ring.init_status().ok()) _exit(3);
  if (ring.WaitRunStateAtLeast(1, 60'000'000) < 1) _exit(4);
  const std::string payload = ws::wire::EncodePingRequest();
  for (uint64_t j = 0; j < ops; ++j) {
    ws::FrameHeader header;
    header.handle_id = info.handle_id;
    header.handle_epoch = info.epoch;
    header.job_id = j + 1;
    Result<size_t> slot = ring.Publish(header, payload);
    if (!slot.ok()) _exit(5);
    if (!ring.WaitDone(*slot, header.job_id, 5'000'000)) _exit(6);
    if (!ring.TakeResponse(*slot, header.job_id).ok()) _exit(7);
  }
  _exit(0);
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
      std::cerr << "usage: bench_ring [--json] [--scale N]\n";
      return 2;
    }
  }

  sim::CellsParams params;
  params.num_cells = 64;
  params.c_objects_per_cell = 4;
  params.robots_per_cell = 2;
  params.num_effectors = 8;
  sim::CellsFixture f = sim::BuildCellsEffectors(params);

  ws::HostOptions ho;
  ho.ring.slots = 64;
  ho.server.lease.duration_ms = 1u << 30;  // nothing expires mid-measure
  ho.server.lease.grace_ms = 1000;
  ws::Host host(f.catalog.get(), f.store.get(), ho);

  ws::Handle handle(&host);
  if (!handle.Attach().ok()) {
    std::cerr << "attach failed\n";
    return 1;
  }

  // (a) the empty RPC: encode + publish + consume + complete + take.
  Measurement ping = Measure(100'000 * scale, [&] {
    if (!handle.Ping().ok()) std::abort();
  });

  // (b) check-out / check-in cycles through the ring.
  Measurement ring_cycle = Measure(2000 * scale, [&] {
    Result<ws::CheckOutTicket> t =
        handle.CheckOut(1, CellQuery(f, "c1"), ws::CheckOutMode::kExclusive);
    if (!t.ok() || !handle.CheckIn(*t).ok()) std::abort();
  });

  // (c) the in-process baseline: same cycles, no ring, on the host's own
  // server (the handle is idle while this runs).
  Measurement inproc_cycle = Measure(2000 * scale, [&] {
    Result<ws::CheckOutTicket> t = host.server().CheckOut(
        1, CellQuery(f, "c2"), ws::CheckOutMode::kExclusive);
    if (!t.ok() || !host.server().CheckIn(*t).ok()) std::abort();
  });

  // (d) worker threads on the futex-style wait: the response is awaited,
  // not pumped, so the measured path includes the real wake/sleep.
  host.StartWorkers(2);
  Measurement workers_ping = Measure(20'000 * scale, [&] {
    if (!handle.Ping().ok()) std::abort();
  });
  host.StopWorkers();

  // (e)+(f) the real segment: a second host on the kShmCreate backend.
  // The child is forked while the host is still single-threaded (it
  // inherits no locked mutexes); workers start after.
  const uint64_t cross_ops = 10'000 * scale;
  Measurement shm_ping;
  Measurement crossproc;
  {
    ws::HostOptions so = ho;
    so.ring.backend = ws::RingBackend::kShmCreate;
    so.ring.shm_name =
        "/codlock-bench-ring-" + std::to_string(static_cast<long>(getpid()));
    ws::Host shm_host(f.catalog.get(), f.store.get(), so);
    if (!shm_host.ring_status().ok()) {
      std::cerr << "shm ring init failed: "
                << shm_host.ring_status().ToString() << "\n";
      return 1;
    }
    const ws::HandleInfo child_info = shm_host.Attach();
    fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
      CrossProcChild(so.ring.shm_name, shm_host.incarnation(), child_info,
                     cross_ops);
    }
    if (pid < 0) {
      std::cerr << "fork failed\n";
      return 1;
    }
    shm_host.StartWorkers(2);

    ws::Handle shm_handle(&shm_host);
    if (!shm_handle.Attach().ok()) {
      std::cerr << "shm attach failed\n";
      return 1;
    }
    shm_ping = Measure(20'000 * scale, [&] {
      if (!shm_handle.Ping().ok()) std::abort();
    });

    // Open the cross-process run gate and time the child's whole batch;
    // the gate wake itself is amortized over the ops.
    const auto start = std::chrono::steady_clock::now();
    shm_host.ring().SetRunState(1);
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::cerr << "cross-process child failed (exit "
                << (WIFEXITED(status) ? WEXITSTATUS(status) : -1) << ")\n";
      return 1;
    }
    const auto end = std::chrono::steady_clock::now();
    crossproc = {cross_ops,
                 std::chrono::duration<double>(end - start).count()};
    shm_host.StopWorkers();
  }

  const ws::ShmRing::Counters rc = host.ring().counters();

  if (json) {
    std::cout.setf(std::ios::fixed);
    std::cout.precision(1);
    std::cout << "{\n  \"benchmark\": \"ring\",\n";
    bench::EmitContextJson(std::cout, "  ");
    std::cout << ",\n  \"scenarios\": {\n"
              << "    \"ring_ping\": {\"ops\": " << ping.ops
              << ", \"throughput_tps\": " << ping.tps()
              << ", \"ns_per_op\": " << ping.ns_per_op() << "},\n"
              << "    \"ring_checkout_checkin\": {\"ops\": " << ring_cycle.ops
              << ", \"throughput_tps\": " << ring_cycle.tps()
              << ", \"ns_per_op\": " << ring_cycle.ns_per_op() << "},\n"
              << "    \"inproc_checkout_checkin\": {\"ops\": "
              << inproc_cycle.ops
              << ", \"throughput_tps\": " << inproc_cycle.tps()
              << ", \"ns_per_op\": " << inproc_cycle.ns_per_op() << "},\n"
              << "    \"workers_ping\": {\"ops\": " << workers_ping.ops
              << ", \"throughput_tps\": " << workers_ping.tps()
              << ", \"ns_per_op\": " << workers_ping.ns_per_op() << "},\n"
              << "    \"shm_workers_ping\": {\"ops\": " << shm_ping.ops
              << ", \"throughput_tps\": " << shm_ping.tps()
              << ", \"ns_per_op\": " << shm_ping.ns_per_op() << "},\n"
              << "    \"crossproc_ping\": {\"ops\": " << crossproc.ops
              << ", \"throughput_tps\": " << crossproc.tps()
              << ", \"ns_per_op\": " << crossproc.ns_per_op() << "}\n"
              << "  },\n  \"ring_counters\": {"
              << "\"published\": " << rc.published
              << ", \"consumed\": " << rc.consumed
              << ", \"completed\": " << rc.completed
              << ", \"taken\": " << rc.taken
              << ", \"salvaged\": " << rc.salvaged
              << ", \"reclaimed\": " << rc.Reclaimed() << "}\n}\n";
  } else {
    auto row = [](const char* name, const Measurement& m) {
      std::cout << name << ": " << m.ops << " ops, "
                << static_cast<uint64_t>(m.tps()) << " ops/s, "
                << static_cast<uint64_t>(m.ns_per_op()) << " ns/op\n";
    };
    row("ring ping          ", ping);
    row("ring checkout cycle", ring_cycle);
    row("inproc checkout    ", inproc_cycle);
    row("workers ping       ", workers_ping);
    row("shm workers ping   ", shm_ping);
    row("crossproc ping     ", crossproc);
    std::cout << "ring counters: published=" << rc.published
              << " consumed=" << rc.consumed << " completed=" << rc.completed
              << " taken=" << rc.taken << " salvaged=" << rc.salvaged
              << " reclaimed=" << rc.Reclaimed() << "\n";
  }
  return 0;
}
