// Multi-core contention scaling benchmark (DESIGN.md §11,
// EXPERIMENTS.md "Contention methodology").
//
// Measures how the lock manager scales as real threads pile onto it:
//
//  (a) contended_s          — N threads hammer a small shared keyset
//      with compatible S/IS acquire→release cycles through each
//      transaction's handle, next to a standing group of IS holders.
//      Every cycle takes the key's shard mutex twice.
//  (b) partitioned_x        — N threads, disjoint per-thread keysets,
//      exclusive X cycles.  No logical contention; isolates raw shard
//      and cache-line scaling from compatibility effects.
//  (c) deep_path / shallow_path — root-to-leaf `AcquirePath` chains
//      (depth 12 vs 2) with a shared ancestor spine and X leaves:
//      concurrent propagators meet in the same shard mutexes, each
//      visiting every shard of its chain once.  Their spine uses instance
//      0xA, not a singleton granule, so it is not split into lanes.
//  (d) spine_path           — `AcquirePath` over an instance-0 database /
//      segment / relation chain plus a per-thread leaf, X at the leaf:
//      the §4.4.2 spine every transaction shares, which the lock
//      manager's lanes split (each thread's transaction has its own lane).
//  (e) singleton_s          — contended_s on instance-0 keys: every S
//      takes all kLanes lanes and every IS one, next to standing IS
//      holders spread over the lanes.  The cost side of the lanes.
//
// contended_s, partitioned_x and the two path series keep their keys:
// key {7, 0} of contended_s, key {100 + t, 0} of partitioned_x and
// thread 0's leaf {depth + 1, 0} of the path series are singleton
// granules, so a share of their ops pays the lanes too.
//
// Each (series, thread-count) point reports aggregate throughput and
// approximate p50/p99 per-op latency (util::LatencyHistogram).
//
// `--json` emits the machine-readable baseline (BENCH_contention.json)
// with the context block tools/bench_regression_check.py keys on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_context.h"
#include "lock/lock_manager.h"
#include "lock/mode.h"
#include "lock/txn_locks.h"
#include "util/metrics.h"

using namespace codlock;
using namespace codlock::lock;

namespace {

struct Point {
  int threads = 0;
  uint64_t ops = 0;  // total across threads
  double seconds = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  double ops_per_s() const { return seconds > 0 ? ops / seconds : 0; }
};

/// Runs \p per_op(thread_index, iteration, lm, locks) from \p nthreads
/// threads, each with its own txn id (t+1) and its TxnLocks.
/// Wall-clock spans the release of the start gate to the last join, so
/// throughput is the aggregate rate, not a per-thread mean.
template <typename PerOp>
Point RunThreads(LockManager& lm, int nthreads, uint64_t ops_per_thread,
                 PerOp per_op) {
  LatencyHistogram hist;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      const TxnId txn = static_cast<TxnId>(t + 1);
      std::shared_ptr<TxnLocks> locks = lm.Begin(txn);
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        per_op(t, i, lm, *locks);
        const auto t1 = std::chrono::steady_clock::now();
        hist.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
      lm.ReleaseAll(txn);
    });
  }
  while (ready.load(std::memory_order_acquire) < nthreads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const auto end = std::chrono::steady_clock::now();

  Point p;
  p.threads = nthreads;
  p.ops = ops_per_thread * static_cast<uint64_t>(nthreads);
  p.seconds = std::chrono::duration<double>(end - start).count();
  p.p50_ns = hist.Quantile(0.50);
  p.p99_ns = hist.Quantile(0.99);
  return p;
}

constexpr int kHotKeys = 4;  // contended keyset: dense holder groups

/// (a): compatible S/IS churn over kHotKeys shared resources.
///
/// kPinners standing transactions hold IS on every hot key, the steady
/// state the protocol produces at a hot spot (relation- and unit-level
/// intention locks are held by every transaction working below them for
/// as long as it runs).  Without them, every release would empty and
/// retire the entry and each cycle would re-create it through the slow
/// path — a cold-table artifact, not the contention this series
/// measures.  Each grant and release scans the standing group's holder
/// rows.
constexpr int kPinners = 32;

/// Key k of the hot keyset: {7, k} for contended_s, {8 + k, 0} (all
/// singleton granules) for singleton_s.
ResourceId HotKey(bool singletons, int k) {
  return singletons ? ResourceId{static_cast<uint32_t>(8 + k), 0}
                    : ResourceId{7, static_cast<uint64_t>(k)};
}

Point RunContended(bool singletons, int nthreads, uint64_t ops) {
  LockManager lm;
  for (int p = 0; p < kPinners; ++p) {
    const TxnId pinner = static_cast<TxnId>(9000 + p);
    for (int k = 0; k < kHotKeys; ++k) {
      (void)lm.Acquire(pinner, HotKey(singletons, k), LockMode::kIS);
    }
  }
  return RunThreads(
      lm, nthreads, ops,
      [singletons](int t, uint64_t i, LockManager& m, TxnLocks& c) {
        const TxnId txn = static_cast<TxnId>(t + 1);
        const ResourceId res =
            HotKey(singletons, static_cast<int>((i + t) % kHotKeys));
        const LockMode mode = (i & 1) ? LockMode::kIS : LockMode::kS;
        (void)m.Acquire(txn, res, mode, {}, &c);
        (void)m.Release(txn, res, &c);
      });
}

/// (b): disjoint per-thread keysets, exclusive cycles.
Point RunPartitioned(int nthreads, uint64_t ops) {
  LockManager lm;
  return RunThreads(lm, nthreads, ops,
                    [](int t, uint64_t i, LockManager& m, TxnLocks& c) {
                      const TxnId txn = static_cast<TxnId>(t + 1);
                      const ResourceId res{
                          static_cast<uint32_t>(100 + t), i % 64};
                      (void)m.Acquire(txn, res, LockMode::kX, {}, &c);
                      (void)m.Release(txn, res, &c);
                    });
}

/// (c): AcquirePath over a shared ancestor spine of \p depth levels plus
/// a per-thread leaf, X at the leaf (IX spine, so concurrent chains meet
/// in the shard mutexes), as in the protocol layer's downward
/// propagation.
Point RunPath(int depth, int nthreads, uint64_t ops) {
  LockManager lm;
  return RunThreads(
      lm, nthreads, ops,
      [depth](int t, uint64_t i, LockManager& m, TxnLocks& c) {
        const TxnId txn = static_cast<TxnId>(t + 1);
        std::vector<ResourceId> path;
        path.reserve(depth + 1);
        for (int d = 0; d < depth; ++d) {
          path.push_back(ResourceId{static_cast<uint32_t>(d + 1), 0xA});
        }
        path.push_back(ResourceId{
            static_cast<uint32_t>(depth + 1),
            static_cast<uint64_t>(t) * 4096 + (i % 64)});
        (void)m.AcquirePath(txn, path, LockMode::kX, {}, &c);
        m.ReleaseAll(txn);
      });
}

/// (d): AcquirePath over the instance-0 database (node 1), segment (2)
/// and relation (3) plus a per-thread object leaf, X at the leaf.
Point RunSpine(int nthreads, uint64_t ops) {
  LockManager lm;
  return RunThreads(
      lm, nthreads, ops, [](int t, uint64_t i, LockManager& m, TxnLocks& c) {
        const TxnId txn = static_cast<TxnId>(t + 1);
        const ResourceId path[] = {
            {1, 0}, {2, 0}, {3, 0},
            {4, static_cast<uint64_t>(t) * 4096 + 1 + (i % 64)}};
        (void)m.AcquirePath(txn, path, LockMode::kX, {}, &c);
        m.ReleaseAll(txn);
      });
}

struct Series {
  std::string name;
  std::vector<Point> points;
};

void PrintPointJson(std::ostream& os, const Point& p) {
  os << "{\"threads\": " << p.threads << ", \"ops\": " << p.ops
     << ", \"throughput_ops_s\": " << p.ops_per_s()
     << ", \"p50_ns\": " << p.p50_ns << ", \"p99_ns\": " << p.p99_ns
     << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  uint64_t ops = 20000;
  std::vector<int> thread_counts = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = std::max<uint64_t>(1, std::stoull(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts.clear();
      std::string arg = argv[++i];
      size_t pos = 0;
      while (pos < arg.size()) {
        size_t comma = arg.find(',', pos);
        if (comma == std::string::npos) comma = arg.size();
        int n = std::stoi(arg.substr(pos, comma - pos));
        if (n > 0) thread_counts.push_back(n);
        pos = comma + 1;
      }
      if (thread_counts.empty()) thread_counts = {1};
    } else {
      std::cerr << "usage: bench_contention [--json] [--threads 1,2,4] "
                   "[--ops N]\n";
      return 2;
    }
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  const uint64_t path_ops = std::max<uint64_t>(1, ops / 4);
  std::vector<Series> series;
  series.push_back({"contended_s", {}});
  series.push_back({"partitioned_x", {}});
  series.push_back({"deep_path", {}});
  series.push_back({"shallow_path", {}});
  series.push_back({"spine_path", {}});
  series.push_back({"singleton_s", {}});
  for (int n : thread_counts) {
    series[0].points.push_back(RunContended(/*singletons=*/false, n, ops));
    series[1].points.push_back(RunPartitioned(n, ops));
    series[2].points.push_back(RunPath(/*depth=*/12, n, path_ops));
    series[3].points.push_back(RunPath(/*depth=*/2, n, path_ops));
    series[4].points.push_back(RunSpine(n, path_ops));
    series[5].points.push_back(RunContended(/*singletons=*/true, n, ops));
  }

  if (json) {
    std::cout.setf(std::ios::fixed);
    std::cout.precision(1);
    std::cout << "{\n  \"benchmark\": \"contention\",\n";
    bench::EmitContextJson(std::cout, "  ");
    std::cout << ",\n  \"ops_per_thread\": " << ops
              << ",\n  \"series\": {\n";
    for (size_t s = 0; s < series.size(); ++s) {
      std::cout << "    \"" << series[s].name << "\": {\n";
      for (size_t p = 0; p < series[s].points.size(); ++p) {
        std::cout << "      \"" << series[s].points[p].threads << "\": ";
        PrintPointJson(std::cout, series[s].points[p]);
        std::cout << (p + 1 < series[s].points.size() ? ",\n" : "\n");
      }
      std::cout << "    }" << (s + 1 < series.size() ? ",\n" : "\n");
    }
    std::cout << "  }\n}\n";
  } else {
    for (const Series& s : series) {
      std::cout << s.name << ":\n";
      for (const Point& p : s.points) {
        std::cout << "  t=" << p.threads << "  "
                  << static_cast<uint64_t>(p.ops_per_s()) << " ops/s  p50="
                  << p.p50_ns << "ns p99=" << p.p99_ns << "ns\n";
      }
    }
  }
  return 0;
}
