// Experiment E9 — lock-manager micro-benchmarks (google-benchmark).
//
// The substrate costs every protocol comparison rests on: uncontended
// acquire/release, re-entrant acquisition, compatibility testing against
// sharer groups, contended multi-threaded acquisition, lock-table scaling
// and long-lock snapshotting.

#include <benchmark/benchmark.h>

#include <vector>

#include "lock/lock_manager.h"
#include "lock/mode.h"
#include "lock/txn_locks.h"
#include "util/rng.h"

namespace codlock::lock {
namespace {

void BM_AcquireRelease(benchmark::State& state) {
  LockManager lm;
  ResourceId res{1, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.Acquire(1, res, LockMode::kX));
    benchmark::DoNotOptimize(lm.Release(1, res));
  }
}
BENCHMARK(BM_AcquireRelease);

void BM_ReentrantAcquire(benchmark::State& state) {
  // Re-entrant acquisition as the transaction layer drives it: through the
  // transaction's TxnLocks (TxnManager::Begin does the same), so
  // equal-or-weaker re-requests and their releases stay off the shard mutex
  // entirely.
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  ResourceId res{1, 42};
  (void)lm.Acquire(1, res, LockMode::kS, {}, locks.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm.Acquire(1, res, LockMode::kS, {}, locks.get()));
    benchmark::DoNotOptimize(lm.Release(1, res, locks.get()));
  }
}
BENCHMARK(BM_ReentrantAcquire);

void BM_HierarchicalPathAcquire(benchmark::State& state) {
  // The cost of a protocol-style root-to-leaf acquisition: N intention
  // locks plus one leaf lock, then EOT release.  AcquirePath batches the
  // chain, visiting each lock shard once per request.
  const int depth = static_cast<int>(state.range(0));
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  std::vector<ResourceId> path;
  for (int i = 0; i <= depth; ++i) {
    path.push_back(ResourceId{static_cast<uint32_t>(i), 7});
  }
  for (auto _ : state) {
    (void)lm.AcquirePath(1, path, LockMode::kX, {}, locks.get());
    lm.ReleaseAll(1);
  }
  state.SetItemsProcessed(state.iterations() * (depth + 1));
}
BENCHMARK(BM_HierarchicalPathAcquire)->Arg(3)->Arg(6)->Arg(12);

void BM_HierarchicalPathReacquire(benchmark::State& state) {
  // Re-traversal of an already-locked path (a transaction revisiting its
  // working set): every resource is covered by the transaction's held
  // rows, so the whole request is answered without touching a shard.
  const int depth = static_cast<int>(state.range(0));
  LockManager lm;
  std::shared_ptr<TxnLocks> locks = lm.Begin(1);
  std::vector<ResourceId> path;
  for (int i = 0; i <= depth; ++i) {
    path.push_back(ResourceId{static_cast<uint32_t>(i), 7});
  }
  (void)lm.AcquirePath(1, path, LockMode::kX, {}, locks.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm.AcquirePath(1, path, LockMode::kX, {}, locks.get()));
  }
  lm.ReleaseAll(1);
  state.SetItemsProcessed(state.iterations() * (depth + 1));
}
BENCHMARK(BM_HierarchicalPathReacquire)->Arg(12);

void BM_CompatibilityAgainstSharers(benchmark::State& state) {
  // An IS request against a granted group of N sharers: the compat test
  // scans the holder list.
  const int sharers = static_cast<int>(state.range(0));
  LockManager lm;
  ResourceId res{1, 1};
  for (int t = 0; t < sharers; ++t) {
    (void)lm.Acquire(static_cast<TxnId>(t + 2), res, LockMode::kS);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.Acquire(1, res, LockMode::kIS));
    benchmark::DoNotOptimize(lm.Release(1, res));
  }
}
BENCHMARK(BM_CompatibilityAgainstSharers)->Arg(1)->Arg(8)->Arg(64);

void BM_ConflictNoWait(benchmark::State& state) {
  LockManager lm;
  ResourceId res{1, 1};
  (void)lm.Acquire(99, res, LockMode::kX);
  AcquireOptions no_wait;
  no_wait.wait = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.Acquire(1, res, LockMode::kS, no_wait));
  }
}
BENCHMARK(BM_ConflictNoWait);

void BM_TableScaling(benchmark::State& state) {
  // Acquire/release cycles over a working set of N distinct resources.
  const uint64_t resources = static_cast<uint64_t>(state.range(0));
  LockManager lm;
  Rng rng(1);
  for (auto _ : state) {
    ResourceId res{static_cast<uint32_t>(rng.Uniform(64)),
                   rng.Uniform(resources)};
    (void)lm.Acquire(1, res, LockMode::kS);
    (void)lm.Release(1, res);
  }
}
BENCHMARK(BM_TableScaling)->Arg(100)->Arg(10'000)->Arg(1'000'000);

void BM_ContendedSharedAcquire(benchmark::State& state) {
  // Multi-threaded S acquisition of the same resource (granted group
  // maintenance under the shard mutex).
  static LockManager* lm = nullptr;
  if (state.thread_index() == 0) lm = new LockManager();
  ResourceId res{1, 1};
  TxnId txn = static_cast<TxnId>(state.thread_index() + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm->Acquire(txn, res, LockMode::kS));
    benchmark::DoNotOptimize(lm->Release(txn, res));
  }
  if (state.thread_index() == 0) {
    delete lm;
    lm = nullptr;
  }
}
BENCHMARK(BM_ContendedSharedAcquire)->Threads(1)->Threads(4)->Threads(8);

void BM_DisjointParallelAcquire(benchmark::State& state) {
  // Threads acquire X on disjoint resources: shard parallelism.
  static LockManager* lm = nullptr;
  if (state.thread_index() == 0) lm = new LockManager();
  ResourceId res{static_cast<uint32_t>(state.thread_index()),
                 static_cast<uint64_t>(state.thread_index()) * 1000};
  TxnId txn = static_cast<TxnId>(state.thread_index() + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm->Acquire(txn, res, LockMode::kX));
    benchmark::DoNotOptimize(lm->Release(txn, res));
  }
  if (state.thread_index() == 0) {
    delete lm;
    lm = nullptr;
  }
}
BENCHMARK(BM_DisjointParallelAcquire)->Threads(1)->Threads(4)->Threads(8);

void BM_SnapshotLongLocks(benchmark::State& state) {
  const int locks = static_cast<int>(state.range(0));
  LockManager lm;
  AcquireOptions long_opts;
  long_opts.duration = LockDuration::kLong;
  for (int i = 0; i < locks; ++i) {
    (void)lm.Acquire(1, ResourceId{static_cast<uint32_t>(i % 64),
                                   static_cast<uint64_t>(i)},
                     LockMode::kS, long_opts);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.SnapshotLongLocks());
  }
  state.SetItemsProcessed(state.iterations() * locks);
}
BENCHMARK(BM_SnapshotLongLocks)->Arg(100)->Arg(10'000);

void BM_ModeMatrix(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    LockMode a = static_cast<LockMode>(rng.Uniform(kNumModes));
    LockMode b = static_cast<LockMode>(rng.Uniform(kNumModes));
    benchmark::DoNotOptimize(Compatible(a, b));
    benchmark::DoNotOptimize(Supremum(a, b));
  }
}
BENCHMARK(BM_ModeMatrix);

}  // namespace
}  // namespace codlock::lock

BENCHMARK_MAIN();
