#include "sim/harness.h"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <sstream>
#include <thread>

#include "util/metrics.h"

namespace codlock::sim {

void SpinFor(uint64_t us) {
  if (us == 0) return;
  const uint64_t until = MonotonicNanos() + us * 1000;
  while (MonotonicNanos() < until) {
    // Busy-wait: models CPU work done while holding locks.
  }
}

std::string WorkloadReport::Header() {
  std::ostringstream os;
  os << std::left << std::setw(34) << "configuration" << std::right
     << std::setw(10) << "tps" << std::setw(9) << "commit" << std::setw(7)
     << "dlk" << std::setw(7) << "tmo" << std::setw(11) << "locks/txn"
     << std::setw(9) << "waits" << std::setw(10) << "conflict" << std::setw(11)
     << "wait_us" << std::setw(9) << "maxheld" << std::setw(14) << "up/down"
     << std::setw(10) << "scanned";
  return os.str();
}

std::string WorkloadReport::Row(const std::string& label) const {
  std::ostringstream os;
  os << std::left << std::setw(34) << label << std::right << std::fixed
     << std::setprecision(0) << std::setw(10) << throughput_tps()
     << std::setw(9) << committed << std::setw(7) << deadlock_aborts
     << std::setw(7) << timeout_aborts << std::setprecision(1)
     << std::setw(11) << locks_per_txn() << std::setw(9) << lock_waits
     << std::setw(10) << conflicts << std::setw(11) << mean_wait_us
     << std::setw(9) << max_held_locks << std::setw(14)
     << (std::to_string(upward_propagations) + "/" +
         std::to_string(downward_propagations))
     << std::setw(10) << parent_searches;
  return os.str();
}

WorkloadReport RunWorkload(Engine& engine, const WorkloadConfig& config,
                           const TxnGenerator& generator) {
  WorkloadReport report;
  std::atomic<uint64_t> committed{0}, deadlocks{0}, wounds{0}, timeouts{0},
      sheds{0}, retries{0}, unresolved{0}, errors{0};
  std::atomic<uint64_t> queries{0}, reads{0}, writes{0};

  RetryPolicy policy = config.retry;
  policy.max_attempts = config.max_retries + 1;

  LockStats& stats = engine.lock_manager().stats();
  // Total lock requests include row hits (see metrics.h).
  const uint64_t req0 = stats.requests.value() + stats.cache_hits.value();
  const uint64_t waits0 = stats.waits.value();
  const uint64_t conf0 = stats.conflicts.value();
  const uint64_t compat0 = stats.compat_tests.value();
  const uint64_t up0 = stats.upward_propagations.value();
  const uint64_t down0 = stats.downward_propagations.value();
  const uint64_t scan0 = stats.parent_searches.value();

  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(config.threads));
  for (int t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(config.seed * 1000003ULL + static_cast<uint64_t>(t));
      for (int i = 0; i < config.txns_per_thread; ++i) {
        TxnScript script = generator(t, i, rng);
        for (int attempt = 1;; ++attempt) {
          txn::Transaction* txn =
              engine.txn_manager().Begin(script.user, txn::TxnKind::kShort);
          Status failure;
          for (const query::Query& q : script.queries) {
            Result<query::QueryResult> r = engine.RunQuery(*txn, q);
            if (!r.ok()) {
              failure = r.status();
              break;
            }
            queries.fetch_add(1, std::memory_order_relaxed);
            reads.fetch_add(r->values_read, std::memory_order_relaxed);
            writes.fetch_add(r->values_written, std::memory_order_relaxed);
            if (script.work_us > 0) {
              // Think/IO time while holding locks.  Sleeping (rather than
              // spinning) keeps the measurement meaningful on machines
              // with few cores: transactions that are *not* blocked can
              // use the CPU, blocked ones cannot — which is exactly the
              // concurrency the protocols differ in.
              std::this_thread::sleep_for(
                  std::chrono::microseconds(script.work_us));
            }
          }
          if (failure.ok()) {
            engine.txn_manager().Commit(txn);
            engine.txn_manager().Forget(txn->id());
            committed.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          // Abort with cause: classifies into aborts_timeout /
          // aborts_deadlock / aborts_shed in the shared LockStats.
          engine.txn_manager().Abort(txn, failure);
          engine.txn_manager().Forget(txn->id());
          if (failure.IsDeadlock()) {
            deadlocks.fetch_add(1, std::memory_order_relaxed);
          } else if (failure.IsAborted()) {
            // Wound-wait preemption: retry like a deadlock victim.
            wounds.fetch_add(1, std::memory_order_relaxed);
          } else if (failure.IsTimeout()) {
            timeouts.fetch_add(1, std::memory_order_relaxed);
          } else if (failure.IsShed()) {
            sheds.fetch_add(1, std::memory_order_relaxed);
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
            break;  // permanent failure, counted as such
          }
          if (!policy.ShouldRetry(failure, attempt)) {
            // Retry budget exhausted on a retryable failure: the
            // transaction is *reported* as unresolved, never silently
            // dropped (see WorkloadReport::Reconciles).
            unresolved.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          retries.fetch_add(1, std::memory_order_relaxed);
          engine.lock_manager().stats().retries.Add();
          // Exponential backoff with jitter: retried transactions get
          // *younger* ids, so without backoff wait-die-style policies
          // can livelock a restarting victim against a long holder.
          const uint64_t backoff_us = policy.BackoffUs(attempt, rng);
          if (backoff_us != 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(backoff_us));
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  report.elapsed_ns = wall.ElapsedNanos();
  report.submitted = static_cast<uint64_t>(config.threads) *
                     static_cast<uint64_t>(config.txns_per_thread);
  report.committed = committed.load();
  report.deadlock_aborts = deadlocks.load();
  report.wound_aborts = wounds.load();
  report.timeout_aborts = timeouts.load();
  report.shed_aborts = sheds.load();
  report.retries = retries.load();
  report.unresolved = unresolved.load();
  report.other_errors = errors.load();
  report.queries_executed = queries.load();
  report.values_read = reads.load();
  report.values_written = writes.load();
  report.lock_requests =
      stats.requests.value() + stats.cache_hits.value() - req0;
  report.lock_waits = stats.waits.value() - waits0;
  report.conflicts = stats.conflicts.value() - conf0;
  report.compat_tests = stats.compat_tests.value() - compat0;
  report.upward_propagations = stats.upward_propagations.value() - up0;
  report.downward_propagations = stats.downward_propagations.value() - down0;
  report.parent_searches = stats.parent_searches.value() - scan0;
  report.max_held_locks =
      stats.max_held_locks.load(std::memory_order_relaxed);
  report.mean_wait_us = stats.wait_ns.mean() / 1000.0;
  return report;
}

}  // namespace codlock::sim
