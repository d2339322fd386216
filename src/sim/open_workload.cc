#include "sim/open_workload.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/metrics.h"
#include "util/retry.h"

namespace codlock::sim {

std::string LatencyReport::Header() {
  std::ostringstream os;
  os << std::left << std::setw(34) << "configuration" << std::right
     << std::setw(11) << "offered" << std::setw(11) << "completed"
     << std::setw(8) << "failed" << std::setw(10) << "mean_ms" << std::setw(9)
     << "p50_ms" << std::setw(9) << "p95_ms" << std::setw(9) << "p99_ms"
     << std::setw(9) << "max_ms";
  return os.str();
}

std::string LatencyReport::Row(const std::string& label) const {
  std::ostringstream os;
  os << std::left << std::setw(34) << label << std::right << std::fixed
     << std::setprecision(0) << std::setw(11) << offered_tps()
     << std::setw(11) << completed_tps() << std::setw(8) << failed
     << std::setprecision(2) << std::setw(10) << mean_ms << std::setw(9)
     << p50_ms << std::setw(9) << p95_ms << std::setw(9) << p99_ms
     << std::setw(9) << max_ms;
  return os.str();
}

namespace {

struct Job {
  TxnScript script;
  uint64_t arrival_ns = 0;
};

}  // namespace

LatencyReport RunOpenWorkload(Engine& engine,
                              const OpenWorkloadConfig& config,
                              const TxnGenerator& generator) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> queue;
  bool closed = false;

  LatencyHistogram latency;
  std::atomic<uint64_t> completed{0}, failed{0}, retries{0};

  RetryPolicy policy;
  policy.max_attempts = config.max_retries + 1;

  auto worker_fn = [&](int worker_id) {
    Rng rng(config.seed * 7919ULL + static_cast<uint64_t>(worker_id));
    while (true) {
      Job job;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;  // closed and drained
        job = std::move(queue.front());
        queue.pop_front();
      }
      for (int attempt = 1;; ++attempt) {
        txn::Transaction* txn =
            engine.txn_manager().Begin(job.script.user, txn::TxnKind::kShort);
        Status failure;
        for (const query::Query& q : job.script.queries) {
          Result<query::QueryResult> r = engine.RunQuery(*txn, q);
          if (!r.ok()) {
            failure = r.status();
            break;
          }
          if (job.script.work_us > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(job.script.work_us));
          }
        }
        if (failure.ok()) {
          engine.txn_manager().Commit(txn);
          engine.txn_manager().Forget(txn->id());
          latency.Record(MonotonicNanos() - job.arrival_ns);
          completed.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        // Abort with cause: classifies into aborts_timeout /
        // aborts_deadlock / aborts_shed in the shared LockStats.
        engine.txn_manager().Abort(txn, failure);
        engine.txn_manager().Forget(txn->id());
        if (!policy.ShouldRetry(failure, attempt)) {
          failed.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        retries.fetch_add(1, std::memory_order_relaxed);
        engine.lock_manager().stats().retries.Add();
        std::this_thread::sleep_for(
            std::chrono::microseconds(policy.BackoffUs(attempt, rng)));
      }
    }
  };

  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(config.workers));
  for (int w = 0; w < config.workers; ++w) workers.emplace_back(worker_fn, w);

  // The arrival process: exponential inter-arrival times.
  Rng arrival_rng(config.seed);
  uint64_t arrived = 0;
  for (int i = 0; i < config.total_txns; ++i) {
    double u = arrival_rng.NextDouble();
    double gap_s = -std::log(1.0 - u) / config.arrival_rate_tps;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<uint64_t>(gap_s * 1e9)));
    Job job;
    job.script = generator(0, i, arrival_rng);
    job.arrival_ns = MonotonicNanos();
    {
      std::lock_guard lk(mu);
      queue.push_back(std::move(job));
    }
    cv.notify_one();
    ++arrived;
  }
  {
    std::lock_guard lk(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& w : workers) w.join();

  LatencyReport report;
  report.arrived = arrived;
  report.completed = completed.load();
  report.failed = failed.load();
  report.retries = retries.load();
  report.elapsed_ns = wall.ElapsedNanos();
  report.mean_ms = latency.mean() / 1e6;
  report.p50_ms = static_cast<double>(latency.Quantile(0.50)) / 1e6;
  report.p95_ms = static_cast<double>(latency.Quantile(0.95)) / 1e6;
  report.p99_ms = static_cast<double>(latency.Quantile(0.99)) / 1e6;
  report.max_ms = static_cast<double>(latency.max()) / 1e6;
  return report;
}

}  // namespace codlock::sim
