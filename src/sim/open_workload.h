/// \file open_workload.h
/// \brief Open-system workload: Poisson arrivals + response-time report.
///
/// `RunWorkload` (harness.h) is a *closed* system: a fixed set of workers
/// issues the next transaction as soon as the previous one finishes, which
/// measures capacity.  Real workstation–server systems are *open*:
/// requests arrive on their own schedule whether or not earlier ones are
/// done, and what users feel is the *response time*.  The open harness
/// generates exponential inter-arrival times at a configurable rate,
/// dispatches them to a worker pool, and reports latency percentiles —
/// queueing delay included.  Blocking caused by coarse lock granules shows
/// up here as the classic hockey-stick latency curve (benchmark E11).

#ifndef CODLOCK_SIM_OPEN_WORKLOAD_H_
#define CODLOCK_SIM_OPEN_WORKLOAD_H_

#include <string>

#include "sim/harness.h"

namespace codlock::sim {

/// \brief Open-workload configuration.
struct OpenWorkloadConfig {
  /// Mean arrival rate (transactions per second, Poisson process).
  double arrival_rate_tps = 1000.0;
  /// Total number of transactions to generate.
  int total_txns = 500;
  /// Worker pool size (max in-flight transactions).
  int workers = 8;
  uint64_t seed = 1;
  /// Re-runs per transaction after a retryable abort (`RetryPolicy`, with
  /// `max_attempts = max_retries + 1` and its default backoff).
  int max_retries = 20;
};

/// \brief Response-time report of an open run.
struct LatencyReport {
  uint64_t arrived = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;  ///< re-runs after retryable aborts
  uint64_t elapsed_ns = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;

  double offered_tps() const {
    return elapsed_ns == 0 ? 0.0
                           : static_cast<double>(arrived) * 1e9 /
                                 static_cast<double>(elapsed_ns);
  }
  double completed_tps() const {
    return elapsed_ns == 0 ? 0.0
                           : static_cast<double>(completed) * 1e9 /
                                 static_cast<double>(elapsed_ns);
  }

  static std::string Header();
  std::string Row(const std::string& label) const;
};

/// Runs an open workload: transactions produced by \p generator arrive at
/// `config.arrival_rate_tps` and are executed by `config.workers` workers;
/// latency is measured from *arrival* to commit (queueing included).
LatencyReport RunOpenWorkload(Engine& engine,
                              const OpenWorkloadConfig& config,
                              const TxnGenerator& generator);

}  // namespace codlock::sim

#endif  // CODLOCK_SIM_OPEN_WORKLOAD_H_
