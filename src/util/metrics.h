/// \file metrics.h
/// \brief Counters and latency histograms used by the lock manager,
/// protocols, and the simulation harness.

#ifndef CODLOCK_UTIL_METRICS_H_
#define CODLOCK_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace codlock {

/// \brief A monotonically increasing, thread-safe counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Fixed-bucket log2 latency histogram (nanoseconds), thread-safe.
///
/// Bucket i covers [2^i, 2^(i+1)) ns; 64 buckets cover the full uint64
/// range.  Percentile reads are approximate (bucket midpoint) which is
/// sufficient for the relative comparisons the benchmarks report.
class LatencyHistogram {
 public:
  /// Records one sample of \p nanos nanoseconds.
  void Record(uint64_t nanos);

  /// Total number of recorded samples.
  uint64_t count() const;

  /// Mean of all samples (exact, from a running sum).
  double mean() const;

  /// Approximate \p q-quantile (0 < q < 1) in nanoseconds.
  uint64_t Quantile(double q) const;

  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  void Reset();

  /// Merges \p other into this histogram.
  void Merge(const LatencyHistogram& other);

 private:
  static constexpr int kBuckets = 64;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> max_{0};
};

/// \brief Statistics kept by the lock manager and protocols.
///
/// One instance is shared by all components of a running configuration; the
/// benchmark harness snapshots and diffs it.
struct LockStats {
  Counter requests;           ///< Slow-path lock requests received; total
                              ///< requests = requests + cache_hits.
  Counter grants;             ///< Slow-path grants (immediate or after wait);
                              ///< total grants = grants + cache_hits.
  Counter immediate_grants;   ///< Slow-path grants that never blocked.
  Counter cache_hits;         ///< Grants answered by a per-txn lock cache
                              ///< (no shard mutex touched).
  Counter fastpath_grants;    ///< Always 0: the lock manager has one grant
                              ///< path, under the shard mutex.  Kept only
                              ///< because perfbench's lock.fastpath_share
                              ///< still reads it.
  Counter waits;              ///< Requests that blocked at least once.
  Counter conflicts;          ///< Compatibility-test failures.
  Counter compat_tests;       ///< Compatibility tests executed.
  Counter deadlocks;          ///< Requests denied by deadlock detection.
  Counter timeouts;           ///< Requests denied by deadline expiry.
  Counter sheds;              ///< Requests rejected by overload shedding
                              ///< (blocked-waiter cap reached).
  Counter releases;           ///< Individual lock releases.
  Counter escalations;        ///< Run-time lock escalations performed.
  Counter deescalations;      ///< De-escalations (coarse lock narrowed).
  Counter upward_propagations;    ///< Implicit upward propagation lock ops.
  Counter downward_propagations;  ///< Implicit downward propagation lock ops.
  Counter parent_searches;    ///< Objects scanned to find referencing parents
                              ///< (naive DAG protocol on shared data).

  // Transaction-level failure accounting (maintained by the txn layer and
  // harnesses that own the abort/retry loop, not by the lock manager).
  Counter aborts_timeout;     ///< Transactions aborted because a lock wait
                              ///< exceeded its deadline.
  Counter aborts_deadlock;    ///< Transactions aborted as deadlock victims
                              ///< (incl. wound-wait preemptions, wait-die).
  Counter aborts_shed;        ///< Transactions aborted by overload shedding.
  Counter retries;            ///< Transparent re-runs of aborted txns.

  // Workstation liveness (leases over check-outs; maintained by ws::Server).
  Counter leases_granted;     ///< Check-out leases issued.
  Counter leases_renewed;     ///< Successful lease renewals (incl. resumes).
  Counter leases_expired;     ///< Leases that ran past deadline + grace.
  Counter fenced_checkins;    ///< Check-in/renew/resume attempts rejected
                              ///< with a stale fencing epoch (zombies).
  Counter reclaimed_long_locks;  ///< Long locks released by the lease
                                 ///< reclamation sweep (stranded capacity
                                 ///< recovered from dead workstations).

  // Out-of-process serving (shared-memory job ring; maintained by
  // ws::ShmRing / ws::Host).
  Counter ring_published;        ///< Job frames published into the ring.
  Counter ring_consumed;         ///< Frames claimed by a worker with a
                                 ///< valid CRC (executed or executing).
  Counter ring_salvaged_frames;  ///< Torn frames (CRC mismatch — the
                                 ///< writer died mid-write) detected by a
                                 ///< consumer and their slots salvaged.
  Counter handles_fenced;        ///< Client handles fenced by the
                                 ///< dead-handle sweep or a host restart.
  Counter jobs_shed_per_handle;  ///< Jobs rejected by ring admission
                                 ///< control (per-handle or global
                                 ///< in-flight cap; also counted in
                                 ///< `sheds`).

  LatencyHistogram wait_ns;   ///< Time spent blocked per waiting request.

  /// Number of distinct lock-table entries currently held (gauge).
  std::atomic<int64_t> held_locks{0};
  /// High-water mark of held_locks.
  std::atomic<int64_t> max_held_locks{0};

  void Reset();

  /// Multi-line human-readable dump.
  std::string ToString() const;

  /// Flat JSON object with every counter (`codlock_dbtool stats --json`,
  /// bench harnesses).
  std::string ToJson() const;
};

/// \brief Simple stopwatch returning elapsed nanoseconds.
class Stopwatch {
 public:
  Stopwatch();
  /// Nanoseconds since construction or the last Restart().
  uint64_t ElapsedNanos() const;
  void Restart();

 private:
  uint64_t start_ns_;
};

/// Current monotonic time in nanoseconds.
uint64_t MonotonicNanos();

}  // namespace codlock

#endif  // CODLOCK_UTIL_METRICS_H_
