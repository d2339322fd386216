#include "util/metrics.h"

#include <chrono>
#include <cmath>
#include <sstream>

namespace codlock {

namespace {
int BucketFor(uint64_t nanos) {
  if (nanos == 0) return 0;
  return 63 - __builtin_clzll(nanos);
}
}  // namespace

void LatencyHistogram::Record(uint64_t nanos) {
  buckets_[BucketFor(nanos)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(nanos, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < nanos &&
         !max_.compare_exchange_weak(prev, nanos, std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double LatencyHistogram::mean() const {
  uint64_t c = count();
  if (c == 0) return 0.0;
  return static_cast<double>(sum_.load(std::memory_order_relaxed)) /
         static_cast<double>(c);
}

uint64_t LatencyHistogram::Quantile(double q) const {
  uint64_t c = count();
  if (c == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(c));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) {
      // Bucket midpoint: 1.5 * 2^i.
      return (1ULL << i) + (1ULL << i) / 2;
    }
  }
  return max();
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i].fetch_add(other.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  uint64_t om = other.max();
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < om &&
         !max_.compare_exchange_weak(prev, om, std::memory_order_relaxed)) {
  }
}

void LockStats::Reset() {
  requests.Reset();
  grants.Reset();
  immediate_grants.Reset();
  cache_hits.Reset();
  fastpath_grants.Reset();
  waits.Reset();
  conflicts.Reset();
  compat_tests.Reset();
  deadlocks.Reset();
  timeouts.Reset();
  sheds.Reset();
  releases.Reset();
  escalations.Reset();
  deescalations.Reset();
  upward_propagations.Reset();
  downward_propagations.Reset();
  parent_searches.Reset();
  aborts_timeout.Reset();
  aborts_deadlock.Reset();
  aborts_shed.Reset();
  retries.Reset();
  leases_granted.Reset();
  leases_renewed.Reset();
  leases_expired.Reset();
  fenced_checkins.Reset();
  reclaimed_long_locks.Reset();
  ring_published.Reset();
  ring_consumed.Reset();
  ring_salvaged_frames.Reset();
  handles_fenced.Reset();
  jobs_shed_per_handle.Reset();
  wait_ns.Reset();
  held_locks.store(0, std::memory_order_relaxed);
  max_held_locks.store(0, std::memory_order_relaxed);
}

std::string LockStats::ToString() const {
  std::ostringstream os;
  os << "requests=" << requests.value() << " grants=" << grants.value()
     << " immediate=" << immediate_grants.value()
     << " cache_hits=" << cache_hits.value()
     << " waits=" << waits.value()
     << " conflicts=" << conflicts.value()
     << " compat_tests=" << compat_tests.value()
     << " deadlocks=" << deadlocks.value() << " timeouts=" << timeouts.value()
     << " sheds=" << sheds.value() << " releases=" << releases.value()
     << " escalations=" << escalations.value()
     << " deescalations=" << deescalations.value()
     << " up_prop=" << upward_propagations.value()
     << " down_prop=" << downward_propagations.value()
     << " parent_searches=" << parent_searches.value()
     << " aborts_timeout=" << aborts_timeout.value()
     << " aborts_deadlock=" << aborts_deadlock.value()
     << " aborts_shed=" << aborts_shed.value()
     << " retries=" << retries.value()
     << " leases_granted=" << leases_granted.value()
     << " leases_renewed=" << leases_renewed.value()
     << " leases_expired=" << leases_expired.value()
     << " fenced_checkins=" << fenced_checkins.value()
     << " reclaimed_long_locks=" << reclaimed_long_locks.value()
     << " ring_published=" << ring_published.value()
     << " ring_consumed=" << ring_consumed.value()
     << " ring_salvaged_frames=" << ring_salvaged_frames.value()
     << " handles_fenced=" << handles_fenced.value()
     << " jobs_shed_per_handle=" << jobs_shed_per_handle.value()
     << " max_held=" << max_held_locks.load(std::memory_order_relaxed)
     << " wait_mean_us=" << wait_ns.mean() / 1000.0;
  return os.str();
}

std::string LockStats::ToJson() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  auto field = [&](const char* name, uint64_t value) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": " << value;
  };
  field("requests", requests.value());
  field("grants", grants.value());
  field("immediate_grants", immediate_grants.value());
  field("cache_hits", cache_hits.value());
  field("waits", waits.value());
  field("conflicts", conflicts.value());
  field("compat_tests", compat_tests.value());
  field("deadlocks", deadlocks.value());
  field("timeouts", timeouts.value());
  field("sheds", sheds.value());
  field("releases", releases.value());
  field("escalations", escalations.value());
  field("deescalations", deescalations.value());
  field("upward_propagations", upward_propagations.value());
  field("downward_propagations", downward_propagations.value());
  field("parent_searches", parent_searches.value());
  field("aborts_timeout", aborts_timeout.value());
  field("aborts_deadlock", aborts_deadlock.value());
  field("aborts_shed", aborts_shed.value());
  field("retries", retries.value());
  field("leases_granted", leases_granted.value());
  field("leases_renewed", leases_renewed.value());
  field("leases_expired", leases_expired.value());
  field("fenced_checkins", fenced_checkins.value());
  field("reclaimed_long_locks", reclaimed_long_locks.value());
  field("ring_published", ring_published.value());
  field("ring_consumed", ring_consumed.value());
  field("ring_salvaged_frames", ring_salvaged_frames.value());
  field("handles_fenced", handles_fenced.value());
  field("jobs_shed_per_handle", jobs_shed_per_handle.value());
  field("held_locks",
        static_cast<uint64_t>(held_locks.load(std::memory_order_relaxed)));
  field("max_held_locks",
        static_cast<uint64_t>(max_held_locks.load(std::memory_order_relaxed)));
  if (!first) os << ", ";
  os << "\"wait_mean_us\": " << wait_ns.mean() / 1000.0;
  os << "}";
  return os.str();
}

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Stopwatch::Stopwatch() : start_ns_(MonotonicNanos()) {}

uint64_t Stopwatch::ElapsedNanos() const {
  return MonotonicNanos() - start_ns_;
}

void Stopwatch::Restart() { start_ns_ = MonotonicNanos(); }

}  // namespace codlock
