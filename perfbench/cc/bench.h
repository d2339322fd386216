// Shared types of the benchmark driver: run configuration, the report a
// workload returns, latency samples and the closed-loop run phases.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "util/metrics.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // run files: traces, the long-lock store
};

/// A metric as printed: value, unit and the samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// What a workload hands back to main.
struct Report {
  std::vector<Metric> metrics;   // e2e (untraced) or per-layer (traced)
  std::vector<Metric> detail;    // printed only: per-kind latencies etc.
  std::vector<std::string> violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // still failing after retries, shed or timed out

  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Detail(std::string name, double value, std::string unit,
              uint64_t samples = 0) {
    detail.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

inline constexpr int kSubWindows = 10;

/// Per-thread latency record of one phase, in fixed-size histograms:
/// request latencies per sub-window of the measured window, and call
/// latencies per kind (reads/writes, check-out/renew/check-in).  Samples
/// are kept only once the measured window has opened.
class SampleLog {
 public:
  SampleLog() : windows_(kSubWindows) {}

  /// Opens the measured window at \p t0 (0 keeps it closed).
  void Arm(uint64_t t0, uint64_t window_ns) {
    t0_ = t0;
    window_ns_ = window_ns;
  }
  /// One closed-loop request that ended at \p end_ns.
  void Request(uint64_t end_ns, uint64_t latency_ns) {
    if (t0_ == 0 || end_ns < t0_) return;
    const uint64_t w = (end_ns - t0_) / window_ns_;
    windows_[w < kSubWindows ? w : kSubWindows - 1].Add(latency_ns);
  }
  /// One call of kind \p kind within a request.
  void Call(size_t kind, uint64_t latency_ns) {
    if (t0_ == 0) return;
    if (kinds_.size() <= kind) kinds_.resize(kind + 1);
    kinds_[kind].Add(latency_ns);
  }

  const std::vector<Histogram>& windows() const { return windows_; }
  const std::vector<Histogram>& kinds() const { return kinds_; }
  uint64_t requests() const;
  uint64_t calls() const;

 private:
  uint64_t t0_ = 0;
  uint64_t window_ns_ = 1;
  std::vector<Histogram> windows_;
  std::vector<Histogram> kinds_;
};

/// Runs \p threads client threads in a closed loop: each calls
/// `body(thread, log)` (one request) repeatedly until the phase ends.  The
/// first `warmup_s` seconds are not measured; then `on_measure` runs on
/// the calling thread (stats snapshots) and the window of `seconds` opens.
/// With `trace_every` = k > 0 every k-th measured request of a thread is
/// traced; 0 traces nothing.
struct PhaseResult {
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  double window_s = 0;              // length of one sub-window
  std::vector<SampleLog> logs;      // per thread
  std::vector<Tracer> tracers;      // per thread

  uint64_t requests() const;
  uint64_t calls() const;
};

using ClientBody = std::function<void(int thread, SampleLog& log)>;

PhaseResult RunPhase(int threads, double warmup_s, double seconds,
                     uint64_t trace_every, const ClientBody& body,
                     const std::function<void()>& on_measure = {});

/// The `trace_every` that spreads the spans of a traced window of
/// \p seconds over the whole window within the per-thread span buffer,
/// from the request rate of the untraced \p reference phase and an upper
/// estimate of \p spans_per_request.
uint64_t TraceEvery(const PhaseResult& reference, double seconds,
                    double spans_per_request);

/// End-to-end request metrics of a phase: ops_per_s, op_p50_us and
/// op_p90_us (op_p99_us as detail), each the median over equal
/// sub-windows of the measured window.  The percentiles use the finest split into 10, 5, 2 or 1
/// sub-windows in which every part has at least 10 samples beyond the
/// percentile (a check-out session is slow enough that one tenth of the
/// window can hold too few tail samples).
void AddRequestMetrics(const PhaseResult& phase, Report* report);

/// Per-kind call latencies (p50/p99 in µs over the whole window) as
/// printed detail, for kinds named in \p kind_names.
void AddCallDetail(const PhaseResult& phase,
                   const std::vector<std::string>& kind_names,
                   Report* report);

/// Tracing overhead in µs: the median of the traced requests' root spans
/// named \p root in \p traced minus the whole-window request median of the
/// untraced \p reference.  Root spans, not the traced window's latencies:
/// once a thread's span buffer is full its later requests run untraced.
double TraceOverheadUs(const PhaseResult& traced, const char* root,
                       const PhaseResult& reference);

/// Span durations by span name across \p tracers (nanoseconds).
std::map<std::string, Histogram> SpanHistograms(
    const std::vector<Tracer>& tracers);

/// Per-layer values of a traced run by metric name: (value, samples).
using LayerValues = std::map<std::string, std::pair<double, uint64_t>>;

/// Puts `<name>_p50` and `<name>_p99` of \p ns scaled by \p scale (1 for
/// ns, 1e-3 for µs); 0 when absent or too few samples.
void PutQuantiles(LayerValues* values, const std::string& name,
                  const Histogram& ns, double scale);

/// Writes every tracer's spans to `<dir>/<stem>.spans.tsv` and reports
/// the span count (and the spans dropped at the memory cap) as detail.
void WriteSpans(const std::vector<Tracer>& tracers, const std::string& dir,
                const std::string& stem, Report* report);

/// The `setup_s` of an untraced run.  `setup` builds the workload's world
/// (tearing the previous one down first) and returns its own duration in
/// seconds.  It runs once to warm up, then three times pinned to each CPU
/// the process may use; the result is the median over CPUs of each CPU's
/// median.  Virtual CPUs of one host can differ in speed by half and
/// change over minutes; a single-threaded time taken wherever the
/// scheduler happens to put it is then bimodal across runs.  The calling
/// thread's CPU set is restored before returning.  Returns a negative
/// value, after running \p setup no further, when it reports failure.
/// \p runs receives the number of set-ups made.
double MedianSetupSeconds(const std::function<double()>& setup, int* runs);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Adds every per-layer metric (name and unit from one fixed list) to the
/// traced report, in list order; a layer the workload does not reach
/// reads 0.  A name in \p values that is not on the list is a violation.
void EmitPerLayer(const LayerValues& values, Report* report);

/// Delta of a LockStats snapshot.
struct StatsDelta {
  uint64_t requests = 0, cache_hits = 0, fastpath = 0, waits = 0,
           conflicts = 0, deadlocks = 0, timeouts = 0, sheds = 0, up = 0,
           down = 0, aborts_deadlock = 0, aborts_timeout = 0, aborts_shed = 0;
};
StatsDelta Snapshot(const codlock::LockStats& s);
StatsDelta Minus(const StatsDelta& a, const StatsDelta& b);

/// Puts the lock-manager and propagation metrics of a window's stats
/// delta \p d over \p txns completed requests.
void PutLockLayers(const StatsDelta& d, uint64_t txns, LayerValues* v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
