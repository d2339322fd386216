// Spans, per-thread span recorders and the benchmark's percentile rule.
//
// A span is one call the benchmark makes into a layer's public API: name,
// start, end, the span that caused it (parent) and the request it belongs
// to.  Each client thread owns a `Tracer`; spans stay in memory until the
// run ends, when they are summarized (and written out as TSV).  A disabled
// tracer records nothing, so the untraced run and the traced run execute
// the same code.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

struct Span {
  const char* name = "";   // static string
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;         // 1-based index in its tracer
  uint32_t parent = 0;     // 0 = root of its request
  uint64_t request = 0;
  uint64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// \p max_spans bounds memory: spans beyond it are counted, not kept.
  Tracer(bool enabled, size_t max_spans);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Spans opened from now on belong to request \p id.
  void BeginRequest(uint64_t id) { request_ = id; }

  /// Opens a span under the innermost open one; returns its token (0 when
  /// disabled or full).
  uint32_t Open(const char* name);
  void Close(uint32_t token);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// One TSV line per span: thread, request, id, parent, name, start, end.
  void WriteTsv(std::ostream& os, int thread) const;

 private:
  bool enabled_;
  size_t max_spans_;
  uint64_t request_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// The calling thread's tracer (nullptr outside client threads).
Tracer* CurrentTracer();
void SetCurrentTracer(Tracer* tracer);

/// RAII span on the current thread's tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : tracer_(CurrentTracer()),
        token_(tracer_ != nullptr ? tracer_->Open(name) : 0) {}
  ~ScopedSpan() {
    if (token_ != 0) tracer_->Close(token_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t token_;
};

/// Self time of every span of one tracer: its duration minus the part of
/// its interval covered by its direct children (overlapping children are
/// merged; children are clipped to the parent).  Indexed like `spans`.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Log-linear latency histogram in nanoseconds with fixed memory: exact
/// below 128 ns, then 128 buckets per power of two (< 0.8% wide).  The
/// run's latency samples go here, so the benchmark's own memory does not
/// grow with throughput and `peak_rss_mb` measures the system under test.
class Histogram {
 public:
  void Add(uint64_t ns);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }

  /// Nearest-rank \p q-quantile, interpolated within its bucket; nullopt
  /// unless at least 10 samples lie beyond its rank (too few to tell that
  /// percentile from the maximum).
  std::optional<double> Quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub + (64 - kSubBits) * kSub;
  static size_t BucketOf(uint64_t ns);
  static uint64_t LowerBound(size_t bucket);
  static uint64_t Width(size_t bucket);

  std::vector<uint64_t> counts_;  // sized on first Add
  uint64_t count_ = 0;
};

/// Median of \p values (sorted in place); 0 for an empty vector.
double Median(std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
