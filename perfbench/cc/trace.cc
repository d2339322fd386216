#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(bool enabled, size_t max_spans)
    : enabled_(enabled), max_spans_(max_spans) {
  if (enabled_) spans_.reserve(max_spans_);
}

uint32_t Tracer::Open(const char* name) {
  if (!enabled_) return 0;
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.request = request_;
  spans_.push_back(s);
  open_.push_back(s.id);
  spans_.back().start_ns = NowNs();
  return s.id;
}

void Tracer::Close(uint32_t token) {
  const uint64_t now = NowNs();
  spans_[token - 1].end_ns = now;
  // Spans close innermost-first; tolerate a skipped (dropped) child.
  while (!open_.empty()) {
    const uint32_t top = open_.back();
    open_.pop_back();
    if (top == token) break;
  }
}

void Tracer::WriteTsv(std::ostream& os, int thread) const {
  for (const Span& s : spans_) {
    os << thread << '\t' << s.request << '\t' << s.id << '\t' << s.parent
       << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

namespace {
thread_local Tracer* t_tracer = nullptr;
}  // namespace

Tracer* CurrentTracer() { return t_tracer; }
void SetCurrentTracer(Tracer* tracer) { t_tracer = tracer; }

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.parent > spans.size()) continue;
    const Span& p = spans[s.parent - 1];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[s.parent - 1].emplace_back(lo, hi);
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    const uint64_t d = spans[i].duration();
    self[i] = d > covered ? d - covered : 0;
  }
  return self;
}

size_t Histogram::BucketOf(uint64_t ns) {
  if (ns < kSub) return static_cast<size_t>(ns);
  const int e = 63 - __builtin_clzll(ns);  // >= kSubBits
  const int shift = e - kSubBits;
  return kSub + static_cast<size_t>(shift) * kSub +
         static_cast<size_t>((ns >> shift) - kSub);
}

uint64_t Histogram::LowerBound(size_t bucket) {
  if (bucket < kSub) return bucket;
  const size_t shift = (bucket - kSub) / kSub;
  const uint64_t sub = (bucket - kSub) % kSub;
  return (kSub + sub) << shift;
}

uint64_t Histogram::Width(size_t bucket) {
  return bucket < kSub ? 1 : uint64_t{1} << ((bucket - kSub) / kSub);
}

void Histogram::Add(uint64_t ns) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  ++counts_[BucketOf(ns)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

std::optional<double> Histogram::Quantile(double q) const {
  const uint64_t n = count_;
  if (n == 0) return std::nullopt;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  uint64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t c = counts_[b];
    if (below + c >= rank) {
      if (Width(b) == 1) return static_cast<double>(LowerBound(b));
      // The rank-th sample's position among the bucket's c samples,
      // spread evenly over the bucket.
      const double pos = (static_cast<double>(rank - below) - 0.5) /
                         static_cast<double>(c);
      return static_cast<double>(LowerBound(b)) +
             pos * static_cast<double>(Width(b));
    }
    below += c;
  }
  return std::nullopt;
}

double Median(std::vector<double>& values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
