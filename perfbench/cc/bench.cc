#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {
constexpr size_t kMaxSpansPerThread = 200'000;

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}
}  // namespace

uint64_t SampleLog::requests() const {
  uint64_t n = 0;
  for (const Histogram& h : windows_) n += h.count();
  return n;
}

uint64_t SampleLog::calls() const {
  uint64_t n = 0;
  for (const Histogram& h : kinds_) n += h.count();
  return n;
}

uint64_t PhaseResult::requests() const {
  uint64_t n = 0;
  for (const SampleLog& log : logs) n += log.requests();
  return n;
}

uint64_t PhaseResult::calls() const {
  uint64_t n = 0;
  for (const SampleLog& log : logs) n += log.calls();
  return n;
}

PhaseResult RunPhase(int threads, double warmup_s, double seconds,
                     uint64_t trace_every, const ClientBody& body,
                     const std::function<void()>& on_measure) {
  PhaseResult r;
  r.window_s = seconds / kSubWindows;
  const uint64_t window_ns = std::max<uint64_t>(
      1, static_cast<uint64_t>(r.window_s * 1e9));
  r.logs.resize(static_cast<size_t>(threads));
  r.tracers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    r.tracers.emplace_back(false, trace_every > 0 ? kMaxSpansPerThread : 0);
  }
  std::atomic<uint64_t> t0{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Tracer& tracer = r.tracers[static_cast<size_t>(t)];
      SampleLog& log = r.logs[static_cast<size_t>(t)];
      SetCurrentTracer(&tracer);
      uint64_t measured = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t start = t0.load(std::memory_order_acquire);
        log.Arm(start, window_ns);
        tracer.set_enabled(trace_every > 0 && start != 0 &&
                           measured++ % trace_every == 0);
        body(t, log);
      }
      SetCurrentTracer(nullptr);
    });
  }
  SleepSeconds(warmup_s);
  if (on_measure) on_measure();
  r.t0 = NowNs();
  t0.store(r.t0, std::memory_order_release);
  SleepSeconds(seconds);
  r.t1 = NowNs();
  stop.store(true);
  for (std::thread& w : workers) w.join();
  return r;
}

uint64_t TraceEvery(const PhaseResult& reference, double seconds,
                    double spans_per_request) {
  const double ref_s = static_cast<double>(reference.t1 - reference.t0) / 1e9;
  const double per_thread = static_cast<double>(reference.requests()) /
                            ref_s * seconds /
                            static_cast<double>(reference.logs.size());
  const double k = std::ceil(per_thread * spans_per_request /
                             static_cast<double>(kMaxSpansPerThread));
  return std::max<uint64_t>(1, static_cast<uint64_t>(k));
}

namespace {

Histogram MergeWindow(const PhaseResult& phase, size_t w) {
  Histogram h;
  for (const SampleLog& log : phase.logs) h.Merge(log.windows()[w]);
  return h;
}

Histogram MergeAll(const PhaseResult& phase) {
  Histogram h;
  for (size_t w = 0; w < kSubWindows; ++w) h.Merge(MergeWindow(phase, w));
  return h;
}

/// Median over the finest split of the phase's sub-windows into 10, 5, 2
/// or 1 equal groups where every group's \p q-quantile is reportable.
std::optional<double> MedianQuantile(const PhaseResult& phase, double q) {
  for (size_t group : {1, 2, 5, 10}) {
    std::vector<double> per_group;
    for (size_t first = 0; first < kSubWindows; first += group) {
      Histogram h;
      for (size_t w = first; w < first + group; ++w) {
        h.Merge(MergeWindow(phase, w));
      }
      std::optional<double> x = h.Quantile(q);
      if (!x) break;
      per_group.push_back(*x);
    }
    if (per_group.size() == kSubWindows / group) return Median(per_group);
  }
  return std::nullopt;
}

}  // namespace

void AddRequestMetrics(const PhaseResult& phase, Report* report) {
  std::vector<double> rate;
  for (size_t w = 0; w < kSubWindows; ++w) {
    rate.push_back(static_cast<double>(MergeWindow(phase, w).count()) /
                   phase.window_s);
  }
  const uint64_t n = phase.requests();
  report->Add("ops_per_s", Median(rate), "1/s", n);
  for (auto [name, q] : {std::pair{"op_p50_us", 0.5}, {"op_p90_us", 0.9}}) {
    if (std::optional<double> x = MedianQuantile(phase, q)) {
      report->Add(name, *x / 1e3, "us", n);
    }
  }
  // Printed, not gated: on checkout_ring the p99 follows ext4 write and
  // rename stalls of the long-lock file and swings by half between runs.
  std::optional<double> p99 = MedianQuantile(phase, 0.99);
  report->Detail("op_p99_us", p99 ? *p99 / 1e3 : -1, "us", n);
}

void AddCallDetail(const PhaseResult& phase,
                   const std::vector<std::string>& kind_names,
                   Report* report) {
  for (size_t k = 0; k < kind_names.size(); ++k) {
    Histogram h;
    for (const SampleLog& log : phase.logs) {
      if (k < log.kinds().size()) h.Merge(log.kinds()[k]);
    }
    for (auto [suffix, q] : {std::pair{"_p50_us", 0.5}, {"_p99_us", 0.99}}) {
      std::optional<double> x = h.Quantile(q);
      // Reported with its sample count; -1 marks "too few samples".
      report->Detail(kind_names[k] + suffix, x ? *x / 1e3 : -1, "us",
                     h.count());
    }
  }
}

double TraceOverheadUs(const PhaseResult& traced, const char* root,
                       const PhaseResult& reference) {
  const std::optional<double> on =
      SpanHistograms(traced.tracers)[root].Quantile(0.5);
  const std::optional<double> off = MergeAll(reference).Quantile(0.5);
  return on && off ? (*on - *off) / 1e3 : 0;
}

std::map<std::string, Histogram> SpanHistograms(
    const std::vector<Tracer>& tracers) {
  std::map<std::string, Histogram> out;
  for (const Tracer& t : tracers) {
    for (const Span& s : t.spans()) out[s.name].Add(s.duration());
  }
  return out;
}

void PutQuantiles(LayerValues* values, const std::string& name,
                  const Histogram& ns, double scale) {
  for (auto [suffix, q] : {std::pair{"_p50", 0.5}, {"_p99", 0.99}}) {
    std::optional<double> x = ns.Quantile(q);
    (*values)[name + suffix] = {x ? *x * scale : 0, ns.count()};
  }
}

namespace {

// Every per-layer metric with its unit, in report order (README.md has
// the layer -> metric -> end-to-end table).
const std::vector<std::pair<const char*, const char*>>& PerLayerList() {
  static const std::vector<std::pair<const char*, const char*>> list = {
      {"query.parse_ns_p50", "ns"},
      {"query.parse_ns_p99", "ns"},
      {"query.plan_ns_p50", "ns"},
      {"query.plan_ns_p99", "ns"},
      {"query.exec_self_ns_p50", "ns"},
      {"query.exec_self_ns_p99", "ns"},
      {"query.values_touched_per_txn", "count"},
      {"proto.lock_ns_p50", "ns"},
      {"proto.lock_ns_p99", "ns"},
      {"proto.calls_per_txn", "count"},
      {"proto.up_props_per_txn", "count"},
      {"proto.down_props_per_txn", "count"},
      {"proto.glpt76_gap_pct", "%"},
      {"lock.requests_per_txn", "count"},
      {"lock.fastpath_share", "ratio"},
      {"lock.cache_hit_share", "ratio"},
      {"lock.waits_per_ktxn", "count"},
      {"lock.conflicts_per_ktxn", "count"},
      {"lock.wait_us_p50", "us"},
      {"lock.wait_us_p99", "us"},
      {"lock.deadlocks_per_ktxn", "count"},
      {"lock.timeouts_per_ktxn", "count"},
      {"txn.commit_ns_p50", "ns"},
      {"txn.commit_ns_p99", "ns"},
      {"txn.retries_per_ktxn", "count"},
      {"txn.aborts_deadlock", "count"},
      {"txn.aborts_timeout", "count"},
      {"txn.aborts_shed", "count"},
      {"txn.aborts_wound", "count"},
      {"durability.save_us_p50", "us"},
      {"durability.save_us_p99", "us"},
      {"durability.snapshot_us_p50", "us"},
      {"durability.snapshot_us_p99", "us"},
      {"durability.records", "count"},
      {"durability.file_bytes", "bytes"},
      {"durability.bytes_written_per_op", "bytes"},
      {"ws.checkout_exec_us_p50", "us"},
      {"ws.checkout_exec_us_p99", "us"},
      {"ws.renew_exec_us_p50", "us"},
      {"ws.renew_exec_us_p99", "us"},
      {"ws.checkin_exec_us_p50", "us"},
      {"ws.checkin_exec_us_p99", "us"},
      {"lease.renew_ns_p50", "ns"},
      {"lease.renew_ns_p99", "ns"},
      {"ring.submit_ns_p50", "ns"},
      {"ring.submit_ns_p99", "ns"},
      {"ring.take_ns_p50", "ns"},
      {"ring.take_ns_p99", "ns"},
      {"ring.codec_ns_p50", "ns"},
      {"ring.codec_ns_p99", "ns"},
      {"ring.ping_us_p50", "us"},
      {"ring.ping_us_p99", "us"},
      {"ring.transport_us_p50", "us"},
      {"ring.transport_us_p99", "us"},
      {"ring.sheds_per_kop", "count"},
      {"ring.retries_per_kop", "count"},
      {"ring.salvaged", "count"},
      {"setup.graph_build_us", "us"},
      {"setup.stats_collect_us", "us"},
      {"setup.fixture_s", "s"},
      {"setup.park_s", "s"},
      {"trace.overhead_p50_us", "us"},
  };
  return list;
}

}  // namespace

void EmitPerLayer(const LayerValues& values, Report* report) {
  for (const auto& [name, unit] : PerLayerList()) {
    auto it = values.find(name);
    if (it == values.end()) {
      report->Add(name, 0, unit);
    } else {
      report->Add(name, it->second.first, unit, it->second.second);
    }
  }
  for (const auto& [name, v] : values) {
    const bool listed =
        std::any_of(PerLayerList().begin(), PerLayerList().end(),
                    [&](const auto& e) { return name == e.first; });
    report->Check(listed, "unlisted per-layer metric " + name);
  }
}

void WriteSpans(const std::vector<Tracer>& tracers, const std::string& dir,
                const std::string& stem, Report* report) {
  const std::string path = dir + "/" + stem + ".spans.tsv";
  std::ofstream out(path);
  out << "thread\trequest\tid\tparent\tname\tstart_ns\tend_ns\n";
  uint64_t spans = 0, dropped = 0;
  for (size_t t = 0; t < tracers.size(); ++t) {
    tracers[t].WriteTsv(out, static_cast<int>(t));
    spans += tracers[t].spans().size();
    dropped += tracers[t].dropped();
  }
  report->Check(out.good(), "could not write " + path);
  report->Detail("trace.spans", static_cast<double>(spans), "count", spans);
  report->Detail("trace.dropped_spans", static_cast<double>(dropped), "count",
                 dropped);
}

double MedianSetupSeconds(const std::function<double()>& setup, int* runs) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed);
  *runs = 1;
  if (setup() < 0) return -1;  // warm-up: cold caches, fresh pages
  std::vector<double> per_cpu;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    std::vector<double> times;
    for (int i = 0; i < 3; ++i) {
      const double s = setup();
      ++*runs;
      if (s < 0) break;
      times.push_back(s);
    }
    if (times.size() < 3) {
      pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
      return -1;
    }
    per_cpu.push_back(Median(times));
  }
  pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
  return Median(per_cpu);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

StatsDelta Snapshot(const codlock::LockStats& s) {
  StatsDelta d;
  d.requests = s.requests.value() + s.cache_hits.value();
  d.cache_hits = s.cache_hits.value();
  d.fastpath = s.fastpath_grants.value();
  d.waits = s.waits.value();
  d.conflicts = s.conflicts.value();
  d.deadlocks = s.deadlocks.value();
  d.timeouts = s.timeouts.value();
  d.sheds = s.sheds.value();
  d.up = s.upward_propagations.value();
  d.down = s.downward_propagations.value();
  d.aborts_deadlock = s.aborts_deadlock.value();
  d.aborts_timeout = s.aborts_timeout.value();
  d.aborts_shed = s.aborts_shed.value();
  return d;
}

StatsDelta Minus(const StatsDelta& a, const StatsDelta& b) {
  StatsDelta d;
  d.requests = a.requests - b.requests;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.fastpath = a.fastpath - b.fastpath;
  d.waits = a.waits - b.waits;
  d.conflicts = a.conflicts - b.conflicts;
  d.deadlocks = a.deadlocks - b.deadlocks;
  d.timeouts = a.timeouts - b.timeouts;
  d.sheds = a.sheds - b.sheds;
  d.up = a.up - b.up;
  d.down = a.down - b.down;
  d.aborts_deadlock = a.aborts_deadlock - b.aborts_deadlock;
  d.aborts_timeout = a.aborts_timeout - b.aborts_timeout;
  d.aborts_shed = a.aborts_shed - b.aborts_shed;
  return d;
}

void PutLockLayers(const StatsDelta& d, uint64_t txns, LayerValues* v) {
  const double n = static_cast<double>(std::max<uint64_t>(txns, 1));
  const double reqs = static_cast<double>(std::max<uint64_t>(d.requests, 1));
  auto put = [&](const char* name, double value, uint64_t samples) {
    (*v)[name] = {value, samples};
  };
  put("proto.up_props_per_txn", d.up / n, d.up);
  put("proto.down_props_per_txn", d.down / n, d.down);
  put("lock.requests_per_txn", d.requests / n, d.requests);
  put("lock.fastpath_share", d.fastpath / reqs, d.fastpath);
  put("lock.cache_hit_share", d.cache_hits / reqs, d.cache_hits);
  put("lock.waits_per_ktxn", 1e3 * d.waits / n, d.waits);
  put("lock.conflicts_per_ktxn", 1e3 * d.conflicts / n, d.conflicts);
  put("lock.deadlocks_per_ktxn", 1e3 * d.deadlocks / n, d.deadlocks);
  put("lock.timeouts_per_ktxn", 1e3 * d.timeouts / n, d.timeouts);
  put("txn.aborts_deadlock", static_cast<double>(d.aborts_deadlock), 0);
  put("txn.aborts_timeout", static_cast<double>(d.aborts_timeout), 0);
  put("txn.aborts_shed", static_cast<double>(d.aborts_shed), 0);
}

}  // namespace perfbench
