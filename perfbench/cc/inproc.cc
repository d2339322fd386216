// The in-process workloads: `short_mix` (Fig. 1 schema, propagation and
// lock waits) and `disjoint_update` (§4.6, the GLPT76 comparison).
//
// Each client request is HDBL text -> ParseQuery -> LockPlanner::Plan ->
// TxnManager::Begin -> QueryExecutor::Execute -> TxnManager::Commit, with
// deadlocks, timeouts, wounds and sheds retried.  The executor drives the
// protocol through `TracingProtocol`, a forwarding decorator that opens a
// span per protocol call, so protocol time (lock-manager time included) is
// separable from the executor's own time without touching the library.

#include <memory>
#include <thread>

#include "bench.h"
#include "gen.h"
#include "proto/co_protocol.h"
#include "proto/sysr_protocol.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/statistics.h"
#include "sim/fixtures.h"
#include "txn/txn_manager.h"
#include "util/retry.h"
#include "workloads.h"

namespace perfbench {

using namespace codlock;

namespace {

constexpr uint64_t kLockTimeoutMs = 2'000;
constexpr size_t kInputsPerThread = 1 << 15;
constexpr int kClientThreads = 4;

/// Forwards every call to the wrapped protocol inside a "proto.lock" span.
class TracingProtocol : public proto::LockProtocol {
 public:
  explicit TracingProtocol(proto::LockProtocol* inner) : inner_(inner) {}

  std::string_view name() const override { return inner_->name(); }

  Status Lock(txn::Transaction& txn, const proto::LockTarget& target,
              lock::LockMode mode) override {
    ScopedSpan span("proto.lock");
    return inner_->Lock(txn, target, mode);
  }
  Status LockEntryPoint(txn::Transaction& txn, const proto::LockTarget& ref,
                        lock::LockMode mode) override {
    ScopedSpan span("proto.lock");
    return inner_->LockEntryPoint(txn, ref, mode);
  }
  Status LockNewValueRefs(txn::Transaction& txn, const nf2::Value& v,
                          lock::LockMode mode) override {
    ScopedSpan span("proto.lock");
    return inner_->LockNewValueRefs(txn, v, mode);
  }

 private:
  proto::LockProtocol* inner_;
};

struct SetupTimes {
  double graph_build_us = 0;
  double stats_collect_us = 0;
};

template <typename Fn>
auto Timed(double* out_us, Fn&& fn) {
  const uint64_t t0 = NowNs();
  auto result = fn();
  *out_us = static_cast<double>(NowNs() - t0) / 1e3;
  return result;
}

/// The whole in-process stack over one catalog + store.
struct Stack {
  Stack(const nf2::Catalog* cat, nf2::InstanceStore* store, bool glpt76,
        SetupTimes* times)
      : catalog(cat),
        graph(Timed(&times->graph_build_us,
                    [&] { return logra::LockGraph::Build(*cat); })),
        stats(Timed(&times->stats_collect_us, [&] {
          return query::Statistics::Collect(*cat, *store);
        })),
        lm(lock::LockManager::Options()),
        txns(&lm),
        inner(MakeProtocol(store, glpt76)),
        traced(inner.get()),
        planner(&graph, cat, &stats),
        exec(&graph, cat, store, &traced, ExecOptions()) {}

  std::unique_ptr<proto::LockProtocol> MakeProtocol(nf2::InstanceStore* store,
                                                    bool glpt76) {
    if (glpt76) {
      proto::SystemRDagProtocol::Options o;
      o.variant = proto::SystemRDagProtocol::Variant::kAllParents;
      o.timeout_ms = kLockTimeoutMs;
      return std::make_unique<proto::SystemRDagProtocol>(&graph, store, &lm, o);
    }
    proto::ComplexObjectProtocol::Options o;
    o.use_rule4_prime = true;
    o.timeout_ms = kLockTimeoutMs;
    return std::make_unique<proto::ComplexObjectProtocol>(&graph, store, &lm,
                                                          &authz, o);
  }

  query::QueryExecutor::Options ExecOptions() {
    query::QueryExecutor::Options o;
    o.stats = &lm.stats();
    return o;
  }

  const nf2::Catalog* catalog;
  logra::LockGraph graph;
  query::Statistics stats;
  authz::AuthorizationManager authz;
  lock::LockManager lm;
  txn::TxnManager txns;
  std::unique_ptr<proto::LockProtocol> inner;
  TracingProtocol traced;
  query::LockPlanner planner;
  query::QueryExecutor exec;
};

/// Per-thread request accounting.
struct TxnCounts {
  uint64_t submitted = 0, committed = 0, unresolved = 0, errors = 0;
  uint64_t retries = 0, wounds = 0, values_touched = 0;
  void Merge(const TxnCounts& o) {
    submitted += o.submitted;
    committed += o.committed;
    unresolved += o.unresolved;
    errors += o.errors;
    retries += o.retries;
    wounds += o.wounds;
    values_touched += o.values_touched;
  }
};

/// One client request; returns true when it committed.
bool RunTxn(Stack& s, const TxnInput& in, Rng& rng, TxnCounts& c) {
  static const RetryPolicy kRetry = [] {
    RetryPolicy p;
    p.max_attempts = 32;
    p.base_backoff_us = 50;
    p.max_backoff_us = 5'000;
    return p;
  }();
  ++c.submitted;
  Result<query::Query> q = [&] {
    ScopedSpan span("query.parse");
    return query::ParseQuery(*s.catalog, in.text);
  }();
  if (!q.ok()) {
    ++c.errors;
    return false;
  }
  Result<query::QueryPlan> plan = [&] {
    ScopedSpan span("query.plan");
    return s.planner.Plan(*q);
  }();
  if (!plan.ok()) {
    ++c.errors;
    return false;
  }
  for (int attempt = 1;; ++attempt) {
    txn::Transaction* t = s.txns.Begin(in.user, txn::TxnKind::kShort);
    const lock::TxnId id = t->id();
    Result<query::QueryResult> r = [&] {
      ScopedSpan span("query.exec");
      return s.exec.Execute(*t, *q, *plan);
    }();
    if (r.ok()) {
      Status st = [&] {
        ScopedSpan span("txn.commit");
        return s.txns.Commit(t);
      }();
      s.txns.Forget(id);
      if (!st.ok()) {
        ++c.errors;
        return false;
      }
      ++c.committed;
      c.values_touched += r->values_read + r->values_written;
      return true;
    }
    const Status failure = r.status();
    s.txns.Abort(t, failure);
    s.txns.Forget(id);
    if (failure.IsAborted()) ++c.wounds;
    if (!kRetry.ShouldRetry(failure, attempt)) {
      ++(RetryPolicy::IsRetryable(failure) ? c.unresolved : c.errors);
      return false;
    }
    ++c.retries;
    std::this_thread::sleep_for(
        std::chrono::microseconds(kRetry.BackoffUs(attempt, rng)));
  }
}

/// Client state of one in-process phase.
struct Clients {
  std::vector<std::vector<TxnInput>> inputs;  // per thread
  std::vector<size_t> next;
  std::vector<Rng> rngs;
  std::vector<TxnCounts> counts;
};

Clients MakeClients(const std::function<std::vector<TxnInput>(uint64_t)>& gen,
                    uint64_t seed) {
  Clients c;
  for (int t = 0; t < kClientThreads; ++t) {
    const uint64_t s = seed * 1'000'003ULL + static_cast<uint64_t>(t);
    c.inputs.push_back(gen(s));
    c.rngs.emplace_back(s ^ 0x5EEDULL);
  }
  c.next.assign(kClientThreads, 0);
  c.counts.assign(kClientThreads, TxnCounts());
  return c;
}

PhaseResult RunClients(Stack& stack, Clients& c, double warmup_s,
                       double seconds, uint64_t trace_every,
                       const std::function<void()>& on_measure = {}) {
  std::atomic<uint64_t> next_request{1};
  return RunPhase(
      kClientThreads, warmup_s, seconds, trace_every,
      [&](int t, SampleLog& log) {
        const size_t ti = static_cast<size_t>(t);
        const TxnInput& in = c.inputs[ti][c.next[ti]++ % c.inputs[ti].size()];
        Tracer* tracer = CurrentTracer();
        tracer->BeginRequest(next_request.fetch_add(1, std::memory_order_relaxed));
        const uint64_t t0 = NowNs();
        bool ok;
        {
          ScopedSpan span("txn");
          ok = RunTxn(stack, in, c.rngs[ti], c.counts[ti]);
        }
        const uint64_t t1 = NowNs();
        if (ok) {
          log.Request(t1, t1 - t0);
          log.Call(in.write ? 1 : 0, t1 - t0);
        }
      },
      on_measure);
}

TxnCounts Total(const Clients& c) {
  TxnCounts total;
  for (const TxnCounts& x : c.counts) total.Merge(x);
  return total;
}

/// Quiescence and accounting checks shared by both in-process workloads.
void CheckQuiescent(Stack& stack, const TxnCounts& total, Report* report) {
  report->Check(total.submitted ==
                    total.committed + total.unresolved + total.errors,
                "txn accounting: submitted " + std::to_string(total.submitted) +
                    " != committed + unresolved + errors");
  report->Check(stack.lm.NumEntries() == 0,
                "lock table not empty at quiescence: " +
                    std::to_string(stack.lm.NumEntries()) + " entries");
  report->Check(stack.txns.ActiveCount() == 0,
                "active transactions left at quiescence");
  report->attempted += total.submitted;
  report->failed += total.unresolved + total.errors;
}

/// Per-layer metrics of a traced in-process phase: span quantiles, the
/// lock-manager deltas \p d and waits \p wait of the measured window, and
/// the clients' counts \p c over the whole phase.
void PutInprocLayers(const PhaseResult& phase, const StatsDelta& d,
                     const LatencyHistogram& wait, const TxnCounts& c,
                     LayerValues* v) {
  std::map<std::string, Histogram> dur = SpanHistograms(phase.tracers);
  PutQuantiles(v, "query.parse_ns", dur["query.parse"], 1);
  PutQuantiles(v, "query.plan_ns", dur["query.plan"], 1);
  PutQuantiles(v, "proto.lock_ns", dur["proto.lock"], 1);
  PutQuantiles(v, "txn.commit_ns", dur["txn.commit"], 1);
  Histogram exec_self;
  for (const Tracer& t : phase.tracers) {
    const std::vector<uint64_t> self = SelfTimes(t.spans());
    for (size_t i = 0; i < self.size(); ++i) {
      if (std::string_view(t.spans()[i].name) == "query.exec") {
        exec_self.Add(self[i]);
      }
    }
  }
  PutQuantiles(v, "query.exec_self_ns", exec_self, 1);
  const uint64_t calls = dur["proto.lock"].count();
  if (const uint64_t traced = dur["txn"].count(); traced > 0) {
    (*v)["proto.calls_per_txn"] = {static_cast<double>(calls) / traced, calls};
  }
  const double committed = static_cast<double>(std::max<uint64_t>(c.committed, 1));
  (*v)["query.values_touched_per_txn"] = {c.values_touched / committed,
                                          c.committed};
  (*v)["txn.retries_per_ktxn"] = {1e3 * c.retries / committed, c.retries};
  (*v)["txn.aborts_wound"] = {static_cast<double>(c.wounds), 0};
  PutLockLayers(d, phase.requests(), v);
  // LockStats' own log2 histogram: bucket midpoints, p99 from 1000 waits.
  (*v)["lock.wait_us_p50"] = {wait.count() ? wait.Quantile(0.5) / 1e3 : 0,
                              wait.count()};
  (*v)["lock.wait_us_p99"] = {
      wait.count() >= 1000 ? wait.Quantile(0.99) / 1e3 : 0, wait.count()};
}

/// Runs an in-process workload end to end.
Report RunInproc(const RunConfig& cfg, bool disjoint) {
  Report report;
  // ---- set-up: fixture + stack, several times; the last one is kept.
  struct World {
    sim::CellsFixture cells;
    sim::SyntheticFixture synth;
    std::unique_ptr<Stack> stack;
    SetupTimes times;
    double fixture_s = 0;
  };
  auto build = [&](World* w) {
    const uint64_t t0 = NowNs();
    if (disjoint) {
      sim::SyntheticParams p;
      p.depth = 2;
      p.fanout = 4;
      p.refs_per_leaf = 0;
      p.num_objects = 4096;
      w->synth = sim::BuildSynthetic(p);
    } else {
      sim::CellsParams p;
      p.num_cells = 1000;
      p.robots_per_cell = 3;
      p.num_effectors = 64;
      p.effectors_per_robot = 2;
      w->cells = sim::BuildCellsEffectors(p);
    }
    const uint64_t t1 = NowNs();
    w->fixture_s = static_cast<double>(t1 - t0) / 1e9;
    const nf2::Catalog* cat =
        disjoint ? w->synth.catalog.get() : w->cells.catalog.get();
    nf2::InstanceStore* store =
        disjoint ? w->synth.store.get() : w->cells.store.get();
    w->stack = std::make_unique<Stack>(cat, store, false, &w->times);
    authz::AuthorizationManager& az = w->stack->authz;
    if (disjoint) {
      az.Grant(kCellsOnly, w->synth.main_relation, authz::Right::kRead);
      az.Grant(kCellsOnly, w->synth.main_relation, authz::Right::kModify);
    } else {
      for (uint64_t user : {kCellsOnly, kCellsAndEffectors}) {
        az.Grant(user, w->cells.cells, authz::Right::kRead);
        az.Grant(user, w->cells.cells, authz::Right::kModify);
        az.Grant(user, w->cells.effectors, authz::Right::kRead);
      }
      az.Grant(kCellsAndEffectors, w->cells.effectors, authz::Right::kModify);
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  };
  std::unique_ptr<World> world;
  auto rebuild = [&] {
    world.reset();  // tear the previous set-up down first
    world = std::make_unique<World>();
    return build(world.get());
  };
  int setups = 1;
  const double setup_s =
      cfg.trace ? rebuild() : MedianSetupSeconds(rebuild, &setups);
  Stack& stack = *world->stack;

  std::vector<std::string> root_keys;
  if (disjoint) {
    for (nf2::ObjectId id : world->synth.store->ObjectsOf(world->synth.main_relation)) {
      root_keys.push_back((*world->synth.store->Get(world->synth.main_relation, id))->key);
    }
  }
  auto gen = [&](uint64_t s) {
    return disjoint ? GenDisjoint(s, kInputsPerThread, root_keys)
                    : GenShortMix(s, kInputsPerThread, ShortMixShape());
  };
  const double warmup = std::min(1.0, cfg.seconds / 10);

  // ---- disjoint self-check: same locks per transaction under both
  // protocols, on identical single-threaded inputs.
  std::unique_ptr<Stack> glpt;
  if (disjoint) {
    SetupTimes ignored;
    glpt = std::make_unique<Stack>(world->synth.catalog.get(),
                                   world->synth.store.get(), true, &ignored);
    const std::vector<TxnInput> probe = GenDisjoint(cfg.seed, 512, root_keys);
    uint64_t locks[2] = {0, 0};
    int k = 0;
    for (Stack* s : {&stack, glpt.get()}) {
      Rng rng(cfg.seed);
      TxnCounts c;
      const StatsDelta before = Snapshot(s->lm.stats());
      for (const TxnInput& in : probe) RunTxn(*s, in, rng, c);
      locks[k++] = Minus(Snapshot(s->lm.stats()), before).requests;
      report.Check(c.committed == probe.size(), "disjoint probe txn failed");
    }
    report.Check(locks[0] == locks[1],
                 "disjoint_update: locks per txn differ between protocols (" +
                     std::to_string(locks[0]) + " vs " +
                     std::to_string(locks[1]) + " over 512 txns)");
  }

  if (!cfg.trace) {
    Clients clients = MakeClients(gen, cfg.seed);
    PhaseResult phase = RunClients(stack, clients, warmup, cfg.seconds, 0);
    report.Add("setup_s", setup_s, "s", static_cast<uint64_t>(setups));
    AddRequestMetrics(phase, &report);
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    AddCallDetail(phase, {"read", "write"}, &report);
    CheckQuiescent(stack, Total(clients), &report);
    return report;
  }

  // ---- traced run: an untraced reference window, then the traced one.
  LayerValues v;
  Clients ref_clients = MakeClients(gen, cfg.seed);
  PhaseResult ref =
      RunClients(stack, ref_clients, warmup, cfg.seconds / 2, 0);
  CheckQuiescent(stack, Total(ref_clients), &report);

  Clients clients = MakeClients(gen, cfg.seed + 1);
  StatsDelta before;
  stack.lm.stats().wait_ns.Reset();
  // Upper estimate of spans per transaction (txn, parse, plan, exec,
  // commit and the protocol calls).
  const uint64_t every = TraceEvery(ref, cfg.seconds, 12);
  PhaseResult phase = RunClients(stack, clients, warmup, cfg.seconds, every,
                                 [&] {
                                   before = Snapshot(stack.lm.stats());
                                   stack.lm.stats().wait_ns.Reset();
                                 });
  const StatsDelta d = Minus(Snapshot(stack.lm.stats()), before);
  const TxnCounts total = Total(clients);
  CheckQuiescent(stack, total, &report);
  PutInprocLayers(phase, d, stack.lm.stats().wait_ns, total, &v);
  v["trace.overhead_p50_us"] = {TraceOverheadUs(phase, "txn", ref), 0};
  v["setup.fixture_s"] = {world->fixture_s, 1};
  v["setup.graph_build_us"] = {world->times.graph_build_us, 1};
  v["setup.stats_collect_us"] = {world->times.stats_collect_us, 1};

  if (disjoint) {
    // GLPT76 gap: alternate short untraced windows of both protocols.
    std::vector<double> gaps;
    const double slice = cfg.seconds / 8;
    for (int pair = 0; pair < 4; ++pair) {
      double tput[2] = {0, 0};
      int k = 0;
      for (Stack* s : {&stack, glpt.get()}) {
        Clients cl = MakeClients(gen, cfg.seed + 2 + static_cast<uint64_t>(pair));
        PhaseResult p = RunClients(*s, cl, slice / 4, slice, 0);
        CheckQuiescent(*s, Total(cl), &report);
        tput[k++] = static_cast<double>(p.requests()) /
                    (static_cast<double>(p.t1 - p.t0) / 1e9);
      }
      if (tput[0] > 0) gaps.push_back(100.0 * (tput[1] / tput[0] - 1.0));
    }
    v["proto.glpt76_gap_pct"] = {Median(gaps), gaps.size()};
  }

  WriteSpans(phase.tracers, cfg.out_dir, cfg.workload, &report);
  EmitPerLayer(v, &report);
  return report;
}

}  // namespace

Report RunShortMix(const RunConfig& cfg) { return RunInproc(cfg, false); }
Report RunDisjointUpdate(const RunConfig& cfg) { return RunInproc(cfg, true); }

}  // namespace perfbench
