// The `checkout_ring` workload: workstation sessions through the
// shared-memory job ring.
//
// Untraced, each client thread drives a `ws::Handle` against a `ws::Host`
// on a real shm segment (kShmCreate) with two worker threads; each session
// is HDBL text -> ParseQuery -> CheckOut -> Renew x2 -> CheckIn.  About 100
// exclusive cell check-outs are parked in set-up and held to the end, so
// every check-out and check-in persists a ~1k-record long-lock table to a
// backing file.
//
// Traced, the sessions go through `TracedClient`, which performs the steps
// of `Handle::Call` itself (wire encode, Host::Submit, wait, Host::Take,
// wire decode) so each can carry a span.  A steppable replay (workers
// stopped, the client pumps `Host::Step`) then separates server execution
// from transport, and times `Server::RenewLease`, `LongLockStore::Save` and
// `LockManager::SnapshotLongLocks` from outside on the same lock table.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>
#include <tuple>

#include "bench.h"
#include "gen.h"
#include "lock/long_lock_store.h"
#include "query/parser.h"
#include "query/statistics.h"
#include "sim/fixtures.h"
#include "workloads.h"
#include "ws/handle.h"
#include "ws/host.h"

namespace perfbench {

using namespace codlock;

namespace {

constexpr int kClients = 2;
constexpr int kHostWorkers = 2;
constexpr size_t kSessionsPerThread = 1 << 14;
constexpr uint64_t kResponseTimeoutUs = 10'000'000;
constexpr int kPings = 2000;

enum CallKind : uint8_t { kCheckOutCall = 0, kRenewCall = 1, kCheckInCall = 2 };

/// A `Handle::Call` with a span on each step.  With host workers running
/// it waits for the response; otherwise it pumps one `Host::Step` itself,
/// inside a span named after the operation.
class TracedClient {
 public:
  explicit TracedClient(ws::Host* host) : host_(host), info_(host->Attach()) {}

  Result<ws::CheckOutTicket> CheckOut(authz::UserId user, const query::Query& q,
                                      ws::CheckOutMode mode) {
    std::string req;
    {
      ScopedSpan span("ring.codec");
      req = ws::wire::EncodeCheckOutRequest(user, mode, q);
    }
    ws::CheckOutTicket ticket;
    Status s = Call(req, &ticket, "ws.exec.checkout");
    if (!s.ok()) return s;
    return ticket;
  }
  Status Renew(const ws::CheckOutTicket& t) {
    return TicketCall(ws::wire::JobOp::kRenew, t, "ws.exec.renew");
  }
  Status CheckIn(const ws::CheckOutTicket& t) {
    return TicketCall(ws::wire::JobOp::kCheckIn, t, "ws.exec.checkin");
  }

  uint64_t sheds() const { return sheds_; }
  uint64_t retries() const { return retries_; }

 private:
  Status TicketCall(ws::wire::JobOp op, const ws::CheckOutTicket& t,
                    const char* exec_span) {
    std::string req;
    {
      ScopedSpan span("ring.codec");
      req = ws::wire::EncodeTicketRequest(op, t);
    }
    return Call(req, nullptr, exec_span);
  }

  Status Call(const std::string& req, ws::CheckOutTicket* out,
              const char* exec_span) {
    ScopedSpan call("ring.call");
    for (int attempt = 1;; ++attempt) {
      const uint64_t job = next_job_++;
      Result<size_t> slot = [&] {
        ScopedSpan span("ring.submit");
        return host_->Submit(info_, job, req);
      }();
      Status s = slot.ok() ? Status::OK() : slot.status();
      if (s.ok()) {
        if (host_->workers_running()) {
          ScopedSpan span("ring.wait");
          if (!host_->ring().WaitDone(*slot, job, kResponseTimeoutUs)) {
            return Status::Timeout("no response for job " + std::to_string(job));
          }
        } else {
          ScopedSpan span(exec_span);
          Result<bool> stepped = host_->Step();
          if (!stepped.ok()) return stepped.status();
        }
        Result<std::string> resp = [&] {
          ScopedSpan span("ring.take");
          return host_->Take(info_, *slot, job);
        }();
        if (!resp.ok()) {
          s = resp.status();
        } else {
          ScopedSpan span("ring.codec");
          s = ws::wire::DecodeResponse(*resp, out);
        }
        if (s.ok()) return s;
      }
      if (!s.IsShed()) return s;
      ++sheds_;
      if (!retry_.ShouldRetry(s, attempt)) return s;
      ++retries_;
      std::this_thread::sleep_for(
          std::chrono::microseconds(retry_.BackoffUs(attempt, rng_)));
    }
  }

  ws::Host* host_;
  ws::HandleInfo info_;
  uint64_t next_job_ = 1;
  RetryPolicy retry_;
  Rng rng_{0x71CE};
  uint64_t sheds_ = 0;
  uint64_t retries_ = 0;
};

struct SessionCounts {
  uint64_t submitted = 0, committed = 0, unresolved = 0, errors = 0;
  void Merge(const SessionCounts& o) {
    submitted += o.submitted;
    committed += o.committed;
    unresolved += o.unresolved;
    errors += o.errors;
  }
};

void CountFailure(const Status& s, SessionCounts& c) {
  ++(RetryPolicy::IsRetryable(s) ? c.unresolved : c.errors);
}

/// One session: parse, check out, renew twice, check in.
template <typename Client>
void RunSession(Client& client, const nf2::Catalog& catalog,
                const SessionInput& in, SampleLog& log, SessionCounts& c) {
  ++c.submitted;
  const uint64_t start = NowNs();
  Result<query::Query> q = [&] {
    ScopedSpan span("query.parse");
    return query::ParseQuery(catalog, in.text);
  }();
  if (!q.ok()) {
    ++c.errors;
    return;
  }
  auto timed = [&](CallKind kind, auto&& call) {
    const uint64_t t0 = NowNs();
    auto result = call();
    log.Call(kind, NowNs() - t0);
    return result;
  };
  Result<ws::CheckOutTicket> ticket = timed(kCheckOutCall, [&] {
    return client.CheckOut(kCellsOnly, *q,
                           in.shared ? ws::CheckOutMode::kShared
                                     : ws::CheckOutMode::kExclusive);
  });
  if (!ticket.ok()) {
    CountFailure(ticket.status(), c);
    return;
  }
  for (int i = 0; i < 2; ++i) {
    Status s = timed(kRenewCall, [&] { return client.Renew(*ticket); });
    if (!s.ok()) {
      CountFailure(s, c);
      (void)client.CheckIn(*ticket);  // do not strand the check-out
      return;
    }
  }
  Status s = timed(kCheckInCall, [&] { return client.CheckIn(*ticket); });
  if (!s.ok()) {
    CountFailure(s, c);
    return;
  }
  ++c.committed;
  const uint64_t end = NowNs();
  log.Request(end, end - start);
}

using RecordKey = std::tuple<lock::TxnId, uint32_t, uint64_t, int>;

std::vector<RecordKey> Keys(const std::vector<lock::LongLockRecord>& records) {
  std::vector<RecordKey> keys;
  for (const lock::LongLockRecord& r : records) {
    keys.emplace_back(r.txn, r.resource.node, r.resource.instance,
                      static_cast<int>(r.mode));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Fixture + host + parked check-outs, with its run directory.
struct RingWorld {
  RingShape shape;
  sim::CellsFixture f;
  std::string dir;
  std::string storage_path;
  std::unique_ptr<ws::Host> host;
  std::vector<RecordKey> parked;
  double fixture_s = 0;
  double park_s = 0;
  Status status;

  ~RingWorld() {
    host.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

std::unique_ptr<RingWorld> BuildWorld(const RunConfig& cfg, int k) {
  auto w = std::make_unique<RingWorld>();
  const uint64_t t0 = NowNs();
  sim::CellsParams p;
  p.num_cells = w->shape.total_cells(kClients);
  p.robots_per_cell = w->shape.robots_per_cell;
  p.num_effectors = 64;
  p.effectors_per_robot = 2;
  w->f = sim::BuildCellsEffectors(p);
  const uint64_t t1 = NowNs();
  w->fixture_s = static_cast<double>(t1 - t0) / 1e9;

  const std::string tag =
      std::to_string(static_cast<long>(getpid())) + "-" + std::to_string(k);
  w->dir = cfg.out_dir + "/ring-" + tag;
  std::filesystem::remove_all(w->dir);
  std::filesystem::create_directories(w->dir);
  w->storage_path = w->dir + "/long_locks.db";

  ws::HostOptions ho;
  ho.ring.slots = 64;
  ho.ring.backend = ws::RingBackend::kShmCreate;
  ho.ring.shm_name = "/codlock-perfbench-" + tag;
  ho.server.storage_path = w->storage_path;
  ho.server.lease.duration_ms = 1u << 30;  // nothing expires mid-run
  ho.server.lease.grace_ms = 1000;
  ho.server.protocol.timeout_ms = 2'000;
  w->host = std::make_unique<ws::Host>(w->f.catalog.get(), w->f.store.get(), ho);
  if (!w->host->ring_status().ok()) {
    w->status = w->host->ring_status();
    return w;
  }
  ws::Server& server = w->host->server();
  authz::AuthorizationManager& az = server.authorization();
  az.Grant(kCellsOnly, w->f.cells, authz::Right::kRead);
  az.Grant(kCellsOnly, w->f.cells, authz::Right::kModify);
  az.Grant(kCellsOnly, w->f.effectors, authz::Right::kRead);

  const uint64_t t2 = NowNs();
  for (int c = 1; c <= w->shape.parked; ++c) {
    Result<query::Query> q = query::ParseQuery(*w->f.catalog, ParkText(c));
    if (!q.ok()) {
      w->status = q.status();
      return w;
    }
    Result<ws::CheckOutTicket> t =
        server.CheckOut(kCellsOnly, *q, ws::CheckOutMode::kExclusive);
    if (!t.ok()) {
      w->status = t.status();
      return w;
    }
  }
  w->park_s = static_cast<double>(NowNs() - t2) / 1e9;
  w->parked = Keys(server.stable_storage().records());
  return w;
}

/// Quiescence, durability and ledger checks after a run.
void CheckRing(RingWorld& w, const SessionCounts& c, Report* report) {
  report->Check(c.submitted == c.committed + c.unresolved + c.errors,
                "session accounting: submitted " + std::to_string(c.submitted) +
                    " != committed + unresolved + errors");
  ws::Server& server = w.host->server();
  report->Check(Keys(server.stable_storage().records()) == w.parked,
                "long-lock store does not hold exactly the parked set");
  const size_t all = server.lock_manager().SnapshotAllLocks().size();
  const size_t long_locks = server.lock_manager().SnapshotLongLocks().size();
  report->Check(all == long_locks,
                "short locks left at quiescence: " +
                    std::to_string(all - long_locks));
  const ws::ShmRing::Counters rc = w.host->ring().counters();
  report->Check(rc.published == rc.consumed && rc.consumed == rc.completed &&
                    rc.completed == rc.taken && rc.salvaged == 0,
                "ring ledger unbalanced: published " +
                    std::to_string(rc.published) + " consumed " +
                    std::to_string(rc.consumed) + " completed " +
                    std::to_string(rc.completed) + " taken " +
                    std::to_string(rc.taken) + " salvaged " +
                    std::to_string(rc.salvaged));
  report->attempted += c.submitted;
  report->failed += c.unresolved + c.errors;
}

SessionCounts Sum(const std::vector<SessionCounts>& v) {
  SessionCounts t;
  for (const SessionCounts& c : v) t.Merge(c);
  return t;
}

template <typename Client>
PhaseResult RunSessions(RingWorld& w, std::vector<Client*> clients,
                        uint64_t seed, double warmup, double seconds,
                        uint64_t trace_every, std::vector<SessionCounts>* counts,
                        const std::function<void()>& on_measure = {}) {
  std::vector<std::vector<SessionInput>> inputs;
  for (int t = 0; t < kClients; ++t) {
    inputs.push_back(GenSessions(seed, kSessionsPerThread, t, w.shape));
  }
  counts->assign(kClients, SessionCounts());
  std::vector<size_t> next(kClients, 0);
  std::atomic<uint64_t> next_request{1};
  return RunPhase(
      kClients, warmup, seconds, trace_every,
      [&](int t, SampleLog& log) {
        const size_t ti = static_cast<size_t>(t);
        CurrentTracer()->BeginRequest(next_request.fetch_add(1));
        ScopedSpan span("session");
        RunSession(*clients[ti], *w.f.catalog,
                   inputs[ti][next[ti]++ % inputs[ti].size()], log,
                   (*counts)[ti]);
      },
      on_measure);
}

const std::vector<std::string> kCallNames = {"checkout", "renew", "checkin"};

Report RunUntraced(const RunConfig& cfg) {
  Report report;
  std::unique_ptr<RingWorld> w;
  int k = 0;
  int setups = 0;
  const double setup_s = MedianSetupSeconds(
      [&] {
        w.reset();  // tear the previous set-up down first
        const uint64_t t0 = NowNs();
        w = BuildWorld(cfg, k++);
        return w->status.ok() ? static_cast<double>(NowNs() - t0) / 1e9 : -1;
      },
      &setups);
  if (setup_s < 0) {
    report.Check(false, "set-up failed: " + w->status.ToString());
    return report;
  }
  w->host->StartWorkers(kHostWorkers);
  std::vector<std::unique_ptr<ws::Handle>> handles;
  std::vector<ws::Handle*> clients;
  for (int t = 0; t < kClients; ++t) {
    ws::HandleOptions ho;
    ho.real_backoff = true;
    ho.response_timeout_us = kResponseTimeoutUs;
    ho.seed = cfg.seed * 31 + static_cast<uint64_t>(t);
    handles.push_back(std::make_unique<ws::Handle>(w->host.get(), ho));
    report.Check(handles.back()->Attach().ok(), "handle attach failed");
    clients.push_back(handles.back().get());
  }
  std::vector<SessionCounts> counts;
  PhaseResult phase =
      RunSessions(*w, clients, cfg.seed, std::min(1.0, cfg.seconds / 10),
                  cfg.seconds, 0, &counts);
  w->host->StopWorkers();

  report.Add("setup_s", setup_s, "s", static_cast<uint64_t>(setups));
  AddRequestMetrics(phase, &report);
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  AddCallDetail(phase, kCallNames, &report);
  uint64_t sheds = 0;
  for (const auto& h : handles) sheds += h->stats().sheds_seen;
  report.Detail("ring_sheds", static_cast<double>(sheds), "count", 0);
  report.Detail("long_lock_records",
                static_cast<double>(w->host->server().stable_storage().size()),
                "count", 0);
  CheckRing(*w, Sum(counts), &report);
  return report;
}

Report RunTraced(const RunConfig& cfg) {
  Report report;
  LayerValues v;
  std::unique_ptr<RingWorld> w = BuildWorld(cfg, 0);
  if (!w->status.ok()) {
    report.Check(false, "set-up failed: " + w->status.ToString());
    return report;
  }
  v["setup.fixture_s"] = {w->fixture_s, 1};
  v["setup.park_s"] = {w->park_s, 1};
  {
    // The server builds its own lock graph and statistics; time the same
    // public calls on the same catalog.
    uint64_t t0 = NowNs();
    logra::LockGraph g = logra::LockGraph::Build(*w->f.catalog);
    uint64_t t1 = NowNs();
    query::Statistics st = query::Statistics::Collect(*w->f.catalog, *w->f.store);
    uint64_t t2 = NowNs();
    v["setup.graph_build_us"] = {(t1 - t0) / 1e3, g.num_nodes()};
    v["setup.stats_collect_us"] = {(t2 - t1) / 1e3, 1};
  }
  ws::Host& host = *w->host;
  ws::Server& server = host.server();
  host.StartWorkers(kHostWorkers);
  std::vector<std::unique_ptr<TracedClient>> owned;
  std::vector<TracedClient*> clients;
  for (int t = 0; t < kClients; ++t) {
    owned.push_back(std::make_unique<TracedClient>(&host));
    clients.push_back(owned.back().get());
  }
  const double warmup = std::min(1.0, cfg.seconds / 10);
  std::vector<SessionCounts> counts;

  // Untraced reference window, same client.
  PhaseResult ref = RunSessions(*w, clients, cfg.seed, warmup, cfg.seconds / 2,
                                0, &counts);
  SessionCounts total = Sum(counts);

  // Traced window.
  StatsDelta before;
  uint64_t gen_before = 0;
  // Upper estimate of spans per session: parse, and per call the call,
  // two codec, submit, wait and take spans.
  const uint64_t every = TraceEvery(ref, cfg.seconds, 32);
  PhaseResult phase =
      RunSessions(*w, clients, cfg.seed + 1, warmup, cfg.seconds, every, &counts,
                  [&] {
                    before = Snapshot(server.lock_manager().stats());
                    gen_before = server.stable_storage().generation();
                  });
  const StatsDelta d = Minus(Snapshot(server.lock_manager().stats()), before);
  const uint64_t saves = server.stable_storage().generation() - gen_before;
  total.Merge(Sum(counts));

  // Worker wake path: pings through a handle while the workers run.
  Tracer ping_tracer(true, kPings);
  {
    SetCurrentTracer(&ping_tracer);
    ws::HandleOptions ho;
    ho.response_timeout_us = kResponseTimeoutUs;
    ws::Handle handle(&host, ho);
    report.Check(handle.Attach().ok(), "ping handle attach failed");
    for (int i = 0; i < kPings; ++i) {
      ScopedSpan span("ring.ping");
      if (!handle.Ping().ok()) {
        report.Check(false, "ping failed");
        break;
      }
    }
    SetCurrentTracer(nullptr);
  }
  host.StopWorkers();

  // Steppable replay: the client pumps Host::Step; outside calls into the
  // lease and durability layers run on the same, quiescent lock table.
  Tracer replay_tracer(true, 400'000);
  SessionCounts replay_counts;
  {
    SetCurrentTracer(&replay_tracer);
    TracedClient pump(&host);
    lock::LongLockStore copy;
    copy.SetBackingFile(w->dir + "/replay_copy.db");
    const std::vector<SessionInput> inputs =
        GenSessions(cfg.seed + 2, kSessionsPerThread, 0, w->shape);
    lock::LockManager& lm = server.lock_manager();
    auto durability = [&] {
      {
        ScopedSpan span("durability.snapshot");
        (void)lm.SnapshotLongLocks();
      }
      ScopedSpan span("durability.save");
      report.Check(copy.Save(lm).ok(), "LongLockStore::Save failed");
    };
    const uint64_t end = NowNs() + static_cast<uint64_t>(cfg.seconds / 4 * 1e9);
    for (size_t i = 0; NowNs() < end; ++i) {
      replay_tracer.BeginRequest(i + 1);
      const SessionInput& in = inputs[i % inputs.size()];
      Result<query::Query> q = query::ParseQuery(*w->f.catalog, in.text);
      if (!q.ok()) break;
      ++replay_counts.submitted;
      Result<ws::CheckOutTicket> t = pump.CheckOut(
          kCellsOnly, *q,
          in.shared ? ws::CheckOutMode::kShared : ws::CheckOutMode::kExclusive);
      if (!t.ok()) {
        CountFailure(t.status(), replay_counts);
        continue;
      }
      durability();
      {
        ScopedSpan span("lease.renew");
        report.Check(server.RenewLease(*t).ok(), "RenewLease failed");
      }
      Status s = pump.Renew(*t);
      if (s.ok()) s = pump.Renew(*t);
      Status in_s = pump.CheckIn(*t);
      if (s.ok()) s = in_s;
      if (!s.ok()) {
        CountFailure(s, replay_counts);
        continue;
      }
      durability();
      ++replay_counts.committed;
    }
    SetCurrentTracer(nullptr);
  }
  total.Merge(replay_counts);
  CheckRing(*w, total, &report);

  // ---- per-layer metrics.
  std::map<std::string, Histogram> dur = SpanHistograms(phase.tracers);
  std::map<std::string, Histogram> rep = SpanHistograms({replay_tracer});
  // Transport: each replayed call minus the Host::Step span inside it.
  Histogram transport;
  {
    const std::vector<Span>& rs = replay_tracer.spans();
    std::vector<uint64_t> exec_of(rs.size() + 1, 0);
    for (const Span& s : rs) {
      if (std::string_view(s.name).starts_with("ws.exec.") && s.parent != 0) {
        exec_of[s.parent] = s.duration();
      }
    }
    for (const Span& s : rs) {
      if (std::string_view(s.name) == "ring.call") {
        transport.Add(s.duration() - exec_of[s.id]);
      }
    }
  }
  PutQuantiles(&v, "query.parse_ns", dur["query.parse"], 1);
  PutQuantiles(&v, "ring.submit_ns", dur["ring.submit"], 1);
  PutQuantiles(&v, "ring.take_ns", dur["ring.take"], 1);
  PutQuantiles(&v, "ring.codec_ns", dur["ring.codec"], 1);
  PutQuantiles(&v, "ring.ping_us", SpanHistograms({ping_tracer})["ring.ping"],
               1e-3);
  PutQuantiles(&v, "ring.transport_us", transport, 1e-3);
  PutQuantiles(&v, "ws.checkout_exec_us", rep["ws.exec.checkout"], 1e-3);
  PutQuantiles(&v, "ws.renew_exec_us", rep["ws.exec.renew"], 1e-3);
  PutQuantiles(&v, "ws.checkin_exec_us", rep["ws.exec.checkin"], 1e-3);
  PutQuantiles(&v, "lease.renew_ns", rep["lease.renew"], 1);
  PutQuantiles(&v, "durability.save_us", rep["durability.save"], 1e-3);
  PutQuantiles(&v, "durability.snapshot_us", rep["durability.snapshot"], 1e-3);

  const uint64_t calls = phase.calls();
  const double kcalls = std::max<double>(static_cast<double>(calls), 1) / 1e3;
  std::error_code ec;
  const uint64_t file_bytes = std::filesystem::file_size(w->storage_path, ec);
  v["durability.records"] = {static_cast<double>(server.stable_storage().size()), 1};
  v["durability.file_bytes"] = {static_cast<double>(file_bytes), 1};
  v["durability.bytes_written_per_op"] = {
      static_cast<double>(saves * file_bytes) /
          std::max<double>(static_cast<double>(calls), 1),
      saves};
  uint64_t sheds = 0, retries = 0;
  for (const auto& c : owned) {
    sheds += c->sheds();
    retries += c->retries();
  }
  v["ring.sheds_per_kop"] = {sheds / kcalls, sheds};
  v["ring.retries_per_kop"] = {retries / kcalls, retries};
  v["ring.salvaged"] = {static_cast<double>(host.ring().counters().salvaged), 1};
  // On this workload a "txn" is a whole check-out session.
  PutLockLayers(d, phase.requests(), &v);
  v["trace.overhead_p50_us"] = {TraceOverheadUs(phase, "session", ref), 0};

  std::vector<Tracer> all = std::move(phase.tracers);
  all.push_back(std::move(ping_tracer));
  all.push_back(std::move(replay_tracer));
  WriteSpans(all, cfg.out_dir, cfg.workload, &report);
  EmitPerLayer(v, &report);
  return report;
}

}  // namespace

Report RunCheckoutRing(const RunConfig& cfg) {
  return cfg.trace ? RunTraced(cfg) : RunUntraced(cfg);
}

}  // namespace perfbench
