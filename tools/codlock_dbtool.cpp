// codlock_dbtool — command-line utility around codlock databases.
//
// Subcommands:
//   demo <path>                 write the Fig. 1 demo database to <path>
//   info <path>                 print schema + object counts
//   dot <path> <relation>       print the object-specific lock graph (DOT)
//   query <path> "<hdbl>"       plan + execute one HDBL query, print the
//                               query-specific lock graph and lock set
//   plan <path> "<hdbl>"        analysis only (no execution)
//
// Example (the query argument goes on one line):
//   codlock_dbtool demo /tmp/cells.db
//   codlock_dbtool query /tmp/cells.db "SELECT r FROM c IN cells,
//   r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE"

#include <iostream>
#include <memory>
#include <string>

#include "nf2/serialize.h"
#include "ws/host.h"
#include "query/parser.h"
#include "sim/engine.h"
#include "sim/fixtures.h"
#include "sim/harness.h"
#include "tool_common.h"
#include "util/json.h"
#include "util/metrics.h"
#include "ws/server.h"

using namespace codlock;

namespace {

int Usage() {
  std::cerr
      << "usage: codlock_dbtool <command> [args]\n"
         "  demo <path>             write the Fig. 1 demo database\n"
         "  info <path>             print schema and object counts\n"
         "  dot <path> <relation>   object-specific lock graph as DOT\n"
         "  plan <path> \"<hdbl>\"    analyze a query (lock graph only)\n"
         "  query <path> \"<hdbl>\"   analyze + execute a query\n"
         "  stats <path> [--json]   run a contended workload plus a ring\n"
         "                          probe, print lock statistics (waits,\n"
         "                          abort causes, sheds, retries, ring\n"
         "                          counters) and the accounting invariant\n"
         "  leases <path> [--json]  run a lease probe (check-outs in all\n"
         "                          three modes, renewals, an expiry and a\n"
         "                          reclamation sweep), then print the\n"
         "                          lease table with deadlines, fencing\n"
         "                          epochs and held long locks\n";
  return toolcli::kExitUsage;
}

int Demo(const std::string& path) {
  sim::CellsParams params;
  params.num_cells = 4;
  params.c_objects_per_cell = 6;
  params.robots_per_cell = 3;
  params.num_effectors = 6;
  sim::CellsFixture f = sim::BuildCellsEffectors(params);
  Status st = nf2::SaveDatabaseToFile(*f.catalog, *f.store, path);
  if (!st.ok()) {
    std::cerr << "error: " << st << "\n";
    return 1;
  }
  std::cout << "wrote demo database (" << f.store->ObjectCount(f.cells)
            << " cells, " << f.store->ObjectCount(f.effectors)
            << " effectors) to " << path << "\n";
  return 0;
}

int Info(const nf2::LoadedDatabase& db) {
  const nf2::Catalog& cat = *db.catalog;
  for (nf2::DatabaseId d = 0; d < cat.num_databases(); ++d) {
    std::cout << "database " << cat.database(d).name << "\n";
  }
  for (nf2::SegmentId s = 0; s < cat.num_segments(); ++s) {
    std::cout << "  segment " << cat.segment(s).name << "\n";
    for (nf2::RelationId r = 0; r < cat.num_relations(); ++r) {
      if (cat.relation(r).segment != s) continue;
      std::cout << "    relation " << cat.relation(r).name << " ("
                << db.store->ObjectCount(r) << " objects";
      std::vector<nf2::RelationId> refs = cat.ReferencingRelations(r);
      if (!refs.empty()) {
        std::cout << ", shared: referenced by";
        for (nf2::RelationId rr : refs) {
          std::cout << ' ' << cat.relation(rr).name;
        }
      }
      std::cout << ")\n";
    }
  }
  return 0;
}

int Dot(const nf2::LoadedDatabase& db, const std::string& relation) {
  Result<nf2::RelationId> rel = db.catalog->FindRelation(relation);
  if (!rel.ok()) {
    std::cerr << "error: " << rel.status() << "\n";
    return 1;
  }
  logra::LockGraph graph = logra::LockGraph::Build(*db.catalog);
  std::cout << graph.ToDot(*rel, *db.catalog);
  return 0;
}

int Query(nf2::LoadedDatabase& db, const std::string& text, bool execute) {
  Result<query::Query> q = query::ParseQuery(*db.catalog, text);
  if (!q.ok()) {
    std::cerr << "parse error: " << q.status() << "\n";
    return 1;
  }
  sim::Engine eng(db.catalog.get(), db.store.get());
  // The tool runs as an all-rights user; rule 4' distinctions are the
  // application's business.
  eng.authorization().GrantAll(1, *db.catalog);

  Result<query::QueryPlan> plan = eng.planner().Plan(*q);
  if (!plan.ok()) {
    std::cerr << "planning error: " << plan.status() << "\n";
    return 1;
  }
  std::cout << "query-specific lock graph ("
            << query::GranulePolicyName(plan->policy)
            << (plan->per_element ? ", per element" : "") << "):\n"
            << plan->qslg.ToString(eng.graph());
  if (!execute) return 0;

  txn::Transaction* txn = eng.txn_manager().Begin(1);
  Result<query::QueryResult> r = eng.RunQuery(*txn, *q);
  if (!r.ok()) {
    std::cerr << "execution error: " << r.status() << "\n";
    eng.txn_manager().Abort(txn);
    return 1;
  }
  std::vector<lock::HeldLock> held = eng.lock_manager().LocksOf(txn->id());
  std::cout << "executed: " << r->objects_visited << " object(s), "
            << r->values_read << " values read; locks held at EOT:\n";
  for (const lock::HeldLock& h : held) {
    std::cout << "  " << eng.graph().NodeName(h.resource.node) << " [iid "
              << h.resource.instance << "] <- "
              << lock::LockModeName(h.mode) << "\n";
  }
  eng.txn_manager().Commit(txn);
  return 0;
}

// A short burst of ring traffic over the same database, so `stats`
// reports the out-of-process counters with live values (the ring's
// ledger: ring_published, ring_consumed, ring_salvaged_frames; the
// host's handles_fenced and jobs_shed_per_handle) and the probe host's
// drained audit: pings and a shared check-out round-trip, an over-cap
// submit that sheds, a torn publish that salvages, and a wedged handle
// that the dead-handle sweep fences.
std::unique_ptr<ws::Host> RingProbe(nf2::LoadedDatabase& db) {
  ws::HostOptions ho;
  ho.ring.slots = 8;
  ho.max_inflight_per_handle = 2;
  ho.handle_lease_ms = 5'000;
  auto out = std::make_unique<ws::Host>(db.catalog.get(), db.store.get(), ho);
  ws::Host& host = *out;

  ws::Handle alive(&host);
  (void)alive.Attach();
  for (int i = 0; i < 8; ++i) (void)alive.Ping();

  nf2::RelationId rel = 0;
  std::vector<nf2::ObjectId> ids = db.store->ObjectsOf(rel);
  if (!ids.empty()) {
    Result<const nf2::Object*> obj = db.store->Get(rel, ids[0]);
    if (obj.ok()) {
      query::Query q;
      q.name = "stats-ring-probe";
      q.relation = rel;
      q.object_key = (*obj)->key;
      q.kind = query::AccessKind::kRead;
      Result<ws::CheckOutTicket> t =
          alive.CheckOut(1, q, ws::CheckOutMode::kShared);
      if (t.ok()) (void)alive.CheckIn(*t);
    }
  }

  // A wedged client: two abandoned submits fill its in-flight cap, the
  // third sheds, and a torn publish exercises the salvage path.
  ws::Handle wedged(&host);
  (void)wedged.Attach();
  (void)wedged.SubmitNoWait(ws::wire::JobOp::kPing, nullptr);
  (void)wedged.SubmitNoWait(ws::wire::JobOp::kPing, nullptr);
  (void)wedged.SubmitNoWait(ws::wire::JobOp::kPing, nullptr);  // sheds
  // The torn frame is fat: half of a 1-byte ping is nothing, and its CRC
  // can match the byte the slot already holds, so it would run untorn
  // and leave its response untaken.
  (void)host.Submit(alive.info(), /*job_id=*/1'000'000, std::string(256, 'T'),
                    ws::PublishFault::kTornFrame);
  (void)host.Drain();

  // Silence fences the wedged handle; the pinging one stays live.
  host.server().clock().AdvanceMs(ho.handle_lease_ms + 1);
  (void)alive.Ping();
  (void)host.SweepDeadHandles();
  return out;
}

int Stats(nf2::LoadedDatabase& db, bool json) {
  // Hammer the first relation with short exclusive transactions under a
  // tight timeout and a small waiter cap, so every abort cause the lock
  // manager distinguishes (timeout, deadlock/wound, shed) can actually
  // occur, then print the per-cause counters and the accounting invariant.
  nf2::RelationId rel = 0;
  std::vector<nf2::ObjectId> ids = db.store->ObjectsOf(rel);
  if (ids.empty()) {
    std::cerr << "error: relation " << db.catalog->relation(rel).name
              << " has no objects\n";
    return 1;
  }
  sim::EngineOptions opts;
  opts.lock_timeout_ms = 50;
  opts.lock_manager.max_blocked_waiters = 4;
  sim::Engine eng(db.catalog.get(), db.store.get(), opts);
  eng.authorization().GrantAll(1, *db.catalog);

  sim::WorkloadConfig cfg;
  cfg.threads = 8;
  cfg.txns_per_thread = 50;
  sim::WorkloadReport r =
      sim::RunWorkload(eng, cfg, [&](int thread, int i, Rng& rng) {
        sim::TxnScript s;
        s.user = 1;
        query::Query q;
        q.relation = rel;
        // Heavy key skew: most transactions fight over the same object.
        size_t idx = rng.Uniform(4) == 0
                         ? rng.Uniform(static_cast<uint64_t>(ids.size()))
                         : 0;
        Result<const nf2::Object*> obj = db.store->Get(rel, ids[idx]);
        if (obj.ok()) q.object_key = (*obj)->key;
        q.kind = query::AccessKind::kUpdate;
        s.queries = {q};
        s.work_us = 200;
        (void)thread;
        (void)i;
        return s;
      });

  std::unique_ptr<ws::Host> ring = RingProbe(db);
  const ws::ShmRing::Counters ledger = ring->ring().counters();
  const std::vector<std::string> audit = ring->AuditDrained();

  if (json) {
    std::cout << "{\"workload\":{\"submitted\":" << r.submitted
              << ",\"committed\":" << r.committed
              << ",\"unresolved\":" << r.unresolved
              << ",\"errors\":" << r.other_errors
              << ",\"retries\":" << r.retries
              << ",\"shed\":" << r.shed_aborts << ",\"reconciles\":"
              << (r.Reconciles() ? "true" : "false")
              << "},\n\"lock_stats\":"
              << eng.lock_manager().stats().ToJson()
              << ",\n\"ring_probe\":"
              << ring->server().lock_manager().stats().ToJson()
              << ",\n\"ring_ledger\":{\"ring_published\":" << ledger.published
              << ",\"ring_consumed\":" << ledger.consumed
              << ",\"ring_salvaged_frames\":" << ledger.salvaged
              << "},\n\"ring_audit\":[";
    for (size_t i = 0; i < audit.size(); ++i) {
      std::cout << (i == 0 ? "\"" : ",\"") << JsonEscape(audit[i]) << "\"";
    }
    std::cout << "]}\n";
    return r.Reconciles() ? 0 : 1;
  }

  std::cout << sim::WorkloadReport::Header() << "\n"
            << r.Row("contended stats probe") << "\n\n"
            << "submitted=" << r.submitted << " committed=" << r.committed
            << " unresolved=" << r.unresolved << " errors=" << r.other_errors
            << " retries=" << r.retries << " shed=" << r.shed_aborts
            << "  accounting "
            << (r.Reconciles() ? "reconciles" : "DOES NOT RECONCILE") << "\n\n"
            << "lock manager counters:\n"
            << eng.lock_manager().stats().ToString() << "\n"
            << "ring probe counters (out-of-process serving):\n"
            << ring->server().lock_manager().stats().ToString()
            << " ring_published=" << ledger.published
            << " ring_consumed=" << ledger.consumed
            << " ring_salvaged_frames=" << ledger.salvaged << "\n"
            << "ring probe audit: "
            << (audit.empty() ? "clean" : std::to_string(audit.size()) +
                                              " violation(s)")
            << "\n";
  for (const std::string& v : audit) std::cout << "  " << v << "\n";
  return r.Reconciles() ? 0 : 1;
}

int Leases(nf2::LoadedDatabase& db, bool json) {
  // The probe needs three distinct complex objects with a disjoint
  // subtree; the demo database's cells qualify via their c_objects.
  Result<nf2::RelationId> rel = db.catalog->FindRelation("cells");
  if (!rel.ok()) {
    std::cerr << "error: 'leases' expects a demo database (see 'demo'): "
              << rel.status() << "\n";
    return 1;
  }
  std::vector<nf2::ObjectId> ids = db.store->ObjectsOf(*rel);
  if (ids.size() < 3) {
    std::cerr << "error: need at least 3 cells, have " << ids.size() << "\n";
    return 1;
  }

  ws::Server::Options opts;
  opts.lease.duration_ms = 30'000;
  opts.lease.grace_ms = 10'000;
  ws::Server server(db.catalog.get(), db.store.get(), opts);

  auto cell_query = [&](size_t idx,
                        query::AccessKind kind) -> Result<query::Query> {
    Result<const nf2::Object*> obj = db.store->Get(*rel, ids[idx]);
    if (!obj.ok()) return obj.status();
    query::Query q;
    q.name = "lease-probe";
    q.relation = *rel;
    q.object_key = (*obj)->key;
    q.path = {nf2::PathStep::Field("c_objects")};
    q.kind = kind;
    return q;
  };

  // Three check-outs, one per mode; then a renewal, an expiry and a sweep
  // so the table shows every lease state the subsystem distinguishes.
  const ws::CheckOutMode modes[] = {ws::CheckOutMode::kExclusive,
                                    ws::CheckOutMode::kShared,
                                    ws::CheckOutMode::kDerive};
  std::vector<ws::CheckOutTicket> tickets;
  for (size_t i = 0; i < 3; ++i) {
    Result<query::Query> q =
        cell_query(i, modes[i] == ws::CheckOutMode::kExclusive
                          ? query::AccessKind::kUpdate
                          : query::AccessKind::kRead);
    if (!q.ok()) {
      std::cerr << "error: " << q.status() << "\n";
      return 1;
    }
    Result<ws::CheckOutTicket> t =
        server.CheckOut(static_cast<authz::UserId>(i + 1), *q, modes[i]);
    if (!t.ok()) {
      std::cerr << "check-out " << i + 1 << " failed: " << t.status() << "\n";
      return 1;
    }
    tickets.push_back(*t);
  }
  server.clock().AdvanceMs(25'000);
  server.RenewLease(tickets[0]);  // exclusive stays active
  server.RenewLease(tickets[1]);  // shared stays active
  server.clock().AdvanceMs(20'000);  // derive: 45s > 30s + 10s grace
  server.SweepExpiredLeases();       // reclaims the derive lease

  const std::vector<ws::Server::LeaseView> table = server.LeaseTable();
  if (json) {
    std::cout << "{\"now_ms\":" << server.clock().NowMs() << ",\"leases\":[";
    for (size_t i = 0; i < table.size(); ++i) {
      const ws::Server::LeaseView& row = table[i];
      std::cout << (i ? "," : "") << "{\"txn\":" << row.txn
                << ",\"user\":" << row.user << ",\"mode\":\""
                << ws::CheckOutModeName(row.mode) << "\",\"state\":\""
                << ws::LeaseStateName(row.state)
                << "\",\"deadline_ms\":" << row.deadline_ms
                << ",\"renewals\":" << row.renewals << ",\"fence\":[";
      for (size_t j = 0; j < row.fence.size(); ++j) {
        std::cout << (j ? "," : "") << "{\"root\":\""
                  << JsonEscape(row.fence[j].root.ToString())
                  << "\",\"epoch\":" << row.fence[j].epoch << "}";
      }
      std::cout << "],\"held_long_locks\":" << row.held.size() << "}";
    }
    std::cout << "],\"fence_epochs\":[";
    std::vector<lock::FenceEpochRecord> epochs =
        server.stable_storage().FenceEpochs();
    for (size_t i = 0; i < epochs.size(); ++i) {
      std::cout << (i ? "," : "") << "{\"root\":\""
                << JsonEscape(epochs[i].root.ToString())
                << "\",\"epoch\":" << epochs[i].epoch << "}";
    }
    std::cout << "]}\n";
    return 0;
  }

  std::cout << "lease table at t=" << server.clock().NowMs() << "ms ("
            << table.size() << " active):\n"
            << "  txn          user  mode       state     deadline  renewals"
               "  locks\n";
  for (const ws::Server::LeaseView& row : table) {
    std::cout << "  " << row.txn << "  " << row.user << "  "
              << ws::CheckOutModeName(row.mode) << "  "
              << ws::LeaseStateName(row.state) << "  " << row.deadline_ms
              << "ms  " << row.renewals << "  " << row.held.size() << "\n";
    for (const ws::RootFence& f : row.fence) {
      std::cout << "      fence: " << f.root.ToString() << " @ epoch "
                << f.epoch << "\n";
    }
  }
  std::cout << "\nfencing epochs in stable storage:\n";
  for (const lock::FenceEpochRecord& e :
       server.stable_storage().FenceEpochs()) {
    std::cout << "  " << e.root.ToString() << " -> " << e.epoch << "\n";
  }
  std::cout << "\nlock manager counters:\n"
            << server.lock_manager().stats().ToString() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string cmd = argv[1];
  std::string path = argv[2];

  if (cmd == "demo") return Demo(path);

  Result<nf2::LoadedDatabase> db = nf2::LoadDatabaseFromFile(path);
  if (!db.ok()) {
    std::cerr << "error loading '" << path << "': " << db.status() << "\n";
    return 1;
  }
  if (cmd == "info") return Info(*db);
  if (cmd == "stats") {
    return Stats(*db, argc >= 4 && std::string(argv[3]) == "--json");
  }
  if (cmd == "leases") {
    return Leases(*db, argc >= 4 && std::string(argv[3]) == "--json");
  }
  if (cmd == "dot" && argc >= 4) return Dot(*db, argv[3]);
  if ((cmd == "query" || cmd == "plan") && argc >= 4) {
    return Query(*db, argv[3], cmd == "query");
  }
  return Usage();
}
