#include "mc/lease_oracle.h"

#include <algorithm>
#include <set>

#include "mc/interleave.h"
#include "sim/fixtures.h"
#include "ws/server.h"

namespace codlock::mc {

namespace {

/// One atomic step of the scenario, attributed to its actor.
enum class Step : uint8_t {
  kAdvancePastGrace,  ///< time: clock jumps past W1's deadline + grace
  kCrash,             ///< server: CrashAndRestart (optional)
  kSweep,             ///< server: SweepExpiredLeases
  kW2CheckOut,        ///< W2: exclusive check-out of the same cell
  kW2CheckIn,         ///< W2: check its (possibly absent) ticket back in
  kW1CheckIn,         ///< W1: the zombie's late check-in
};

const char* StepName(Step s) {
  switch (s) {
    case Step::kAdvancePastGrace:
      return "advance";
    case Step::kCrash:
      return "crash";
    case Step::kSweep:
      return "sweep";
    case Step::kW2CheckOut:
      return "w2-checkout";
    case Step::kW2CheckIn:
      return "w2-checkin";
    case Step::kW1CheckIn:
      return "w1-checkin";
  }
  return "?";
}

std::string ScheduleName(const std::vector<Step>& schedule) {
  std::string out;
  for (Step s : schedule) {
    if (!out.empty()) out += " ";
    out += StepName(s);
  }
  return out;
}

query::Query CellUpdateQuery(const sim::CellsFixture& fx) {
  query::Query q;
  q.name = "lease-mc";
  q.relation = fx.cells;
  q.object_key = "c1";
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = query::AccessKind::kUpdate;
  return q;
}

/// Replays one schedule on a fresh stack; appends violations.
void RunSchedule(const std::vector<Step>& schedule,
                 LeaseExploreStats& stats,
                 std::set<std::string>& messages,
                 size_t max_messages) {
  sim::CellsFixture fx = sim::BuildFigure7Instance();
  ws::Server::Options opts;
  // A conflicting check-out must fail fast (single-threaded replay), not
  // park: 1 ms is the shortest expressible deadline.
  opts.lock_manager.default_timeout_ms = 1;
  opts.lease.duration_ms = 1000;
  opts.lease.grace_ms = 500;
  ws::Server server(fx.catalog.get(), fx.store.get(), std::move(opts));

  auto fail = [&](const std::string& msg) {
    if (messages.size() < max_messages) {
      messages.insert(msg + " [schedule: " + ScheduleName(schedule) + "]");
    }
    ++stats.violating_executions;
  };

  // Oracles (d) and (e): the server's audit (epoch floors, orphan locks,
  // the protocol validator) after every crash and sweep, and at the end.
  auto audit = [&](const char* when) -> bool {
    const std::vector<std::string> found = server.Audit();
    for (const std::string& v : found) fail(v + " " + when);
    return found.empty();
  };

  Result<ws::CheckOutTicket> w1 =
      server.CheckOut(1, CellUpdateQuery(fx), ws::CheckOutMode::kExclusive);
  if (!w1.ok()) {
    fail("setup: W1 check-out failed: " + w1.status().ToString());
    return;
  }

  bool expired = false;        // advance step has run
  bool swept_expired = false;  // a sweep ran while expired
  bool w1_in = false, w2_out = false;
  ws::CheckOutTicket w2_ticket;

  for (Step step : schedule) {
    switch (step) {
      case Step::kAdvancePastGrace:
        server.clock().AdvanceMs(server.leases().options().duration_ms +
                                 server.leases().options().grace_ms + 1);
        expired = true;
        break;
      case Step::kCrash: {
        Status s = server.CrashAndRestart();
        if (!s.ok()) fail("crash recovery failed: " + s.ToString());
        // The restart reissues surviving leases: W1 is only "expired"
        // afterwards if it was already reclaimed.
        if (server.leases().Has(w1->txn)) expired = false;
        if (!audit("across crash")) return;
        break;
      }
      case Step::kSweep: {
        server.SweepExpiredLeases();
        if (expired && !swept_expired) {
          swept_expired = true;
          // Oracle (c): the expired lease and its locks must be gone.
          if (server.leases().Has(w1->txn)) {
            fail("sweep left the expired lease of W1 alive");
          }
          if (!server.lock_manager().LocksOf(w1->txn).empty()) {
            fail("sweep left W1's long locks behind");
          }
        }
        if (!audit("after sweep")) return;
        break;
      }
      case Step::kW2CheckOut: {
        const bool w1_holds =
            !server.lock_manager().LocksOf(w1->txn).empty();
        Result<ws::CheckOutTicket> t = server.CheckOut(
            2, CellUpdateQuery(fx), ws::CheckOutMode::kExclusive);
        if (t.ok()) {
          if (w1_holds) {
            // Oracle (b): two exclusive check-outs of the same cell.
            fail("W2 checked out while W1 still held its locks");
          }
          w2_out = true;
          w2_ticket = *t;
        }
        break;
      }
      case Step::kW2CheckIn: {
        if (!w2_out) break;
        // W2 never renews in this script, so the advance step expires
        // its lease as well — a fenced/refused check-in is then correct;
        // only a failure *with a live lease* is a violation.
        const bool w2_alive = server.leases().Has(w2_ticket.txn);
        Status s = server.CheckIn(w2_ticket);
        if (!s.ok() && w2_alive) {
          fail("W2's check-in failed with a live lease: " + s.ToString());
        }
        break;
      }
      case Step::kW1CheckIn: {
        const bool lease_alive = server.leases().Has(w1->txn);
        Status s = server.CheckIn(*w1);
        if (s.ok()) {
          w1_in = true;
          if (!lease_alive) {
            fail("W1's check-in succeeded after its lease was reclaimed");
          }
          if (w2_out) {
            // Oracle (a): W2 already owns the cell; W1's write-back is
            // the lost update.
            fail("lost update: W1 checked in after W2's check-out");
          }
        } else if (w2_out && !s.IsFenced() && !s.IsNotFound()) {
          fail("W1's late check-in failed with unexpected status: " +
               s.ToString());
        }
        break;
      }
    }
  }

  if (w1_in) ++stats.w1_checkin_ok;
  if (!w1_in) ++stats.w1_fenced;
  if (w2_out) ++stats.w2_checkout_ok;

  // Oracle (e): whatever the schedule did, the audit holds at the end.
  audit("at the end");
}

}  // namespace

LeaseExploreStats ExploreLeaseProtocol(const LeaseExploreOptions& opts) {
  // The crash is its own actor so it can land anywhere: before expiry
  // (lease reissued), between expiry and sweep (ditto), after the sweep
  // (the reclaim + epoch bumps must survive), around W2's operations.
  std::vector<std::vector<Step>> actors = {
      {Step::kAdvancePastGrace, Step::kSweep},
      {Step::kW2CheckOut, Step::kW2CheckIn},
      {Step::kW1CheckIn}};
  if (opts.with_server_crash) actors.push_back({Step::kCrash});
  const std::vector<std::vector<Step>> schedules = Interleavings(actors);

  LeaseExploreStats stats;
  std::set<std::string> messages;
  for (const std::vector<Step>& schedule : schedules) {
    const uint64_t before = stats.violating_executions;
    RunSchedule(schedule, stats, messages, opts.max_violation_messages);
    // Count each schedule once, however many oracles it tripped.
    if (stats.violating_executions > before) {
      stats.violating_executions = before + 1;
    }
    ++stats.executions;
  }
  stats.violation_messages.assign(messages.begin(), messages.end());
  return stats;
}

}  // namespace codlock::mc
