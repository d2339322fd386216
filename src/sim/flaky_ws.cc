#include "sim/flaky_ws.h"

#include "util/rng.h"

namespace codlock::sim {

namespace {

/// One simulated workstation's lifecycle.
struct Workstation {
  enum class State : uint8_t {
    kIdle,    ///< no check-out
    kActive,  ///< holds a ticket and (mostly) renews its lease
    kDead,    ///< crashed/partitioned while holding a ticket
  };
  State state = State::kIdle;
  ws::CheckOutTicket ticket;
  /// The workstation abandoned an orphan-held exclusive ticket; its own
  /// cell's locks are stranded, so it may only use the shared pool.
  bool own_cell_stranded = false;
};

query::Query CellQuery(const CellsFixture& fx, int cell_index,
                       query::AccessKind kind) {
  query::Query q;
  q.name = std::string("W").append(std::to_string(cell_index + 1));
  q.relation = fx.cells;
  q.object_key = std::string("c").append(std::to_string(cell_index + 1));
  // The c_objects subtree is private to its cell (robots reference the
  // shared effectors; c_objects do not), so exclusive check-outs of
  // different cells are disjoint and the single-threaded driver can
  // never block on a lock wait.
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = kind;
  return q;
}

/// Where an abandoned ticket's workstation goes: idle when the server
/// has let go of the transaction, dead (waiting for the sweep) while
/// its locks are still held.
void Abandon(ws::Server& server, Workstation& w) {
  Result<ws::LeaseRecord> lease = server.leases().Get(w.ticket.txn);
  if (!lease.ok()) {
    w.state = Workstation::State::kIdle;
    return;
  }
  if (lease->orphaned) {
    if (w.ticket.mode == ws::CheckOutMode::kExclusive) {
      w.own_cell_stranded = true;
    }
    w.state = Workstation::State::kIdle;
    return;
  }
  w.state = Workstation::State::kDead;
}

}  // namespace

std::string FlakyWsReport::Summary() const {
  std::string out;
  out += "checkouts=" + std::to_string(checkouts);
  out += " checkins=" + std::to_string(checkins);
  out += " cancels=" + std::to_string(cancels);
  out += " renewals=" + std::to_string(renewals);
  out += " renewal_failures=" + std::to_string(renewal_failures);
  out += " deaths=" + std::to_string(deaths);
  out += " resumes=" + std::to_string(resumes);
  out += " resume_failures=" + std::to_string(resume_failures);
  out += " zombie_ok=" + std::to_string(zombie_ok);
  out += " zombie_rejected=" + std::to_string(zombie_rejected);
  out += " reclaimed_leases=" + std::to_string(reclaimed_leases);
  out += " server_crashes=" + std::to_string(server_crashes);
  out += " sweeps=" + std::to_string(sweeps);
  out += " violations=" + std::to_string(violations.size());
  return out;
}

FlakyWsReport RunFlakyWorkstations(ws::Server& server,
                                   const CellsFixture& fixture,
                                   const FlakyWsConfig& config) {
  FlakyWsReport report;
  Rng rng(config.seed);
  std::vector<Workstation> fleet(static_cast<size_t>(config.workstations));

  // The server's audit after every sweep and server crash: epochs never
  // regress, and no reclaimed ticket leaves a lock behind.
  auto audit = [&](std::vector<std::string> found, const char* when) {
    for (std::string& v : found) {
      report.violations.push_back(v.append(" ").append(when));
    }
  };

  auto sweep = [&] {
    report.reclaimed_leases += server.SweepExpiredLeases();
    ++report.sweeps;
    audit(server.Audit(), "after sweep");
  };

  for (int tick = 0; tick < config.ticks; ++tick) {
    server.clock().AdvanceMs(config.tick_ms);

    if (rng.Bernoulli(config.p_server_crash)) {
      server.CrashAndRestart();
      ++report.server_crashes;
      audit(server.Audit(), "after server crash");
    }

    for (size_t i = 0; i < fleet.size(); ++i) {
      Workstation& w = fleet[i];
      const authz::UserId user = static_cast<authz::UserId>(i + 1);
      switch (w.state) {
        case Workstation::State::kIdle: {
          if (!rng.Bernoulli(config.p_checkout)) break;
          // Exclusive on the owned cell; shared/derive on the pool.
          const bool exclusive =
              !w.own_cell_stranded && rng.Bernoulli(0.5);
          ws::CheckOutMode mode;
          int cell;
          if (exclusive) {
            mode = ws::CheckOutMode::kExclusive;
            cell = static_cast<int>(i);
          } else {
            mode = rng.Bernoulli(0.5) ? ws::CheckOutMode::kShared
                                      : ws::CheckOutMode::kDerive;
            cell = config.workstations +
                   static_cast<int>(rng.Uniform(
                       static_cast<uint64_t>(config.shared_cells)));
          }
          Result<ws::CheckOutTicket> t = server.CheckOut(
              user,
              CellQuery(fixture, cell,
                        exclusive ? query::AccessKind::kUpdate
                                  : query::AccessKind::kRead),
              mode);
          if (t.ok()) {
            w.ticket = *t;
            w.state = Workstation::State::kActive;
            ++report.checkouts;
          }
          break;
        }
        case Workstation::State::kActive: {
          if (rng.Bernoulli(config.p_die)) {
            w.state = Workstation::State::kDead;
            ++report.deaths;
            break;
          }
          if (rng.Bernoulli(config.p_checkin)) {
            // Shared/exclusive check in; derivations just cancel (the
            // sim does not build derived objects).
            Status done = w.ticket.mode == ws::CheckOutMode::kDerive
                              ? server.CancelCheckOut(w.ticket)
                              : server.CheckIn(w.ticket);
            if (done.ok()) {
              w.state = Workstation::State::kIdle;
              if (w.ticket.mode == ws::CheckOutMode::kDerive) {
                ++report.cancels;
              } else {
                ++report.checkins;
              }
            } else {
              Abandon(server, w);
            }
            break;
          }
          if (rng.Bernoulli(config.p_renew)) {
            Status renewed = server.RenewLease(w.ticket);
            if (renewed.ok()) {
              ++report.renewals;
            } else {
              ++report.renewal_failures;
              Abandon(server, w);
            }
          }
          break;
        }
        case Workstation::State::kDead: {
          if (rng.Bernoulli(config.p_resurrect)) {
            Result<ws::CheckOutTicket> resumed =
                server.ResumeSession(w.ticket);
            if (resumed.ok()) {
              w.ticket = *resumed;
              w.state = Workstation::State::kActive;
              ++report.resumes;
            } else {
              ++report.resume_failures;
              Abandon(server, w);
            }
            break;
          }
          if (rng.Bernoulli(config.p_zombie_op)) {
            // The zombie acts on its stale ticket.  Legal only while its
            // lease still stands (late check-in / orphan-hold); once the
            // lease is gone the attempt must fail.
            const bool lease_alive = server.leases().Has(w.ticket.txn);
            Status zombie = w.ticket.mode == ws::CheckOutMode::kDerive
                                ? server.CancelCheckOut(w.ticket)
                                : server.CheckIn(w.ticket);
            if (zombie.ok()) {
              if (!lease_alive) {
                report.violations.push_back(
                    "zombie check-in of txn " +
                    std::to_string(w.ticket.txn) +
                    " succeeded after its lease was reclaimed");
              }
              ++report.zombie_ok;
              w.state = Workstation::State::kIdle;
            } else {
              ++report.zombie_rejected;
              Abandon(server, w);
            }
          }
          break;
        }
      }
    }

    if (config.sweep_every_ticks > 0 &&
        (tick + 1) % config.sweep_every_ticks == 0) {
      sweep();
    }
  }

  // Drain: let every lease run out, reclaim, and check the end state.
  server.clock().AdvanceMs(server.leases().options().duration_ms +
                           server.leases().options().grace_ms + 1);
  sweep();
  audit(server.AuditDrained(), "after the final drain");
  return report;
}

}  // namespace codlock::sim
