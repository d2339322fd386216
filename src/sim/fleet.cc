#include "sim/fleet.h"

#include <memory>

#include "util/rng.h"

namespace codlock::sim {

namespace {

/// One simulated client process: a handle plus its lifecycle state.
struct Client {
  enum class State : uint8_t {
    kIdle,    ///< attached, no check-out
    kActive,  ///< holds a ticket and (mostly) renews its lease
    kDead,    ///< process died silently (the sweep will fence it)
    kWedged,  ///< published a job, never drains the response
  };
  State state = State::kIdle;
  std::unique_ptr<ws::Handle> handle;
  ws::CheckOutTicket ticket;
  bool has_ticket = false;
  /// The client noticed its handle is fenced and must attach anew — but
  /// an exclusive owner may only do so once its old transaction's locks
  /// are verifiably gone (otherwise the fresh check-out of its own cell
  /// would block the single-threaded driver).
  bool respawn_pending = false;
};

query::Query CellQuery(const CellsFixture& fx, int cell_index,
                       query::AccessKind kind) {
  query::Query q;
  q.name = std::string("F").append(std::to_string(cell_index + 1));
  q.relation = fx.cells;
  q.object_key = std::string("c").append(std::to_string(cell_index + 1));
  // The c_objects subtree is private to its cell, so exclusive check-outs
  // of different cells are disjoint and the driver can never block.
  q.path = {nf2::PathStep::Field("c_objects")};
  q.kind = kind;
  return q;
}

}  // namespace

std::string FleetReport::Summary() const {
  std::string out;
  out += "checkouts=" + std::to_string(checkouts);
  out += " checkins=" + std::to_string(checkins);
  out += " cancels=" + std::to_string(cancels);
  out += " renewals=" + std::to_string(renewals);
  out += " renewal_failures=" + std::to_string(renewal_failures);
  out += " deaths=" + std::to_string(deaths);
  out += " wedges=" + std::to_string(wedges);
  out += " torn=" + std::to_string(torn_publishes);
  out += " stranded=" + std::to_string(stranded_publishes);
  out += " zombie_rejected=" + std::to_string(zombie_rejected);
  out += " zombie_legal=" + std::to_string(zombie_legal);
  out += " sheds=" + std::to_string(sheds_seen);
  out += " shed_retries=" + std::to_string(shed_retries);
  out += " host_crashes=" + std::to_string(host_crashes);
  out += " reattaches=" + std::to_string(reattaches);
  out += " respawns=" + std::to_string(respawns);
  out += " handles_fenced=" + std::to_string(handles_fenced);
  out += " sweeps=" + std::to_string(sweeps);
  out += " violations=" + std::to_string(violations.size());
  return out;
}

FleetReport RunFleet(ws::Host& host, const CellsFixture& fixture,
                     const FleetConfig& config) {
  FleetReport report;
  Rng rng(config.seed);
  ws::Server& server = host.server();

  auto make_handle = [&](size_t i, uint64_t era) {
    ws::HandleOptions opts;
    opts.seed = config.seed ^ (i * 0x9E3779B97F4A7C15ULL) ^ (era << 32);
    auto h = std::make_unique<ws::Handle>(&host, opts);
    (void)h->Attach();
    return h;
  };

  std::vector<Client> fleet(static_cast<size_t>(config.clients));
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].handle = make_handle(i, 0);
  }

  // Shed/retry totals survive handle replacement: fold a handle's stats
  // into the report before dropping it.
  auto fold_handle_stats = [&](const ws::Handle& h) {
    report.sheds_seen += h.stats().sheds_seen;
    report.shed_retries += h.stats().retries;
  };

  // The host's audit after every sweep and host crash: epochs never
  // regress, and no reclaimed check-out leaves a lock behind.
  auto audit = [&](std::vector<std::string> found, const char* when) {
    for (std::string& v : found) {
      report.violations.push_back(v.append(" ").append(when));
    }
  };

  auto sweep = [&] {
    report.handles_fenced += host.SweepDeadHandles();
    ++report.sweeps;
    audit(host.Audit(), "after sweep");
  };

  // The client saw kFenced: its handle was fenced (respawn once safe) or
  // merely belongs to a dead host incarnation (reattach revalidates it).
  auto on_fenced = [&](Client& c) {
    if (c.handle->Attach().ok()) {
      ++report.reattaches;
      return;
    }
    c.respawn_pending = true;
  };

  auto try_respawn = [&](Client& c, size_t i, uint64_t era) {
    if (c.has_ticket) {
      // Wait until the dead incarnation's check-out is fully reclaimed.
      if (server.leases().Has(c.ticket.txn) ||
          !server.lock_manager().LocksOf(c.ticket.txn).empty()) {
        return;
      }
      c.has_ticket = false;
    }
    fold_handle_stats(*c.handle);
    c.handle = make_handle(i, era);
    c.respawn_pending = false;
    c.state = Client::State::kIdle;
    ++report.respawns;
  };

  for (int tick = 0; tick < config.ticks; ++tick) {
    server.clock().AdvanceMs(config.tick_ms);

    if (rng.Bernoulli(config.p_host_crash)) {
      host.CrashAndRestart();
      ++report.host_crashes;
      audit(host.Audit(), "after host crash");
      // Some clients notice promptly and revalidate their handle; the
      // rest discover the new incarnation through a kFenced rejection.
      for (Client& c : fleet) {
        if (c.state == Client::State::kDead ||
            c.state == Client::State::kWedged || c.respawn_pending) {
          continue;
        }
        if (rng.Bernoulli(config.p_reattach) && c.handle->Attach().ok()) {
          ++report.reattaches;
        }
      }
    }

    for (size_t i = 0; i < fleet.size(); ++i) {
      Client& c = fleet[i];
      const authz::UserId user = static_cast<authz::UserId>(i + 1);
      const uint64_t era = static_cast<uint64_t>(tick) + 1;
      if (c.respawn_pending) {
        try_respawn(c, i, era);
        continue;
      }
      switch (c.state) {
        case Client::State::kIdle: {
          if (rng.Bernoulli(config.p_torn_publish)) {
            // Dies mid-write: the frame publishes torn (CRC mismatch)
            // and the consumer must salvage it, never execute it.
            Status s = c.handle->SubmitNoWait(
                ws::wire::JobOp::kPing, nullptr, ws::PublishFault::kTornFrame);
            if (s.ok()) ++report.torn_publishes;
            if (s.IsFenced()) {
              on_fenced(c);
              break;
            }
            c.state = Client::State::kDead;
            ++report.deaths;
            break;
          }
          if (rng.Bernoulli(config.p_die_mid_publish)) {
            // Dies in kWriting: the slot strands until the sweep fences
            // the handle and reclaims it.
            Status s =
                c.handle->SubmitNoWait(ws::wire::JobOp::kPing, nullptr,
                                       ws::PublishFault::kDieMidWrite);
            if (s.IsAborted()) ++report.stranded_publishes;
            if (s.IsFenced()) {
              on_fenced(c);
              break;
            }
            c.state = Client::State::kDead;
            ++report.deaths;
            break;
          }
          if (!rng.Bernoulli(config.p_checkout)) break;
          const bool owner = i < static_cast<size_t>(config.owned_cells);
          if (owner && c.has_ticket &&
              !server.lock_manager().LocksOf(c.ticket.txn).empty()) {
            break;  // own cell still held by a dead incarnation
          }
          ws::CheckOutMode mode;
          int cell;
          if (owner) {
            mode = ws::CheckOutMode::kExclusive;
            cell = static_cast<int>(i);
          } else {
            mode = rng.Bernoulli(0.5) ? ws::CheckOutMode::kShared
                                      : ws::CheckOutMode::kDerive;
            cell = config.owned_cells +
                   static_cast<int>(rng.Uniform(
                       static_cast<uint64_t>(config.shared_cells)));
          }
          Result<ws::CheckOutTicket> t = c.handle->CheckOut(
              user,
              CellQuery(fixture, cell,
                        owner ? query::AccessKind::kUpdate
                              : query::AccessKind::kRead),
              mode);
          if (t.ok()) {
            c.ticket = *t;
            c.has_ticket = true;
            c.state = Client::State::kActive;
            ++report.checkouts;
          } else if (t.status().IsFenced()) {
            on_fenced(c);
          }
          break;
        }
        case Client::State::kActive: {
          if (rng.Bernoulli(config.p_die)) {
            c.state = Client::State::kDead;
            ++report.deaths;
            break;
          }
          if (rng.Bernoulli(config.p_wedge)) {
            // Publishes a renew it will never drain: the host executes
            // it, the response parks in kDone until the sweep reclaims.
            (void)c.handle->SubmitNoWait(ws::wire::JobOp::kRenew, &c.ticket);
            c.state = Client::State::kWedged;
            ++report.wedges;
            break;
          }
          if (rng.Bernoulli(config.p_checkin)) {
            Status done = c.ticket.mode == ws::CheckOutMode::kDerive
                              ? c.handle->Cancel(c.ticket)
                              : c.handle->CheckIn(c.ticket);
            if (done.ok()) {
              c.has_ticket = false;
              c.state = Client::State::kIdle;
              if (c.ticket.mode == ws::CheckOutMode::kDerive) {
                ++report.cancels;
              } else {
                ++report.checkins;
              }
            } else if (done.IsFenced()) {
              on_fenced(c);
              c.state = Client::State::kDead;
            } else {
              c.state = Client::State::kDead;
            }
            break;
          }
          if (rng.Bernoulli(config.p_renew)) {
            Status renewed = c.handle->Renew(c.ticket);
            if (renewed.ok()) {
              ++report.renewals;
            } else {
              ++report.renewal_failures;
              if (renewed.IsFenced()) on_fenced(c);
              c.state = Client::State::kDead;
            }
          }
          break;
        }
        case Client::State::kDead:
        case Client::State::kWedged: {
          if (!rng.Bernoulli(config.p_zombie_op)) break;
          // The zombie acts on its stale state.  Legal only while its
          // lease still stands AND its handle was not fenced; once
          // either is gone the attempt must fail.
          const bool lease_alive =
              c.has_ticket && server.leases().Has(c.ticket.txn);
          Status z;
          if (c.has_ticket) {
            z = c.ticket.mode == ws::CheckOutMode::kDerive
                    ? c.handle->Cancel(c.ticket)
                    : c.handle->CheckIn(c.ticket);
          } else {
            z = c.handle->Ping();
          }
          if (z.ok()) {
            if (c.has_ticket && !lease_alive) {
              report.violations.push_back(
                  "zombie check-in of txn " + std::to_string(c.ticket.txn) +
                  " succeeded after its lease was reclaimed");
            }
            ++report.zombie_legal;
            if (c.has_ticket) c.has_ticket = false;
            c.state = Client::State::kIdle;
          } else {
            ++report.zombie_rejected;
            if (z.IsFenced()) on_fenced(c);
          }
          break;
        }
      }
    }

    // Execute whatever the wedged/dying clients left published.
    (void)host.Drain();

    if (config.sweep_every_ticks > 0 &&
        (tick + 1) % config.sweep_every_ticks == 0) {
      sweep();
    }
  }

  // Drain: execute every published frame, let every handle lease and
  // every check-out lease run out, and reclaim in two passes (the second
  // mops responses completed after the first pass fenced their handle).
  (void)host.Drain();
  server.clock().AdvanceMs(host.options().handle_lease_ms +
                           server.leases().options().duration_ms +
                           server.leases().options().grace_ms + 1);
  sweep();
  (void)host.Drain();
  sweep();

  audit(host.AuditDrained(), "after the final drain");
  for (const Client& c : fleet) fold_handle_stats(*c.handle);
  return report;
}

}  // namespace codlock::sim
