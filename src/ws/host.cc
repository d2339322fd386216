#include "ws/host.h"

#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <sstream>

#include "fault/fault_injector.h"

namespace codlock::ws {

namespace {
// The host process dies between consuming a frame and executing it: the
// job strands in kExecuting and the ring must be rebuilt by the restart.
fault::FaultPoint g_fault_host_crash{"ws.host.crash",
                                     fault::FaultKind::kCrash};

// True when the PID verifiably names no live process.  kill(pid, 0)
// costs nothing and needs no pidfd plumbing; EPERM means "alive but not
// ours", which is NOT dead.  A reaped-but-unwaited child is still a
// zombie process entry, so the parent must waitpid before relying on
// this — the procchaos harness does.
bool ProcessDead(int64_t pid) {
  if (pid <= 0) return false;
  if (kill(static_cast<pid_t>(pid), 0) == 0) return false;
  return errno == ESRCH;
}
}  // namespace

Host::Host(const nf2::Catalog* catalog, nf2::InstanceStore* store,
           HostOptions options)
    : options_(std::move(options)),
      server_(catalog, store, options_.server),
      ring_(options_.ring) {
  uint64_t incarnation = 0;
  {
    MutexLock lk(mu_);
    // Seed the incarnation from durable state so a Host rebuilt over an
    // existing store file also invalidates handles of its predecessor.
    incarnation_ = server_.stable_storage().generation() + 1;
    incarnation = incarnation_;
  }
  // Publish the incarnation in the segment superblock so out-of-process
  // attachers are fenced against stale expectations without asking us.
  ring_.StampIncarnation(incarnation);
}

Host::~Host() { StopWorkers(); }

HandleInfo Host::Attach() {
  MutexLock lk(mu_);
  const uint64_t id = next_handle_id_++;
  HandleEntry entry;
  entry.last_seen_ms = server_.clock().NowMs();
  handles_[id] = entry;
  return {id, entry.epoch, incarnation_};
}

Status Host::BindPid(uint64_t handle_id, int64_t pid) {
  MutexLock lk(mu_);
  auto it = handles_.find(handle_id);
  if (it == handles_.end()) {
    return Status::NotFound("unknown handle " + std::to_string(handle_id));
  }
  it->second.pid = pid;
  it->second.pid_dead = false;
  return Status::OK();
}

Result<HandleInfo> Host::Reattach(uint64_t handle_id) {
  MutexLock lk(mu_);
  auto it = handles_.find(handle_id);
  if (it == handles_.end()) {
    return Status::NotFound("unknown handle " + std::to_string(handle_id));
  }
  HandleEntry& e = it->second;
  if (e.fenced) {
    return Status::Fenced("handle " + std::to_string(handle_id) +
                          " was fenced; attach anew and re-check out");
  }
  // Fresh epoch: any frame still floating under the old epoch is
  // answered kFenced by the executor.
  ++e.epoch;
  e.stale = false;
  e.inflight = 0;
  e.last_seen_ms = server_.clock().NowMs();
  return HandleInfo{handle_id, e.epoch, incarnation_};
}

Status Host::Detach(uint64_t handle_id) {
  size_t freed = 0;
  {
    MutexLock lk(mu_);
    auto it = handles_.find(handle_id);
    if (it == handles_.end()) {
      return Status::NotFound("unknown handle " + std::to_string(handle_id));
    }
    freed = ring_.ReclaimHandleSlots(handle_id);
    total_inflight_ -= std::min(total_inflight_,
                                std::max(freed, it->second.inflight));
    handles_.erase(it);
  }
  (void)freed;
  return Status::OK();
}

Result<size_t> Host::Submit(const HandleInfo& who, uint64_t job_id,
                            std::string_view request, PublishFault fault) {
  const size_t total_cap = options_.max_inflight_total != 0
                               ? options_.max_inflight_total
                               : options_.ring.slots;
  {
    MutexLock lk(mu_);
    auto it = handles_.find(who.handle_id);
    if (it == handles_.end()) {
      return Status::Fenced("unknown handle " +
                            std::to_string(who.handle_id));
    }
    HandleEntry& e = it->second;
    if (e.fenced || e.stale || who.epoch != e.epoch ||
        who.incarnation != incarnation_) {
      return Status::Fenced(
          "handle " + std::to_string(who.handle_id) +
          " is a zombie (fenced, or attached to a dead host incarnation); "
          "re-attach required");
    }
    if (e.inflight >= options_.max_inflight_per_handle ||
        total_inflight_ >= total_cap) {
      ++e.sheds;
      LockStats& stats = server_.lock_manager().stats();
      stats.sheds.Add();
      stats.jobs_shed_per_handle.Add();
      return Status::Shed(
          "ring admission: handle " + std::to_string(who.handle_id) +
          " has " + std::to_string(e.inflight) + "/" +
          std::to_string(options_.max_inflight_per_handle) +
          " jobs in flight, " + std::to_string(total_inflight_) + "/" +
          std::to_string(total_cap) + " globally");
    }
    // Reserve the slot in the accounting before touching the ring; the
    // publish outcome below settles it.
    ++e.inflight;
    ++total_inflight_;
  }

  FrameHeader header;
  header.handle_id = who.handle_id;
  header.handle_epoch = who.epoch;
  header.job_id = job_id;
  Result<size_t> slot = ring_.Publish(header, request, fault);
  if (!slot.ok()) {
    const Status& s = slot.status();
    // A death mid-write strands the slot — it stays attributed to the
    // handle until the sweep reclaims it.  Every other failure left no
    // slot behind: release the reservation.
    const bool stranded = fault::IsInjectedCrash(s) || s.IsAborted();
    if (!stranded) {
      MutexLock lk(mu_);
      auto it = handles_.find(who.handle_id);
      if (it != handles_.end() && it->second.inflight > 0) {
        --it->second.inflight;
      }
      if (total_inflight_ > 0) --total_inflight_;
    }
  }
  return slot;
}

Result<std::string> Host::Take(const HandleInfo& who, size_t slot,
                               uint64_t job_id) {
  Result<std::string> response = ring_.TakeResponse(slot, job_id);
  if (response.ok()) {
    MutexLock lk(mu_);
    auto it = handles_.find(who.handle_id);
    if (it != handles_.end()) {
      if (it->second.inflight > 0) --it->second.inflight;
      it->second.last_seen_ms = server_.clock().NowMs();
    }
    if (total_inflight_ > 0) --total_inflight_;
  }
  return response;
}

void Host::NoteSalvaged(const std::vector<ShmRing::SalvagedFrame>& salvaged) {
  if (salvaged.empty()) return;
  MutexLock lk(mu_);
  for (const ShmRing::SalvagedFrame& f : salvaged) {
    auto it = handles_.find(f.handle_id);
    if (it != handles_.end() && it->second.inflight > 0) {
      --it->second.inflight;
    }
    if (total_inflight_ > 0) --total_inflight_;
  }
}

Result<bool> Host::Step() {
  std::vector<ShmRing::SalvagedFrame> salvaged;
  Result<ShmRing::Job> job = ring_.Consume(&salvaged);
  NoteSalvaged(salvaged);
  if (!job.ok()) {
    if (job.status().IsNotFound()) return false;
    return job.status();  // injected worker death (ws.ring.consume)
  }
  if (fault::FireResult fr = g_fault_host_crash.Fire()) {
    // Host dies holding the claim: the job strands in kExecuting.
    return fault::StatusFor(fr, "ws.host.crash");
  }
  ExecuteJob(*job);
  return true;
}

Result<size_t> Host::Drain() {
  size_t executed = 0;
  for (;;) {
    Result<bool> stepped = Step();
    if (!stepped.ok()) return stepped.status();
    if (!*stepped) return executed;
    ++executed;
  }
}

void Host::ExecuteJob(const ShmRing::Job& job) {
  // Re-check the publishing handle's epoch at execution time: the handle
  // may have been fenced between publish and consume — its in-flight
  // jobs are aborted here, with kFenced, before touching the server.
  bool fenced = false;
  {
    MutexLock lk(mu_);
    auto it = handles_.find(job.header.handle_id);
    if (it == handles_.end() || it->second.fenced || it->second.stale ||
        it->second.epoch != job.header.handle_epoch) {
      fenced = true;
    } else {
      // Executed work is the liveness signal: a handle whose jobs flow
      // is not dead, however long its wall-clock attach is.
      it->second.last_seen_ms = server_.clock().NowMs();
    }
  }
  std::string response;
  if (fenced) {
    response = wire::EncodeResponse(
        Status::Fenced("handle " + std::to_string(job.header.handle_id) +
                       " was fenced; in-flight job " +
                       std::to_string(job.header.job_id) + " aborted"),
        nullptr);
  } else {
    wire::Request req;
    if (!wire::DecodeRequest(job.payload, &req)) {
      response = wire::EncodeResponse(
          Status::InvalidArgument("malformed job frame"), nullptr);
    } else {
      response = RunJob(req, job.header.handle_id);
    }
  }
  ring_.Complete(job.slot, response);
}

std::string Host::RunJob(const wire::Request& req, uint64_t handle_id) {
  (void)handle_id;
  switch (req.op) {
    case wire::JobOp::kPing:
      return wire::EncodeResponse(Status::OK(), nullptr);
    case wire::JobOp::kCheckOut: {
      Result<CheckOutTicket> ticket =
          server_.CheckOut(req.user, req.query, req.mode);
      if (!ticket.ok()) return wire::EncodeResponse(ticket.status(), nullptr);
      return wire::EncodeResponse(Status::OK(), &ticket.value());
    }
    case wire::JobOp::kCheckIn:
      return wire::EncodeResponse(server_.CheckIn(req.ticket), nullptr);
    case wire::JobOp::kCancel:
      return wire::EncodeResponse(server_.CancelCheckOut(req.ticket), nullptr);
    case wire::JobOp::kRenew:
      return wire::EncodeResponse(server_.RenewLease(req.ticket), nullptr);
    case wire::JobOp::kResume: {
      Result<CheckOutTicket> fresh = server_.ResumeSession(req.ticket);
      if (!fresh.ok()) return wire::EncodeResponse(fresh.status(), nullptr);
      return wire::EncodeResponse(Status::OK(), &fresh.value());
    }
  }
  return wire::EncodeResponse(
      Status::InvalidArgument("unknown job op"), nullptr);
}

void Host::WorkerLoop() {
  while (!stop_workers_.load(std::memory_order_acquire)) {
    if (!ring_.WaitForPublished(10'000, &stop_workers_)) continue;
    for (;;) {
      if (stop_workers_.load(std::memory_order_acquire)) return;
      Result<bool> stepped = Step();
      // Injected crashes are driven from steppable sweeps, not worker
      // threads; a worker treats them as "nothing consumed".
      if (!stepped.ok() || !*stepped) break;
    }
  }
}

void Host::StartWorkers(int n) {
  StopWorkers();
  stop_workers_.store(false, std::memory_order_release);
  workers_running_.store(true, std::memory_order_release);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Host::StopWorkers() {
  stop_workers_.store(true, std::memory_order_release);
  ring_.WakeAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  workers_running_.store(false, std::memory_order_release);
}

bool Host::workers_running() const {
  return workers_running_.load(std::memory_order_acquire);
}

size_t Host::SweepDeadHandles() {
  const uint64_t now = server_.clock().NowMs();
  size_t newly_fenced = 0;
  {
    MutexLock lk(mu_);
    for (auto& [id, e] : handles_) {
      // The PID probe rides every pass: once the bound process is gone
      // the reclaim may safely widen to kTaking strands (no live thread
      // of the owner can be inside TakeResponse).
      if (e.pid != 0 && !e.pid_dead && ProcessDead(e.pid)) {
        e.pid_dead = true;
      }
      const ReclaimScope scope{/*taking=*/e.pid_dead, /*executing=*/false};
      if (e.fenced) {
        // Later passes mop up slots that were kExecuting during the
        // fencing pass and have since completed.
        const size_t freed = ring_.ReclaimHandleSlots(id, scope);
        const size_t dec = std::min(e.inflight, freed);
        e.inflight -= dec;
        total_inflight_ -= std::min(total_inflight_, static_cast<size_t>(dec));
        continue;
      }
      if (e.stale) continue;  // awaiting reattach; its ring died already
      // A verifiably dead process is fenced immediately — the lease
      // timeout exists for *silent* clients, not corpses.
      if (!e.pid_dead && now < e.last_seen_ms + options_.handle_lease_ms) {
        continue;
      }
      // Fence: bump the epoch first so no further submit or in-flight
      // execution can pass the epoch check, then reclaim the slots.
      e.fenced = true;
      ++e.epoch;
      ++newly_fenced;
      server_.lock_manager().stats().handles_fenced.Add();
      const size_t freed = ring_.ReclaimHandleSlots(id, scope);
      const size_t dec = std::min(e.inflight, freed);
      e.inflight -= dec;
      total_inflight_ -= std::min(total_inflight_, static_cast<size_t>(dec));
    }
  }
  // The dead clients' check-outs have stopped renewing: the existing
  // lease sweep releases their long locks and bumps the root fencing
  // epochs once the clock passes deadline + grace.
  server_.SweepExpiredLeases();
  return newly_fenced;
}

Status Host::CrashAndRestart() {
  StopWorkers();
  Status restored = server_.CrashAndRestart();
  // The shared memory died with the host: reinitialize the ring (lost
  // frames are accounted by Reset).
  ring_.Reset();
  uint64_t incarnation = 0;
  {
    MutexLock lk(mu_);
    incarnation_ =
        std::max(incarnation_ + 1, server_.stable_storage().generation() + 1);
    incarnation = incarnation_;
    total_inflight_ = 0;
    for (auto& [id, e] : handles_) {
      (void)id;
      e.stale = true;
      e.inflight = 0;
    }
  }
  // New incarnation goes into the superblock: attachers still expecting
  // the dead incarnation are fenced at the segment boundary.
  ring_.StampIncarnation(incarnation);
  return restored;
}

uint64_t Host::incarnation() const {
  MutexLock lk(mu_);
  return incarnation_;
}

std::vector<Host::HandleView> Host::HandleTable() const {
  MutexLock lk(mu_);
  std::vector<HandleView> table;
  table.reserve(handles_.size());
  for (const auto& [id, e] : handles_) {
    HandleView row;
    row.handle_id = id;
    row.epoch = e.epoch;
    row.fenced = e.fenced;
    row.stale = e.stale;
    row.inflight = e.inflight;
    row.sheds = e.sheds;
    row.last_seen_ms = e.last_seen_ms;
    row.pid = e.pid;
    table.push_back(row);
  }
  return table;
}

size_t Host::LiveHandles() const {
  MutexLock lk(mu_);
  size_t live = 0;
  for (const auto& [id, e] : handles_) {
    (void)id;
    if (!e.fenced && !e.stale) ++live;
  }
  return live;
}

size_t Host::TotalInFlight() const {
  MutexLock lk(mu_);
  return total_inflight_;
}

std::vector<std::string> Host::Audit() {
  std::vector<std::string> out = server_.Audit();
  AuditHandles(&out);
  return out;
}

std::vector<std::string> Host::AuditDrained() {
  std::vector<std::string> out = server_.AuditDrained();
  AuditHandles(&out);
  for (size_t slot = 0; slot < ring_.slots(); ++slot) {
    const SlotState state = ring_.StateOf(slot);
    if (state == SlotState::kFree) continue;
    std::ostringstream msg;
    msg << "ring slot " << slot << " left in state " << SlotStateName(state)
        << " (owner handle " << ring_.OwnerOf(slot) << ")";
    out.push_back(msg.str());
  }
  for (std::string& imbalance : ring_.counters().Imbalances()) {
    out.push_back(std::move(imbalance));
  }
  return out;
}

void Host::SetHandleEpochForTest(uint64_t handle_id, uint64_t epoch) {
  MutexLock lk(mu_);
  handles_.at(handle_id).epoch = epoch;
}

void Host::AuditHandles(std::vector<std::string>* out) {
  MutexLock lk(mu_);
  const uint64_t audit = ++audits_;
  for (const auto& [id, e] : handles_) {
    EpochFloor& floor = handle_floors_[id];
    if (e.epoch > floor.epoch) floor = {e.epoch, audit};
    if (e.epoch == floor.epoch) continue;
    std::ostringstream msg;
    msg << "epoch of handle " << id << " is " << e.epoch
        << ", below its floor " << floor.epoch << " seen by audit "
        << floor.audit;
    out->push_back(msg.str());
  }
}

}  // namespace codlock::ws
