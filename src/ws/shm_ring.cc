#include "ws/shm_ring.h"

#include <chrono>
#include <cstring>
#include <initializer_list>
#include <sstream>
#include <type_traits>

#include "fault/fault_injector.h"
#include "util/crc32.h"
#include "util/mutation_points.h"

namespace codlock::ws {

namespace {

// The client process dies while its frame is still kWriting: the slot
// strands until the dead-handle sweep reclaims it.
fault::FaultPoint g_fault_ring_publish{"ws.ring.publish",
                                       fault::FaultKind::kCrash};
// The client process dies mid-copy *after* the CRC stamp: the frame
// publishes torn and the consumer must salvage it.
fault::FaultPoint g_fault_ring_torn{"ws.ring.torn_frame",
                                    fault::FaultKind::kTornWrite};
// A host worker dies right after claiming a frame: the job strands in
// kExecuting and only a host restart (ring reset) recovers the slot.
fault::FaultPoint g_fault_ring_consume{"ws.ring.consume",
                                       fault::FaultKind::kCrash};

uint32_t AsWord(SlotState s) { return static_cast<uint32_t>(s); }

constexpr size_t kAlign = 64;
constexpr size_t kCtrlStride = 256;
constexpr size_t kSlotHeadStride = 64;

size_t RoundUp(size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

std::string_view BytesView(const uint8_t* p, size_t n) {
  return std::string_view(reinterpret_cast<const char*>(p), n);
}

}  // namespace

std::string_view SlotStateName(SlotState state) {
  switch (state) {
    case SlotState::kFree:
      return "free";
    case SlotState::kWriting:
      return "writing";
    case SlotState::kPublished:
      return "published";
    case SlotState::kExecuting:
      return "executing";
    case SlotState::kDone:
      return "done";
    case SlotState::kTaking:
      return "taking";
  }
  return "?";
}

/// Shared control block at the start of the ring image.  Everything in it
/// is a lock-free atomic word — no pointers, no process-local state.
struct ShmRing::RingCtrl {
  /// Doorbell sequence for WaitForPublished: bumped (and futex-woken) on
  /// every publish, so waiters never miss a frame (read seq → re-check →
  /// wait on the old seq).
  std::atomic<uint32_t> published_seq{0};
  /// Cross-process run gate (see ShmRing::run_state).
  std::atomic<uint32_t> run_state{0};
  std::atomic<uint64_t> counters[kNumCounters];

  RingCtrl() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
  }
};

static_assert(std::is_trivially_copyable_v<FrameHeader>,
              "frame headers live in raw shared memory");
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "shared counters must be address-free lock-free atomics");

ShmRing::ShmRing(RingOptions options) : options_(std::move(options)) {
  static_assert(sizeof(SlotHead) <= kSlotHeadStride,
                "slot head must fit its stride");
  static_assert(sizeof(RingCtrl) <= kCtrlStride,
                "control block must fit its stride");
  if (options_.backend != RingBackend::kInProcess) {
    if (!futex::SyscallSupported()) {
      init_status_ = Status::FailedPrecondition(
          "a shared-memory ring waits with futex(2), which this host lacks "
          "(Linux only)");
      return;
    }
    wait_backend_ = futex::Backend::kSyscall;
  }
  switch (options_.backend) {
    case RingBackend::kInProcess:
      InitInProcess();
      break;
    case RingBackend::kShmCreate:
      init_status_ = InitShmCreate();
      break;
    case RingBackend::kShmAttach:
      init_status_ = InitShmAttach();
      break;
  }
}

ShmRing::~ShmRing() {
  if (options_.backend == RingBackend::kShmCreate && segment_.mapped()) {
    segment_.Unlink();  // best effort; attached children keep their mapping
  }
}

void ShmRing::InitInProcess() {
  payload_stride_ = RoundUp(options_.payload_capacity);
  slot_stride_ = kSlotHeadStride + 2 * payload_stride_;
  const size_t total = kCtrlStride + options_.slots * slot_stride_;
  heap_.reset(new uint8_t[total + kAlign - 1]);
  auto addr = reinterpret_cast<uintptr_t>(heap_.get());
  base_ = heap_.get() + (RoundUp(addr) - addr);
  std::memset(base_, 0, total);
  InitImage();
}

Status ShmRing::InitShmCreate() {
  if (options_.slots == 0 || options_.payload_capacity == 0) {
    return Status::InvalidArgument("ring needs at least one slot and a "
                                   "non-zero payload capacity");
  }
  payload_stride_ = RoundUp(options_.payload_capacity);
  slot_stride_ = kSlotHeadStride + 2 * payload_stride_;
  SegmentConfig cfg;
  cfg.name = options_.shm_name;
  cfg.payload_bytes = kCtrlStride + options_.slots * slot_stride_;
  cfg.incarnation = options_.incarnation;
  cfg.user32[0] = static_cast<uint32_t>(options_.slots);
  cfg.user32[1] = static_cast<uint32_t>(options_.payload_capacity);
  CODLOCK_RETURN_IF_ERROR(segment_.Create(cfg));
  base_ = segment_.payload();
  InitImage();
  return Status::OK();
}

Status ShmRing::InitShmAttach() {
  CODLOCK_RETURN_IF_ERROR(
      segment_.Attach(options_.shm_name, options_.incarnation));
  const size_t slots = segment_.user32(0);
  const size_t capacity = segment_.user32(1);
  payload_stride_ = RoundUp(capacity);
  slot_stride_ = kSlotHeadStride + 2 * payload_stride_;
  if (slots == 0 || capacity == 0 ||
      segment_.payload_bytes() < kCtrlStride + slots * slot_stride_) {
    const Status bad = Status::Corrupt(
        "shm segment \"" + options_.shm_name +
        "\" superblock geometry does not cover the ring image (slots=" +
        std::to_string(slots) + ", capacity=" + std::to_string(capacity) +
        ", payload_bytes=" + std::to_string(segment_.payload_bytes()) + ")");
    segment_.Close();
    return bad;
  }
  options_.slots = slots;
  options_.payload_capacity = capacity;
  options_.incarnation = segment_.incarnation();
  base_ = segment_.payload();
  return Status::OK();
}

void ShmRing::InitImage() {
  new (base_) RingCtrl;
  for (size_t i = 0; i < options_.slots; ++i) {
    new (&HeadOf(i)) SlotHead;
  }
}

ShmRing::RingCtrl* ShmRing::ctrl() const {
  return reinterpret_cast<RingCtrl*>(base_);
}

ShmRing::SlotHead& ShmRing::HeadOf(size_t slot) const {
  return *reinterpret_cast<SlotHead*>(base_ + kCtrlStride +
                                      slot * slot_stride_);
}

uint8_t* ShmRing::PayloadOf(size_t slot) const {
  return base_ + kCtrlStride + slot * slot_stride_ + kSlotHeadStride;
}

uint8_t* ShmRing::ResponseOf(size_t slot) const {
  return PayloadOf(slot) + payload_stride_;
}

bool ShmRing::CasState(SlotHead& s, SlotState from, SlotState to) {
  uint32_t expected = AsWord(from);
  return s.state.compare_exchange_strong(expected, AsWord(to),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
}

void ShmRing::FreeSlot(SlotHead& s) {
  s.state.store(AsWord(SlotState::kFree), std::memory_order_release);
  WakeSlot(s);
}

void ShmRing::WakeSlot(SlotHead& s) {
  futex::WakeAll(wait_backend_, s.state);
}

void ShmRing::RingDoorbell() {
  ctrl()->published_seq.fetch_add(1, std::memory_order_release);
  futex::WakeAll(wait_backend_, ctrl()->published_seq);
}

void ShmRing::Bump(CounterIdx idx) {
  ctrl()->counters[idx].fetch_add(1, std::memory_order_relaxed);
}

uint64_t ShmRing::incarnation() const {
  return segment_.mapped() ? segment_.incarnation() : options_.incarnation;
}

Result<size_t> ShmRing::Publish(const FrameHeader& header,
                                std::string_view payload, PublishFault fault) {
  if (base_ == nullptr) return init_status_;
  if (payload.size() > options_.payload_capacity) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds ring capacity of " +
        std::to_string(options_.payload_capacity));
  }
  // The deterministic fault points and the fleet's probabilistic chaos
  // inject through the same switch.
  fault::FireResult injected_crash;
  if (fault == PublishFault::kNone) {
    if (fault::FireResult fr = g_fault_ring_publish.Fire()) {
      injected_crash = fr;
      fault = PublishFault::kDieMidWrite;
    } else if (g_fault_ring_torn.Fire()) {
      fault = PublishFault::kTornFrame;
    }
  }

  // Claim: rotating scan for a free slot.
  const size_t n = options_.slots;
  const size_t start = publish_cursor_.fetch_add(1, std::memory_order_relaxed);
  SlotHead* slot = nullptr;
  size_t index = 0;
  for (size_t i = 0; i < n; ++i) {
    index = (start + i) % n;
    if (CasState(HeadOf(index), SlotState::kFree, SlotState::kWriting)) {
      slot = &HeadOf(index);
      break;
    }
  }
  if (slot == nullptr) {
    return Status::Shed("job ring full (" + std::to_string(n) +
                        " slots in flight)");
  }
  // Attribution is part of the claim: the owner/job stamps land right
  // after the CAS, so a producer SIGKILLed at any modeled crash point
  // leaves a slot the dead-handle sweep can attribute and reclaim.  (The
  // two stores between the CAS and "publish.claimed" are the residual
  // unattributable window; a death inside it strands the slot until the
  // host's crash recovery Reset, which accounts the frame.)
  slot->owner.store(header.handle_id, std::memory_order_release);
  slot->job_stamp.store(header.job_id, std::memory_order_release);
  CrashPoint("publish.claimed");

  slot->header = header;
  slot->header.payload_size = static_cast<uint32_t>(payload.size());
  slot->header.crc = Crc32(payload);
  CrashPoint("publish.stamped");
  if (fault == PublishFault::kDieMidWrite) {
    // Death before the payload lands: the slot strands in kWriting with
    // its owner recorded, so the dead-handle sweep can find it.
    Bump(kCtrCrashedWrites);
    if (injected_crash) {
      return fault::StatusFor(injected_crash, "ws.ring.publish");
    }
    return Status::Aborted("simulated client death mid-publish of job " +
                           std::to_string(header.job_id));
  }
  if (fault == PublishFault::kTornFrame) {
    // CRC stamped over the full payload, but only half of it lands; the
    // tail keeps whatever bytes the previous occupant left behind.
    std::memcpy(PayloadOf(index), payload.data(), payload.size() / 2);
    Bump(kCtrTornWrites);
  } else if (!payload.empty()) {
    std::memcpy(PayloadOf(index), payload.data(), payload.size());
  }
  slot->response_size = 0;
  CrashPoint("publish.copied");

  if (!CasState(*slot, SlotState::kWriting, SlotState::kPublished)) {
    // The slot was reclaimed under us (the handle was fenced while this
    // publish was in flight).  Nothing was made visible.
    return Status::Fenced("slot reclaimed during publish of job " +
                          std::to_string(header.job_id));
  }
  Bump(kCtrPublished);
  // Ledger first, then the crash hook: a producer that dies here leaves
  // a *counted* published frame behind (the conservation identities
  // treat it as unconsumed or consumed-later, never as a ghost).
  CrashPoint("publish.published");
  RingDoorbell();
  return index;
}

bool ShmRing::Done(size_t slot, uint64_t job_id) const {
  if (base_ == nullptr) return false;
  const SlotHead& s = HeadOf(slot);
  if (s.job_stamp.load(std::memory_order_acquire) != job_id) return false;
  return s.state.load(std::memory_order_acquire) == AsWord(SlotState::kDone);
}

Result<std::string> ShmRing::TakeResponse(size_t slot, uint64_t job_id) {
  if (base_ == nullptr) return init_status_;
  SlotHead& s = HeadOf(slot);
  if (s.job_stamp.load(std::memory_order_acquire) != job_id) {
    return Status::NotFound("job " + std::to_string(job_id) +
                            " is gone (slot reclaimed or reused)");
  }
  if (!CasState(s, SlotState::kDone, SlotState::kTaking)) {
    const uint32_t state = s.state.load(std::memory_order_acquire);
    if (state == AsWord(SlotState::kFree)) {
      return Status::NotFound("job " + std::to_string(job_id) +
                              " is gone (slot reclaimed)");
    }
    return Status::FailedPrecondition(
        "job " + std::to_string(job_id) + " is not done (slot is " +
        std::string(SlotStateName(static_cast<SlotState>(state))) + ")");
  }
  CrashPoint("take.taking");
  // We own the slot now; re-verify the stamp (the slot may have cycled
  // to another producer's done job between the load and the claim).
  if (s.job_stamp.load(std::memory_order_acquire) != job_id) {
    CasState(s, SlotState::kTaking, SlotState::kDone);
    return Status::NotFound("job " + std::to_string(job_id) +
                            " is gone (slot reused)");
  }
  std::string response(BytesView(ResponseOf(slot), s.response_size));
  // The release is a CAS, not a blind store: the PID reaper may free a
  // kTaking slot whose owner it verified dead.  If it won, this (live,
  // fenced) taker must not double-free — and must not count the take,
  // the reaper already ledgered the frame as reclaimed.
  if (!CasState(s, SlotState::kTaking, SlotState::kFree)) {
    return Status::NotFound("job " + std::to_string(job_id) +
                            " was reclaimed while taking its response");
  }
  Bump(kCtrTaken);
  return response;
}

bool ShmRing::WaitDone(size_t slot, uint64_t job_id, uint64_t timeout_us) {
  if (base_ == nullptr) return false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
  SlotHead& s = HeadOf(slot);
  for (;;) {
    if (s.job_stamp.load(std::memory_order_acquire) != job_id) return false;
    const uint32_t state = s.state.load(std::memory_order_acquire);
    if (state == AsWord(SlotState::kDone)) return true;
    if (state == AsWord(SlotState::kFree)) return false;  // reclaimed
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remaining_us =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now)
            .count();
    // The slot state word is the futex word: Complete / FreeSlot /
    // reclaim wake it on every transition out of `state`.
    futex::Wait(wait_backend_, s.state, state,
                static_cast<uint64_t>(remaining_us));
  }
}

Result<ShmRing::Job> ShmRing::Consume(std::vector<SalvagedFrame>* salvaged) {
  if (base_ == nullptr) return init_status_;
  const size_t n = options_.slots;
  for (size_t scanned = 0; scanned < n;) {
    const size_t index =
        consume_cursor_.fetch_add(1, std::memory_order_relaxed) % n;
    ++scanned;
    SlotHead& s = HeadOf(index);
    if (!CasState(s, SlotState::kPublished, SlotState::kExecuting)) continue;
    CrashPoint("consume.claimed");
    if (fault::FireResult fr = g_fault_ring_consume.Fire()) {
      // The worker dies holding the claim: the job strands in
      // kExecuting until the host restart resets the ring.  The claim
      // itself is ledgered — the stranded frame must show up under
      // consumed == completed + reclaimed_executing, not vanish.
      Bump(kCtrConsumed);
      return fault::StatusFor(fr, "ws.ring.consume");
    }
    const FrameHeader header = s.header;
    if (header.payload_size > options_.payload_capacity ||
        Crc32(BytesView(PayloadOf(index), header.payload_size)) !=
            header.crc) {
      // Torn frame: the writer died mid-copy.  Salvage the slot.
      if (salvaged != nullptr) {
        salvaged->push_back({index, header.handle_id, header.job_id});
      }
      FreeSlot(s);
      Bump(kCtrSalvaged);
      continue;  // the freed slot does not count as scanned work
    }
    Job job;
    job.slot = index;
    job.header = header;
    job.payload.assign(BytesView(PayloadOf(index), header.payload_size));
    Bump(kCtrConsumed);
    return job;
  }
  return Status::NotFound("no published frame");
}

bool ShmRing::Complete(size_t slot, std::string_view response) {
  if (base_ == nullptr) return false;
  SlotHead& s = HeadOf(slot);
  if (response.size() > options_.payload_capacity) {
    // No silent truncation: drop the job as lost-in-executing (the
    // producer's WaitDone sees the freed slot and gives up).
    if (CasState(s, SlotState::kExecuting, SlotState::kFree)) {
      Bump(kCtrReclaimedExecuting);
      WakeSlot(s);
    }
    return false;
  }
  if (!response.empty()) {
    std::memcpy(ResponseOf(slot), response.data(), response.size());
  }
  s.response_size = static_cast<uint32_t>(response.size());
  // CAS, not a blind store: a post-mortem reclaim (scope.executing) may
  // have freed the slot under a worker that was presumed gone.  The
  // reclaimer ledgered the frame; this worker drops the response.
  if (!CasState(s, SlotState::kExecuting, SlotState::kDone)) {
    return false;
  }
  Bump(kCtrCompleted);
  WakeSlot(s);
  return true;
}

bool ShmRing::WaitForPublished(uint64_t timeout_us,
                               const std::atomic<bool>* stop) {
  if (base_ == nullptr) return false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
  for (;;) {
    // Eventcount discipline: read the doorbell, then re-check the
    // predicate, then wait on the *old* doorbell value — a publish
    // between check and wait bumps the word and the wait returns.
    const uint32_t seq = ctrl()->published_seq.load(std::memory_order_acquire);
    if (stop != nullptr && stop->load(std::memory_order_acquire)) return false;
    for (size_t i = 0; i < options_.slots; ++i) {
      if (HeadOf(i).state.load(std::memory_order_acquire) ==
          AsWord(SlotState::kPublished)) {
        return true;
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remaining_us =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now)
            .count();
    futex::Wait(wait_backend_, ctrl()->published_seq, seq,
                static_cast<uint64_t>(remaining_us));
  }
}

void ShmRing::WakeAll() {
  if (base_ == nullptr) return;
  RingDoorbell();
  for (size_t i = 0; i < options_.slots; ++i) {
    WakeSlot(HeadOf(i));
  }
}

size_t ShmRing::ReclaimHandleSlots(uint64_t handle_id, ReclaimScope scope) {
  if (base_ == nullptr) return 0;
  // Precondition (enforced by ws::Host): the handle is fenced, so no
  // live writer of this handle can pass admission anymore; any slot
  // still kWriting was stranded by a death inside Publish, which has
  // returned (or been SIGKILLed) — the slot memory is quiet.
  size_t freed = 0;
  auto reclaim = [&](SlotHead& s, SlotState from, CounterIdx ctr) {
    if (!CasState(s, from, SlotState::kFree)) return false;
    Bump(ctr);
    WakeSlot(s);  // parked producers of freed slots must give up
    ++freed;
    return true;
  };
  for (size_t i = 0; i < options_.slots; ++i) {
    SlotHead& s = HeadOf(i);
    if (s.owner.load(std::memory_order_acquire) != handle_id) continue;
    if (reclaim(s, SlotState::kWriting, kCtrReclaimedWriting)) continue;
    // Kill-suite mutant: leak unconsumed publishes of the dead handle.
    // The frame-conservation oracle must notice the ring never drains.
    if (!mutation::Enabled(mutation::Mutant::kRingSkipReclaim) &&
        reclaim(s, SlotState::kPublished, kCtrReclaimedPublished)) {
      continue;
    }
    if (reclaim(s, SlotState::kDone, kCtrReclaimedDone)) continue;
    // kTaking: the owner died after claiming its response (the frame was
    // completed, so it ledgers as an untaken response).  Only safe when
    // the owner is provably dead — the PID reaper's scope.
    if (scope.taking && reclaim(s, SlotState::kTaking, kCtrReclaimedDone)) {
      continue;
    }
    // kExecuting: only when no worker can still be running the job
    // (post-mortem convergence with workers stopped).
    if (scope.executing &&
        reclaim(s, SlotState::kExecuting, kCtrReclaimedExecuting)) {
      continue;
    }
  }
  return freed;
}

void ShmRing::Reset() {
  if (base_ == nullptr) return;
  // Host crash: shared memory reinitialized.  Account every in-flight
  // frame as lost before freeing it — the sweep's conservation checks
  // rely on the ledger, not the memory.
  for (size_t i = 0; i < options_.slots; ++i) {
    SlotHead& s = HeadOf(i);
    const uint32_t state = s.state.load(std::memory_order_acquire);
    switch (static_cast<SlotState>(state)) {
      case SlotState::kFree:
        break;
      case SlotState::kWriting:
        Bump(kCtrReclaimedWriting);
        break;
      case SlotState::kPublished:
        Bump(kCtrReclaimedPublished);
        break;
      case SlotState::kExecuting:
        Bump(kCtrReclaimedExecuting);
        break;
      case SlotState::kDone:
      case SlotState::kTaking:
        Bump(kCtrReclaimedDone);
        break;
    }
    s.owner.store(0, std::memory_order_release);
    s.job_stamp.store(0, std::memory_order_release);
    FreeSlot(s);
  }
  RingDoorbell();
}

Status ShmRing::StampIncarnation(uint64_t incarnation) {
  options_.incarnation = incarnation;
  if (options_.backend == RingBackend::kShmCreate && segment_.mapped()) {
    return segment_.StampIncarnation(incarnation);
  }
  return Status::OK();
}

uint32_t ShmRing::run_state() const {
  if (base_ == nullptr) return 0;
  return ctrl()->run_state.load(std::memory_order_acquire);
}

void ShmRing::SetRunState(uint32_t value) {
  if (base_ == nullptr) return;
  ctrl()->run_state.store(value, std::memory_order_release);
  futex::WakeAll(wait_backend_, ctrl()->run_state);
}

uint32_t ShmRing::WaitRunStateAtLeast(uint32_t value, uint64_t timeout_us) {
  if (base_ == nullptr) return 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
  for (;;) {
    const uint32_t seen = ctrl()->run_state.load(std::memory_order_acquire);
    if (seen >= value) return seen;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return seen;
    const auto remaining_us =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now)
            .count();
    futex::Wait(wait_backend_, ctrl()->run_state, seen,
                static_cast<uint64_t>(remaining_us));
  }
}

SlotState ShmRing::StateOf(size_t slot) const {
  return static_cast<SlotState>(
      HeadOf(slot).state.load(std::memory_order_acquire));
}

uint64_t ShmRing::OwnerOf(size_t slot) const {
  return HeadOf(slot).owner.load(std::memory_order_acquire);
}

size_t ShmRing::InFlight() const {
  if (base_ == nullptr) return 0;
  size_t busy = 0;
  for (size_t i = 0; i < options_.slots; ++i) {
    if (HeadOf(i).state.load(std::memory_order_acquire) !=
        AsWord(SlotState::kFree)) {
      ++busy;
    }
  }
  return busy;
}

ShmRing::Counters ShmRing::counters() const {
  Counters c;
  if (base_ == nullptr) return c;
  auto load = [&](CounterIdx idx) {
    return ctrl()->counters[idx].load(std::memory_order_relaxed);
  };
  c.published = load(kCtrPublished);
  c.consumed = load(kCtrConsumed);
  c.completed = load(kCtrCompleted);
  c.taken = load(kCtrTaken);
  c.salvaged = load(kCtrSalvaged);
  c.torn_writes = load(kCtrTornWrites);
  c.crashed_writes = load(kCtrCrashedWrites);
  c.reclaimed_writing = load(kCtrReclaimedWriting);
  c.reclaimed_published = load(kCtrReclaimedPublished);
  c.reclaimed_executing = load(kCtrReclaimedExecuting);
  c.reclaimed_done = load(kCtrReclaimedDone);
  return c;
}

std::vector<std::string> ShmRing::Counters::Imbalances() const {
  struct Term {
    const char* name;
    uint64_t value;
  };
  std::vector<std::string> out;
  auto identity = [&out](Term lhs, std::initializer_list<Term> rhs) {
    uint64_t sum = 0;
    std::ostringstream msg;
    msg << "ring ledger: " << lhs.name << "=" << lhs.value << " != ";
    for (const Term& t : rhs) {
      msg << (&t == rhs.begin() ? "" : " + ") << t.name << "=" << t.value;
      sum += t.value;
    }
    msg << " = " << sum;
    if (lhs.value != sum) out.push_back(msg.str());
  };
  identity({"published", published}, {{"consumed", consumed},
                                       {"salvaged", salvaged},
                                       {"reclaimed_published",
                                        reclaimed_published}});
  identity({"consumed", consumed},
           {{"completed", completed},
            {"reclaimed_executing", reclaimed_executing}});
  identity({"completed", completed},
           {{"taken", taken}, {"reclaimed_done", reclaimed_done}});
  return out;
}

}  // namespace codlock::ws
