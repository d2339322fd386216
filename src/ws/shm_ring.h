/// \file shm_ring.h
/// \brief Fixed-slot SPMC job ring: the shared-memory transport between
/// client handles and the host's worker threads.
///
/// ROADMAP open item 2 (the oidadb `edbl` host/handle split): client
/// *processes* publish job frames into a fixed array of slots that host
/// workers drain.  The ring state is a flat POD image — control block,
/// then `slots × (head | payload | response)` at fixed 64-byte-aligned
/// strides — living either on the heap (`RingBackend::kInProcess`, the
/// default for unit tests and the deterministic scheduler) or inside a
/// real `shm_open` segment (`kShmCreate`/`kShmAttach`, see
/// shm_segment.h).  Both backends run the *same* protocol code; only the
/// memory's origin and the wait primitive differ.  None of the parties
/// can be trusted to finish what they started:
///
///  * every frame is **CRC-stamped** over its payload, so a client that
///    dies mid-write leaves a *torn frame* the consumer detects and
///    salvages (slot freed, `salvaged` counted) instead of a garbage job
///    it executes;
///  * slot ownership moves through a small state machine of atomic words
///    (`kFree → kWriting → kPublished → kExecuting → kDone → kTaking →
///    kFree`), every transition a CAS — a crashed party simply leaves its
///    slot parked in whatever state it reached, and reclamation
///    (`ReclaimHandleSlots`, `Reset`) moves it back to `kFree` with the
///    loss accounted;
///  * wait/wake is **futex-style** through `util/futex.h`: the slot state
///    words are the futex words for `WaitDone`, and a doorbell sequence
///    word in the control block is the futex word for `WaitForPublished`
///    (read the sequence, re-check the predicate, wait on the old value —
///    no lost wakeups).  In-process rings park on annotated
///    `Mutex`/`CondVar` buckets so thread-safety analysis and the model
///    checker still see the blocking; shm rings use `futex(2)` so waits
///    cross process boundaries (shm rings are Linux only).
///
/// The ring is transport only: admission control (who may publish) and
/// job execution live in `ws::Host`; serialization of requests/responses
/// lives in `ws::wire` (handle.h).
#ifndef CODLOCK_WS_SHM_RING_H_
#define CODLOCK_WS_SHM_RING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/futex.h"
#include "util/result.h"
#include "ws/shm_segment.h"

namespace codlock::ws {

/// Lifecycle of one ring slot.  Stored in an atomic word per slot; every
/// transition is a CAS, so a party that dies mid-protocol strands the
/// slot in a recoverable state instead of corrupting a neighbour's.
enum class SlotState : uint32_t {
  kFree = 0,   ///< claimable by a producer
  kWriting,    ///< producer owns it (a crash here strands the slot)
  kPublished,  ///< frame complete (or torn!), waiting for a consumer
  kExecuting,  ///< worker owns it (a host crash here loses the job)
  kDone,       ///< response written, waiting for the producer to take it
  kTaking,     ///< producer copying the response out
};

std::string_view SlotStateName(SlotState state);

/// Where the ring memory lives.
enum class RingBackend : uint8_t {
  kInProcess = 0,  ///< heap buffer, single address space (default)
  kShmCreate,      ///< create a fresh shm segment and own its name
  kShmAttach,      ///< attach to an existing segment (client process)
};

struct RingOptions {
  size_t slots = 64;
  /// Maximum frame payload (request or response) in bytes; oversized
  /// publishes fail with kInvalidArgument, they never truncate.
  size_t payload_capacity = 4096;
  /// Also picks the wait primitive (util/futex.h): an in-process ring
  /// parks on the CondVar buckets (TSA/mc/TSAN visible), a shm ring on
  /// futex(2), so a shm ring needs Linux.
  RingBackend backend = RingBackend::kInProcess;
  /// Segment name for the shm backends ("/codlock-...").
  std::string shm_name;
  /// kShmCreate: incarnation stamped into the superblock.
  /// kShmAttach: expected incarnation (0 = accept any) — a mismatch
  /// fails the attach with kFenced (zombie process, host restarted).
  uint64_t incarnation = 0;

  /// Convenience for client processes attaching to a host's segment.
  static RingOptions AttachTo(std::string name, uint64_t expected_incarnation) {
    RingOptions o;
    o.backend = RingBackend::kShmAttach;
    o.shm_name = std::move(name);
    o.incarnation = expected_incarnation;
    return o;
  }
};

/// Injected producer-side failure for one Publish call.  Both the fault
/// points (`ws.ring.publish`, `ws.ring.torn_frame`) and the fleet chaos
/// driver route through this, so deterministic sweeps and probabilistic
/// chaos exercise the same code path.
enum class PublishFault : uint8_t {
  kNone = 0,
  /// The client dies after the CRC stamp but before the payload is fully
  /// copied: the frame publishes with a payload that does not match its
  /// CRC (the classic torn shared-memory write).
  kTornFrame,
  /// The client dies while the slot is still kWriting: the slot stays
  /// stranded until the dead-handle sweep reclaims it.
  kDieMidWrite,
};

/// Frame metadata stored alongside the payload.  `handle_epoch` lets the
/// executing host re-check the publishing handle's fencing epoch at
/// consume time (the handle may have been fenced between publish and
/// execute).
struct FrameHeader {
  uint64_t handle_id = 0;
  uint64_t handle_epoch = 0;
  uint64_t job_id = 0;
  uint32_t payload_size = 0;
  uint32_t crc = 0;
};

/// Which stranded states a dead-handle reclaim may free (beyond the
/// always-safe kWriting/kPublished/kDone).  `taking` is safe only when
/// the owner is *known dead* (SIGKILLed process, verified by the PID
/// reaper) — a merely-fenced in-process handle could still be inside
/// TakeResponse.  `executing` is safe only when no worker can still be
/// running the job (workers stopped, or post-mortem analysis).
struct ReclaimScope {
  bool taking = false;
  bool executing = false;
};

/// \brief The fixed-slot SPMC job ring.
class ShmRing {
 public:
  explicit ShmRing(RingOptions options);
  ~ShmRing();

  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  /// OK when the ring memory is usable.  The shm backends can fail to
  /// create/attach (errno context, kFenced on a stale incarnation,
  /// kCorrupt on a mangled superblock); every public operation on a
  /// failed ring returns this status (or its boolean equivalent).
  const Status& init_status() const { return init_status_; }

  // --- producer (client handle) side -------------------------------

  /// Claims a free slot, writes the frame (CRC-stamped over \p payload)
  /// and publishes it.  Returns the slot index.  Fails with kShed when
  /// no slot is free (transport backpressure — admission control in the
  /// host normally sheds first) and kInvalidArgument on oversized
  /// payloads.  \p fault injects a producer death (see PublishFault);
  /// kDieMidWrite returns an injected-crash status with the slot left
  /// stranded in kWriting.
  Result<size_t> Publish(const FrameHeader& header, std::string_view payload,
                         PublishFault fault = PublishFault::kNone);

  /// True while `slot` holds a done job of `job_id`.
  bool Done(size_t slot, uint64_t job_id) const;

  /// Copies the response out and frees the slot.  Fails with kNotFound
  /// when the slot no longer carries `job_id` (it was reclaimed and
  /// possibly reused) and kFailedPrecondition when the job is not done
  /// yet.
  Result<std::string> TakeResponse(size_t slot, uint64_t job_id);

  /// Parks until `slot`/`job_id` reaches kDone, is reclaimed, or
  /// \p timeout_us elapses.  Returns true when the response is ready.
  /// Futex-waits on the slot's state word itself.
  bool WaitDone(size_t slot, uint64_t job_id, uint64_t timeout_us);

  // --- consumer (host worker) side ---------------------------------

  struct Job {
    size_t slot = 0;
    FrameHeader header;
    std::string payload;
  };
  /// A frame whose CRC did not match its payload: the writer died
  /// mid-write.  The slot has been salvaged (freed); the host uses the
  /// handle id to fix up its in-flight accounting.
  struct SalvagedFrame {
    size_t slot = 0;
    uint64_t handle_id = 0;
    uint64_t job_id = 0;
  };

  /// Claims the next published frame (rotating scan for fairness) and
  /// validates its CRC.  Torn frames are salvaged, appended to
  /// \p salvaged (when non-null) and skipped.  Returns kNotFound when no
  /// published frame remains.
  Result<Job> Consume(std::vector<SalvagedFrame>* salvaged = nullptr);

  /// Writes the response and moves the slot to kDone, waking the
  /// producer parked on the state word.  Returns false when the slot was
  /// reclaimed out from under the worker (dead handle) or the response
  /// exceeds the payload capacity — the job is then accounted as
  /// reclaimed-while-executing and the response dropped.
  bool Complete(size_t slot, std::string_view response);

  /// Parks until a published frame exists, \p stop becomes true, or
  /// \p timeout_us elapses.  Returns true when a frame may be available.
  /// Futex-waits on the published-doorbell sequence word.
  bool WaitForPublished(uint64_t timeout_us, const std::atomic<bool>* stop);
  /// Wakes every parked waiter (worker shutdown, reclaim).
  void WakeAll();

  // --- reclamation / recovery --------------------------------------

  /// Frees every slot owned by \p handle_id reachable under \p scope:
  /// kWriting strands, unconsumed publishes and untaken responses
  /// always; kTaking/kExecuting only when the scope says the owner (or
  /// the executing worker) is provably gone.  Returns the number of
  /// slots freed.
  size_t ReclaimHandleSlots(uint64_t handle_id, ReclaimScope scope = {});

  /// Host crash: the ring memory is reinitialized in place.  Every slot
  /// is freed whatever its state; in-flight work is gone (accounted as
  /// reclaimed/aborted in the counters, which survive — they model the
  /// sim's observability, not ring memory).
  void Reset();

  /// Stamps a new host incarnation into the segment superblock (shm
  /// create backend; no-op OK in-process).  Attaches carrying the old
  /// incarnation are fenced from then on.
  Status StampIncarnation(uint64_t incarnation);

  // --- cross-process run gate --------------------------------------

  /// A go/stop word in the shared control block: forked children park on
  /// it until the parent opens the gate (and the parent can flip it back
  /// to stop publishing storms).  0 = hold, anything else = run.
  uint32_t run_state() const;
  void SetRunState(uint32_t value);
  /// Parks until `run_state() >= value` or \p timeout_us elapses;
  /// returns the gate value seen last.
  uint32_t WaitRunStateAtLeast(uint32_t value, uint64_t timeout_us);

  // --- crash hooks (chaos harness) ---------------------------------

  /// Invoked at named protocol points ("publish.claimed",
  /// "publish.stamped", "publish.copied", "publish.published",
  /// "consume.claimed", "take.taking").  The procchaos children install
  /// `kill(getpid(), SIGKILL)` here to die at an exact protocol state;
  /// nullptr disables (default).  Not thread-safe against concurrent
  /// ring use — install before starting traffic.
  void SetCrashHook(std::function<void(std::string_view)> hook) {
    crash_hook_ = std::move(hook);
  }

  // --- observability -----------------------------------------------

  size_t slots() const { return options_.slots; }
  size_t payload_capacity() const { return options_.payload_capacity; }
  RingBackend backend() const { return options_.backend; }
  const std::string& shm_name() const { return options_.shm_name; }
  /// Incarnation carried by the segment superblock (0 in-process).
  uint64_t incarnation() const;
  SlotState StateOf(size_t slot) const;
  /// Handle last recorded as owning \p slot (stale once the slot is
  /// kFree again — read the state first).  Post-mortem checkers use this
  /// to attribute strands to dead handles.
  uint64_t OwnerOf(size_t slot) const;
  /// Number of slots not currently kFree.
  size_t InFlight() const;

  /// Cumulative event counters (survive Reset — they are the ring's
  /// conservation ledger, and its only record).  Shared across processes
  /// in the shm backends: a child's publishes and takes land in the same
  /// ledger the host audits.  Three identities hold whenever the ring is
  /// empty (`Imbalances`).
  struct Counters {
    uint64_t published = 0;
    uint64_t consumed = 0;
    uint64_t completed = 0;
    uint64_t taken = 0;
    uint64_t salvaged = 0;
    uint64_t torn_writes = 0;          ///< injected torn publishes
    uint64_t crashed_writes = 0;       ///< injected die-mid-write strands
    uint64_t reclaimed_writing = 0;    ///< kWriting strands freed
    uint64_t reclaimed_published = 0;  ///< unconsumed frames freed
    uint64_t reclaimed_executing = 0;  ///< jobs lost to a host crash
    uint64_t reclaimed_done = 0;       ///< untaken responses freed
    uint64_t Reclaimed() const {
      return reclaimed_writing + reclaimed_published + reclaimed_executing +
             reclaimed_done;
    }
    /// The conservation identities, each as one message naming both
    /// sides with their values when it is broken (empty = balanced):
    ///   published == consumed + salvaged + reclaimed_published
    ///   consumed  == completed + reclaimed_executing
    ///   completed == taken + reclaimed_done
    /// They hold only while no slot is in flight.
    std::vector<std::string> Imbalances() const;
  };
  Counters counters() const;

 private:
  /// Per-slot fixed head; lives at the start of each slot stride in the
  /// shared image.  Plain fields (`header`, `response_size`) are
  /// published by the release CAS/store on `state` and read after an
  /// acquire load of it.
  struct SlotHead {
    std::atomic<uint32_t> state{0};
    uint32_t response_size = 0;
    /// Owning handle, stored right after the kFree→kWriting claim so
    /// reclamation can attribute the slot without touching the (plain)
    /// header while a writer may still own it.
    std::atomic<uint64_t> owner{0};
    /// Job id of the current occupant; producers verify it before taking
    /// a response (the slot may have been reclaimed and reused).
    std::atomic<uint64_t> job_stamp{0};
    FrameHeader header;
  };

  /// Shared control block at the start of the ring image.
  struct RingCtrl;

  enum CounterIdx : size_t {
    kCtrPublished = 0,
    kCtrConsumed,
    kCtrCompleted,
    kCtrTaken,
    kCtrSalvaged,
    kCtrTornWrites,
    kCtrCrashedWrites,
    kCtrReclaimedWriting,
    kCtrReclaimedPublished,
    kCtrReclaimedExecuting,
    kCtrReclaimedDone,
    kNumCounters,
  };

  void InitInProcess();
  Status InitShmCreate();
  Status InitShmAttach();
  void InitImage();  ///< placement-construct ctrl + slots in base_

  RingCtrl* ctrl() const;
  SlotHead& HeadOf(size_t slot) const;
  uint8_t* PayloadOf(size_t slot) const;
  uint8_t* ResponseOf(size_t slot) const;

  bool CasState(SlotHead& s, SlotState from, SlotState to);
  void FreeSlot(SlotHead& s);
  /// Futex wake on a slot's state word (producer parked in WaitDone).
  void WakeSlot(SlotHead& s);
  /// Bump + wake the published doorbell.
  void RingDoorbell();
  void Bump(CounterIdx idx);
  void CrashPoint(std::string_view point) {
    if (crash_hook_) crash_hook_(point);
  }

  RingOptions options_;
  Status init_status_;
  futex::Backend wait_backend_ = futex::Backend::kInProcess;

  /// Ring image: ctrl block + slot array.  Either heap_ or segment_.
  uint8_t* base_ = nullptr;
  std::unique_ptr<uint8_t[]> heap_;
  ShmSegment segment_;
  size_t slot_stride_ = 0;
  size_t payload_stride_ = 0;

  /// Rotating scan cursors (fairness, not correctness; process-local).
  std::atomic<size_t> publish_cursor_{0};
  std::atomic<size_t> consume_cursor_{0};

  std::function<void(std::string_view)> crash_hook_;
};

}  // namespace codlock::ws

#endif  // CODLOCK_WS_SHM_RING_H_
