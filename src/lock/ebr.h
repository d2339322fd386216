/// \file ebr.h
/// \brief Epoch-based reclamation for lock-table entry nodes.
///
/// The optimistic fast path (`LockManager::TryFastpathAcquire`) traverses
/// the per-shard bucket chains and dereferences `Entry` nodes without any
/// mutex.  A retired node therefore cannot be reused (its key rewritten,
/// its chain link repointed) while a concurrent reader may still hold a
/// pointer into it.  This header provides the classic epoch scheme:
///
///  * every reader *pins* the global epoch for the duration of its
///    traversal (a `Guard`),
///  * retiring a node stamps it with `Stamp()` — one past every epoch a
///    concurrently pinned reader can have observed before the unlink,
///  * a stamped node is reusable once every registered thread is either
///    idle or pinned at an epoch >= the stamp (`MinActive()`), because a
///    reader pinned at or after the stamp provably observed the unlink
///    (the pin validates against the global counter *after* publishing
///    itself, so the stamp's fetch_add happens-before its traversal).
///
/// The pin protocol closes the publish/scan race with sequentially
/// consistent operations: a reader stores its epoch and then re-reads the
/// global counter; if a reclaimer's scan missed the store, the reader's
/// re-read is ordered after the reclaimer's stamp and the reader re-pins
/// at the newer epoch — at which point the unlink is visible to it and the
/// node is unreachable.
///
/// Registration is process-wide (one slot array shared by every
/// `LockManager`); a thread registers on first use and releases its record
/// at thread exit.  When the fixed table is exhausted, `Guard::ok()`
/// returns false and callers must fall back to their mutex-protected slow
/// path — reclamation never blocks and never allocates.

#ifndef CODLOCK_LOCK_EBR_H_
#define CODLOCK_LOCK_EBR_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/mutation_points.h"
#include "util/wm_atomic.h"

namespace codlock::lock::ebr {

class Reclaimer {
 public:
  /// Epoch value meaning "not inside any read-side critical section".
  static constexpr uint64_t kIdle = ~uint64_t{0};
  /// Fixed registration table; threads beyond this run slow-path only.
  static constexpr size_t kMaxThreads = 512;

  Reclaimer() = default;
  /// Test-only seam: starts the epoch counter at `initial_epoch` so the
  /// counter-width edge cases (values past 2^32, values adjacent to the
  /// kIdle sentinel) are reachable without 2^64 stamps.  Production code
  /// always uses the default counter start of 1; at one stamp per
  /// nanosecond the 64-bit counter takes ~584 years to reach kIdle, so
  /// sentinel collision is unreachable within a process lifetime.
  explicit Reclaimer(uint64_t initial_epoch) : global_(initial_epoch) {}
  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

 private:
  /// One cache line per thread (64 bytes on x86-64 and most AArch64
  /// parts): every fast-path pin is a seq_cst store to `epoch`, and
  /// unpadded, four records share a line, so each pin would invalidate
  /// three other threads' records.  On a 4-vCPU host `bench_contention`
  /// `contended_s` at 4 threads went from 2.33 to 2.72 M ops/s with the
  /// padding (median of 8 interleaved pairs, 7 ahead).  Costs 24 KB over
  /// the unpadded table.
  struct alignas(64) Record {
    wm::Atomic<uint64_t> epoch{kIdle};
    wm::Atomic<bool> used{false};
  };

 public:
  /// RAII pin of the global epoch for one read-side critical section.
  /// Guards must not nest on one thread (each would clobber the record).
  class Guard {
   public:
    explicit Guard(Reclaimer& r) : rec_(r.LocalRecord()) {
      if (rec_ == nullptr) return;
      // Order-weakening mutation point (kill-suite only): pin and
      // validate must be seq_cst — `codlock_wmc`'s ebr_pin_vs_stamp
      // harness proves a relaxed pin lets a reclaimer's scan miss it and
      // reuse a node the reader still dereferences.
      const wm::MemoryOrder pin_mo = mutation::WeakenedOrder(
          mutation::Mutant::kWmEbrEpochRelaxed, wm::seq_cst);
      uint64_t e = r.global_.load(pin_mo);
      rec_->epoch.store(e, pin_mo);
      // Validate: if the counter moved past our published pin, a
      // reclaimer may have scanned before seeing it — re-pin at the newer
      // epoch, from which every earlier unlink is visible.
      uint64_t g;
      while ((g = r.global_.load(pin_mo)) != e) {
        e = g;
        rec_->epoch.store(e, pin_mo);
      }
    }
    ~Guard() {
      if (rec_ != nullptr) {
        rec_->epoch.store(kIdle, wm::release);
      }
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    /// False when the registration table is full: the caller holds no pin
    /// and must not touch shared nodes outside its mutex.
    bool ok() const { return rec_ != nullptr; }

   private:
    Record* rec_;
  };

  /// Advances the global epoch and returns the stamp for a node unlinked
  /// *before* this call (program order).  Readers pinned below the stamp
  /// may still reach the node; readers at or above it cannot.
  uint64_t Stamp() {
    return global_.fetch_add(1, wm::seq_cst) + 1;
  }

  /// Smallest epoch any thread is currently pinned at (kIdle when all
  /// threads are idle).  A node stamped S is reusable iff MinActive() >= S.
  uint64_t MinActive() const {
    uint64_t min = kIdle;
    const size_t n = high_water_.load(wm::acquire);
    for (size_t i = 0; i < n; ++i) {
      uint64_t e = records_[i].epoch.load(wm::seq_cst);
      if (e < min) min = e;
    }
    return min;
  }

  bool SafeToReclaim(uint64_t stamp) const { return MinActive() >= stamp; }

 private:
  friend class Guard;

  /// Thread-exit hook: returns the record to the free pool.
  struct Registration {
    Record* rec = nullptr;
    ~Registration() {
      if (rec != nullptr) {
        rec->epoch.store(kIdle, wm::release);
        rec->used.store(false, wm::release);
      }
    }
  };

  Record* LocalRecord() {
    thread_local Registration reg;
    if (reg.rec != nullptr) return reg.rec;
    for (size_t i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (records_[i].used.compare_exchange_strong(
              expected, true, wm::acq_rel)) {
        // Grow the scan bound monotonically to the highest slot ever used.
        size_t hw = high_water_.load(wm::relaxed);
        while (hw < i + 1 && !high_water_.compare_exchange_weak(
                                 hw, i + 1, wm::acq_rel)) {
        }
        reg.rec = &records_[i];
        return reg.rec;
      }
    }
    return nullptr;
  }

  std::array<Record, kMaxThreads> records_{};
  wm::Atomic<uint64_t> global_{1};
  wm::Atomic<size_t> high_water_{0};
};

/// Process-wide reclaimer shared by every lock manager.  A single epoch
/// domain is conservative (one manager's pinned reader delays another
/// manager's reuse) but keeps thread registration trivial.
inline Reclaimer& Global() {
  static Reclaimer r;
  return r;
}

}  // namespace codlock::lock::ebr

#endif  // CODLOCK_LOCK_EBR_H_
