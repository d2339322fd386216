/// \file mutation_points.h
/// \brief Seeded protocol mutants for the model checker's kill-suite.
///
/// A checker is only as good as the bugs it can catch.  The mutation
/// harness (`tests/mc_mutation_test.cc`, `codlock_mc --kill-suite`) flips
/// one protocol invariant at a time at runtime and asserts that at least
/// one oracle flags the resulting executions.  Each `Mutant` below is a
/// guarded branch compiled into the production code path; with the mask at
/// zero (always, outside the kill-suite) the cost is one relaxed atomic
/// load on paths that are not hot, and the branches are trivially dead.
///
/// The mutants target exactly the invariants the oracles claim to check:
///
///  * `kCompatSX`            — treats S and X as compatible (one flipped
///    cell of the §3 matrix).  Must be caught by the compatibility-
///    soundness oracle (two conflicting grants coexist on one resource).
///  * `kSkipUpwardPropagation` — an entry-point lock skips the implicit
///    superunit chain (§4.4.2 rules 1/2).  A relation-level writer no
///    longer sees the inner unit's use: caught by the implicit-lock
///    visibility oracle.
///  * `kSkipDownwardPropagation` — S/X grants skip locking reachable entry
///    points (§4.4.2 rules 3/4).  A from-the-side writer of shared data
///    races an outer-unit holder: caught by the visibility oracle.
///  * `kDropCacheInvalidation` — cross-thread cache invalidation (the
///    epoch bump of a `TxnLocks` mode cache) is dropped.  Stale fast-path answers
///    survive EOT: caught by the cache-coherence oracle.
///  * `kSkipWaiterWakeup`    — a grant promotes the waiter but never
///    notifies it (lost wakeup).  The schedule wedges: caught by the
///    termination oracle.
///  * `kFastpathSkipValidation` — the optimistic compatible-mode fast path
///    grants without checking the entry's seqlock grant summary (neither
///    the premise nor the post-claim revalidation).  An S/IS slips in over
///    an exclusive holder: caught by the compatibility-soundness oracle.
///  * `kRingSkipReclaim`     — the dead-handle reclaim skips unconsumed
///    published frames (`kPublished` strands stay in the ring forever).
///    Caught by the ring frame-conservation oracle: at quiescence the
///    ledger no longer balances and `InFlight()` never reaches zero.
///
/// The `kWm*` mutants below are *order-weakening* mutants: instead of
/// flipping a protocol decision they downgrade one specific atomic
/// access's memory order to `relaxed` (through `WeakenedOrder`, used at
/// the real call site in src/lock *and* in the distilled litmus kernel of
/// src/wm/litmus.cc).  They are invisible to `codlock_mc` — its scheduler
/// interleaves under sequential consistency — and must be killed by the
/// weak-memory checker (`codlock_wmc --kill-suite`) instead:
///
///  * `kWmSummaryLoadRelaxed` — the fast path's seqlock summary loads
///    (premise and revalidation in `TryFastpathAcquire`) go relaxed.  A
///    reader may then validate against a stale even sequence and grant S
///    over a concurrently installed X holder.
///  * `kWmSlotCasRelaxed`     — the fast-path slot claim CAS goes relaxed.
///    The Dekker-style "either they see our claim or we see their bump"
///    argument needs the claim in the seq_cst total order; relaxed, a
///    mutex-side scan may read a stale empty slot after the claim.
///  * `kWmEbrEpochRelaxed`    — the EBR guard's pin/validate accesses go
///    relaxed.  A reclaimer's scan may miss a published pin and reuse a
///    node a pinned reader still dereferences.

#ifndef CODLOCK_UTIL_MUTATION_POINTS_H_
#define CODLOCK_UTIL_MUTATION_POINTS_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "util/wm_order.h"

namespace codlock::mutation {

enum class Mutant : uint32_t {
  kCompatSX = 0,
  kSkipUpwardPropagation,
  kSkipDownwardPropagation,
  kDropCacheInvalidation,
  kSkipWaiterWakeup,
  kFastpathSkipValidation,
  kRingSkipReclaim,
  kWmSummaryLoadRelaxed,
  kWmSlotCasRelaxed,
  kWmEbrEpochRelaxed,
  kNumMutants,
};

inline constexpr size_t kNumMutants =
    static_cast<size_t>(Mutant::kNumMutants);

namespace internal {
inline std::atomic<uint32_t> mask{0};
}  // namespace internal

inline bool Enabled(Mutant m) {
  return (internal::mask.load(std::memory_order_relaxed) &
          (uint32_t{1} << static_cast<uint32_t>(m))) != 0;
}

inline void Enable(Mutant m) {
  internal::mask.fetch_or(uint32_t{1} << static_cast<uint32_t>(m),
                          std::memory_order_relaxed);
}

inline void Disable(Mutant m) {
  internal::mask.fetch_and(~(uint32_t{1} << static_cast<uint32_t>(m)),
                           std::memory_order_relaxed);
}

inline void DisableAll() {
  internal::mask.store(0, std::memory_order_relaxed);
}

/// RAII enabler so a throwing test can never leak a mutant into later
/// tests or production assertions.
class ScopedMutant {
 public:
  explicit ScopedMutant(Mutant m) : m_(m) { Enable(m_); }
  ~ScopedMutant() { Disable(m_); }
  ScopedMutant(const ScopedMutant&) = delete;
  ScopedMutant& operator=(const ScopedMutant&) = delete;

 private:
  Mutant m_;
};

/// Memory order actually used at an order-weakening mutation site: the
/// declared \p strong order normally, `relaxed` while mutant \p m is
/// enabled.  Used at the real access in src/lock and at the same access in
/// the distilled litmus kernel, so `codlock_wmc --kill-suite` exercises
/// exactly the production toggle.  Cost with the mask at zero: one relaxed
/// atomic load, same as every other mutation point.
inline wm::MemoryOrder WeakenedOrder(Mutant m, wm::MemoryOrder strong) {
  return Enabled(m) ? wm::relaxed : strong;
}

/// The order-weakening mutants, i.e. the slice of the kill-suite owned by
/// the weak-memory checker rather than `codlock_mc`.
inline bool IsOrderWeakening(Mutant m) {
  switch (m) {
    case Mutant::kWmSummaryLoadRelaxed:
    case Mutant::kWmSlotCasRelaxed:
    case Mutant::kWmEbrEpochRelaxed:
      return true;
    default:
      return false;
  }
}

inline std::string_view MutantName(Mutant m) {
  switch (m) {
    case Mutant::kCompatSX:
      return "compat-sx";
    case Mutant::kSkipUpwardPropagation:
      return "skip-upward-propagation";
    case Mutant::kSkipDownwardPropagation:
      return "skip-downward-propagation";
    case Mutant::kDropCacheInvalidation:
      return "drop-cache-invalidation";
    case Mutant::kSkipWaiterWakeup:
      return "skip-waiter-wakeup";
    case Mutant::kFastpathSkipValidation:
      return "fastpath.skip-validation";
    case Mutant::kRingSkipReclaim:
      return "ring.skip-reclaim";
    case Mutant::kWmSummaryLoadRelaxed:
      return "wm.summary-load-relaxed";
    case Mutant::kWmSlotCasRelaxed:
      return "wm.slot-cas-relaxed";
    case Mutant::kWmEbrEpochRelaxed:
      return "wm.ebr-epoch-relaxed";
    case Mutant::kNumMutants:
      break;
  }
  return "?";
}

}  // namespace codlock::mutation

#endif  // CODLOCK_UTIL_MUTATION_POINTS_H_
