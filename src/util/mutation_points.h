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
///    epoch bump of a `TxnLocks` mode cache) is dropped.  Stale cached
///    answers survive EOT: caught by the cache-coherence oracle.
///  * `kSkipWaiterWakeup`    — a grant promotes the waiter but never
///    notifies it (lost wakeup).  The schedule wedges: caught by the
///    termination oracle.
///  * `kRingSkipReclaim`     — the dead-handle reclaim skips unconsumed
///    published frames (`kPublished` strands stay in the ring forever).
///    Caught by the ring frame-conservation oracle: at quiescence the
///    ledger no longer balances and `InFlight()` never reaches zero.

#ifndef CODLOCK_UTIL_MUTATION_POINTS_H_
#define CODLOCK_UTIL_MUTATION_POINTS_H_

#include <atomic>
#include <cstdint>
#include <string_view>

namespace codlock::mutation {

enum class Mutant : uint32_t {
  kCompatSX = 0,
  kSkipUpwardPropagation,
  kSkipDownwardPropagation,
  kDropCacheInvalidation,
  kSkipWaiterWakeup,
  kRingSkipReclaim,
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
    case Mutant::kRingSkipReclaim:
      return "ring.skip-reclaim";
    case Mutant::kNumMutants:
      break;
  }
  return "?";
}

}  // namespace codlock::mutation

#endif  // CODLOCK_UTIL_MUTATION_POINTS_H_
