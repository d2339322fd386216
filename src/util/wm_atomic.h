/// \file wm_atomic.h
/// \brief `wm::Atomic<T>` — the only way src/lock and src/wm spell an
/// atomic.
///
/// Normal builds: a zero-cost passthrough to the underlying C++ atomic,
/// same layout, same codegen (every member is a one-line forwarder the
/// compiler inlines; see the shim-cost benchmark recapture in
/// EXPERIMENTS.md).  Under `CODLOCK_WMC` the name instead resolves to the
/// weak-memory checker's `ModelAtomic<T>` (src/wm/model_atomic.h), which
/// records every access — location, order, value — into the exploration
/// runtime so `codlock_wmc` can enumerate the consistent executions of a
/// litmus harness.
///
/// Two deliberate deviations from the std API:
///
///  * Every access takes an explicit `wm::MemoryOrder` — there are no
///    seq_cst defaults.  The orders on this surface are load-bearing and
///    reviewed (DESIGN.md §12); an accidental default is exactly the bug
///    class the checker exists for.
///  * The model-build face is a *differently named* class aliased in, not
///    a second definition of `wm::Atomic`.  Production libraries are only
///    ever compiled with the passthrough, checker targets only with the
///    model, and the distinct mangled names make it an error — not a
///    silent ODR fold — to link the two worlds together.
///
/// `wm::Var<T>` is the companion wrapper for *non-atomic* fields that a
/// litmus harness wants race-checked: a plain variable in normal builds,
/// a vector-clock-instrumented location under `CODLOCK_WMC`.
///
/// The atomics-discipline lint (`tools/check_atomics.py`) forbids raw
/// `std::atomic` / `std::memory_order` tokens under src/lock/ and src/wm/;
/// this header and util/wm_order.h are the sanctioned vocabulary.

#ifndef CODLOCK_UTIL_WM_ATOMIC_H_
#define CODLOCK_UTIL_WM_ATOMIC_H_

#ifdef CODLOCK_WMC

#include "wm/model_atomic.h"

namespace codlock::wm {
template <typename T>
using Atomic = ModelAtomic<T>;
template <typename T>
using Var = ModelVar<T>;
}  // namespace codlock::wm

#else  // !CODLOCK_WMC — the zero-cost passthrough.

#include <atomic>

#include "util/wm_order.h"

namespace codlock::wm {

template <typename T>
class Atomic {
 public:
  constexpr Atomic() noexcept = default;
  constexpr Atomic(T v) noexcept : a_(v) {}  // NOLINT(runtime/explicit)
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(MemoryOrder mo) const noexcept { return a_.load(mo); }
  void store(T v, MemoryOrder mo) noexcept { a_.store(v, mo); }

  T exchange(T v, MemoryOrder mo) noexcept { return a_.exchange(v, mo); }

  bool compare_exchange_strong(T& expected, T desired,
                               MemoryOrder mo) noexcept {
    return a_.compare_exchange_strong(expected, desired, mo);
  }
  bool compare_exchange_strong(T& expected, T desired, MemoryOrder success,
                               MemoryOrder failure) noexcept {
    return a_.compare_exchange_strong(expected, desired, success, failure);
  }
  bool compare_exchange_weak(T& expected, T desired,
                             MemoryOrder mo) noexcept {
    return a_.compare_exchange_weak(expected, desired, mo);
  }
  bool compare_exchange_weak(T& expected, T desired, MemoryOrder success,
                             MemoryOrder failure) noexcept {
    return a_.compare_exchange_weak(expected, desired, success, failure);
  }

  // Arithmetic/bitwise RMWs.  Deliberately take and return T, never a
  // deduced type: `fetch_add(1, ...)` on an Atomic<uint64_t> must not
  // deduce int and truncate the returned value (class-template members
  // are instantiated lazily, so Atomic<bool> etc. stay valid as long as
  // these are never called).
  T fetch_add(T v, MemoryOrder mo) noexcept { return a_.fetch_add(v, mo); }
  T fetch_sub(T v, MemoryOrder mo) noexcept { return a_.fetch_sub(v, mo); }
  T fetch_or(T v, MemoryOrder mo) noexcept { return a_.fetch_or(v, mo); }
  T fetch_and(T v, MemoryOrder mo) noexcept { return a_.fetch_and(v, mo); }

 private:
  std::atomic<T> a_;
};

/// Plain (non-atomic) location that the model build instruments for data
/// races.  In normal builds it is exactly a `T`.
template <typename T>
class Var {
 public:
  constexpr Var() noexcept = default;
  constexpr Var(T v) noexcept : v_(v) {}  // NOLINT(runtime/explicit)

  T Get() const noexcept { return v_; }
  void Set(T v) noexcept { v_ = v; }

 private:
  T v_{};
};

}  // namespace codlock::wm

#endif  // CODLOCK_WMC

#endif  // CODLOCK_UTIL_WM_ATOMIC_H_
