/// \file wm_order.h
/// \brief Memory-order spellings shared by the `wm::Atomic` shim and the
/// weak-memory checker.
///
/// The atomics-discipline lint (`tools/check_atomics.py`) forbids the raw
/// tokens `std::atomic` and `std::memory_order` everywhere under
/// `src/lock/` and `src/wm/`: every atomic access there must flow through
/// `wm::Atomic` (src/util/wm_atomic.h) so that one greppable vocabulary
/// covers them all and the `CODLOCK_WMC`
/// model build can interpose on it.  These aliases are that vocabulary —
/// `wm::acquire` instead of `std::memory_order_acquire` — and live in
/// their own header because both faces of the shim (the passthrough and
/// the model `Atomic`) need them without including each other.
///
/// The lint's JSON inventory keys off these spellings: keep them the only
/// way orders are written in converted code.

#ifndef CODLOCK_UTIL_WM_ORDER_H_
#define CODLOCK_UTIL_WM_ORDER_H_

#include <atomic>

namespace codlock::wm {

/// The C++ memory-order type under the shim's name, so checker internals
/// can store and pass orders without spelling the std token.
using MemoryOrder = std::memory_order;

inline constexpr MemoryOrder relaxed = std::memory_order_relaxed;
inline constexpr MemoryOrder acquire = std::memory_order_acquire;
inline constexpr MemoryOrder release = std::memory_order_release;
inline constexpr MemoryOrder acq_rel = std::memory_order_acq_rel;
inline constexpr MemoryOrder seq_cst = std::memory_order_seq_cst;

constexpr const char* MemoryOrderName(MemoryOrder mo) {
  switch (mo) {
    case std::memory_order_relaxed:
      return "relaxed";
    case std::memory_order_consume:
      return "consume";
    case std::memory_order_acquire:
      return "acquire";
    case std::memory_order_release:
      return "release";
    case std::memory_order_acq_rel:
      return "acq_rel";
    case std::memory_order_seq_cst:
      return "seq_cst";
  }
  return "?";
}

/// True when \p mo gives a load acquire semantics.
constexpr bool IsAcquire(MemoryOrder mo) {
  return mo == acquire || mo == acq_rel || mo == seq_cst;
}

/// True when \p mo gives a store release semantics.
constexpr bool IsRelease(MemoryOrder mo) {
  return mo == release || mo == acq_rel || mo == seq_cst;
}

constexpr bool IsSeqCst(MemoryOrder mo) { return mo == seq_cst; }

}  // namespace codlock::wm

#endif  // CODLOCK_UTIL_WM_ORDER_H_
