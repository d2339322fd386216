/// \file futex.h
/// \brief Process-shared futex-style wait/wake on 32-bit atomic words.
///
/// The shared-memory job ring (ws/shm_ring.h) parks waiters on its slot
/// state words and doorbell counters.  When the ring memory is a real
/// `shm_open` segment those words are visible to several *processes*, so
/// the wait primitive must be process-shared too.  Two backends sit
/// behind one API:
///
///  * `kInProcess` — an address-hashed table of annotated `Mutex`/`CondVar`
///    buckets.  This is the default for unit tests and the deterministic
///    scheduler: blocking goes through `CondVar::WaitUntil`, so Clang
///    thread-safety analysis, the model checker's `BlockingObserver` and
///    TSAN all see it exactly as before.
///  * `kSyscall` — `futex(2)` `FUTEX_WAIT`/`FUTEX_WAKE` on the word itself
///    (no `FUTEX_PRIVATE_FLAG`, so waits cross process boundaries).  Linux
///    only: elsewhere it fails with kFailedPrecondition, and a shared-memory
///    ring refuses to start (`SyscallSupported`).
///
/// Wait contract (both backends): block while `word == expected`, up to
/// `timeout_us`.  Returns OK when woken or when the value already differs
/// (the caller re-checks its predicate in a loop — spurious wakeups are
/// expected), `Status::Timeout` when the deadline passes, and an
/// errno-context Status on real syscall failure.  EINTR never surfaces:
/// the wait retries with the remaining time re-computed from the original
/// deadline (fault point `util.futex.wait` injects simulated EINTRs so the
/// retry loop is unit-testable).

#ifndef CODLOCK_UTIL_FUTEX_H_
#define CODLOCK_UTIL_FUTEX_H_

#include <atomic>
#include <cstdint>

#include "util/status.h"

namespace codlock::futex {

enum class Backend : uint8_t {
  kInProcess = 0,  ///< hashed Mutex/CondVar buckets (TSA/mc/TSAN visible)
  kSyscall,        ///< futex(2) without FUTEX_PRIVATE_FLAG (Linux)
};

/// Blocks while `word == expected` (process-shared with `kSyscall`).  See
/// the file comment for the full contract.
Status Wait(Backend backend, const std::atomic<uint32_t>& word,
            uint32_t expected, uint64_t timeout_us);

/// Wakes every waiter parked on `word`.  Never blocks (beyond the bucket
/// mutex hand-off of `kInProcess`).
Status WakeAll(Backend backend, const std::atomic<uint32_t>& word);

/// True when futex(2) is available on this build (Linux); `kSyscall`
/// fails without it.
bool SyscallSupported();

}  // namespace codlock::futex

#endif  // CODLOCK_UTIL_FUTEX_H_
