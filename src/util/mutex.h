/// \file mutex.h
/// \brief Capability-annotated mutex, scoped lock and condition variable.
///
/// `std::mutex` carries no thread-safety attributes in libstdc++, so Clang's
/// `-Wthread-safety` analysis cannot see through it.  These thin wrappers
/// make lock/unlock events visible to the analysis:
///
///  * `Mutex` — a `std::mutex` declared as a capability, whose `Lock`
///    spins briefly before it parks (below),
///  * `MutexLock` — `std::lock_guard` equivalent declared as a scoped
///    capability,
///  * `CondVar` — a `std::condition_variable` whose wait functions take the
///    annotated `Mutex` directly (the capability stays held across a wait,
///    exactly as the analysis expects).
///
/// Members protected by a `Mutex` are declared `CODLOCK_GUARDED_BY(mu_)`;
/// functions called with one held are declared `CODLOCK_REQUIRES(mu_)`.
///
/// **Why `Lock` spins.**  Most critical sections in the lock manager last
/// well under a microsecond (a holder-vector update, a registry stripe
/// insert), but a contended `std::mutex::lock` parks the caller in
/// `futex_wait` at once, and the wake-up costs microseconds on both
/// sides.  `Lock` therefore retries `try_lock` a bounded number of times,
/// relaxing the CPU between tries, and parks only when that fails.  The
/// bound is short on purpose: some mutexes are held across I/O
/// (`LongLockStore::io_mu_` across `fdatasync`), and a waiter behind one
/// wastes at most the spin.  See DESIGN.md §11(e) for the measurements.

#ifndef CODLOCK_UTIL_MUTEX_H_
#define CODLOCK_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <utility>

#include "util/det_hooks.h"
#include "util/thread_annotations.h"

namespace codlock {

/// Tells the CPU that the caller is in a spin-wait loop: `pause` on x86-64,
/// `yield` on AArch64, nothing elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield" ::: "memory");
#endif
}

/// \brief A standard mutex visible to Clang Thread Safety Analysis, whose
/// `Lock` spins for about a microsecond before it parks.
class CODLOCK_CAPABILITY("mutex") Mutex {
 public:
  /// Failed `try_lock` attempts before `Lock` parks.  One `CpuRelax` took
  /// about 22 ns and one failed `try_lock` plus relax about 30 ns on a
  /// 4-vCPU Xeon host, so the spin lasts about 1 µs.  On perfbench
  /// `disjoint_update` there (4 client threads, 5 s, 4 rounds) 16, 32 and
  /// 128 tries gave 336k, 358k and 353k ops/s.
  static constexpr int kSpinTries = 32;

  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CODLOCK_ACQUIRE() {
    for (int i = 0; i < kSpinTries; ++i) {
      if (mu_.try_lock()) return;
      CpuRelax();
    }
    mu_.lock();
  }
  void Unlock() CODLOCK_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII lock over a `Mutex` (the annotated `std::lock_guard`).
class CODLOCK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CODLOCK_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() CODLOCK_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable paired with `Mutex`.
///
/// Waits require the mutex to be held; the capability is considered held
/// across the wait (the underlying condition variable re-acquires it before
/// returning), so guarded state may be read in the predicate and after the
/// wait without further annotation ceremony.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() {
    if (BlockingObserver* obs = BlockingObserver::Get()) {
      obs->OnCondVarNotify(this);
    }
    cv_.notify_one();
  }
  void NotifyAll() {
    if (BlockingObserver* obs = BlockingObserver::Get()) {
      obs->OnCondVarNotify(this);
    }
    cv_.notify_all();
  }

  /// Blocks until \p pred holds or \p deadline passes; returns `pred()`.
  template <typename Clock, typename Duration, typename Predicate>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline,
                 Predicate pred) CODLOCK_REQUIRES(mu) {
    BlockingObserver* obs = BlockingObserver::Get();
    if (obs != nullptr && obs->ControlsCurrentThread()) {
      return WaitControlled(mu, *obs, pred, /*can_time_out=*/true);
    }
    // Adopt the already-held mutex for the duration of the wait; release()
    // afterwards so ownership stays with the caller's scoped lock.
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    bool result = cv_.wait_until(lk, deadline, std::move(pred));
    lk.release();
    return result;
  }

  /// Blocks until \p pred holds.
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) CODLOCK_REQUIRES(mu) {
    BlockingObserver* obs = BlockingObserver::Get();
    if (obs != nullptr && obs->ControlsCurrentThread()) {
      WaitControlled(mu, *obs, pred, /*can_time_out=*/false);
      return;
    }
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk, std::move(pred));
    lk.release();
  }

 private:
  /// Wait path for scheduler-controlled threads (model checking): park in
  /// the observer with the mutex released, re-check the predicate per
  /// wake-up.  A scheduler-injected timeout ends the wait like a deadline
  /// expiry would (the caller sees `pred()`, normally false).  Real time
  /// plays no role — interleavings stay deterministic.  The raw `mu.mu_`
  /// accesses are invisible to thread-safety analysis on purpose: as in
  /// the native branch, the capability is considered held across the wait.
  template <typename Predicate>
  bool WaitControlled(Mutex& mu, BlockingObserver& obs, Predicate& pred,
                      bool can_time_out) CODLOCK_NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) {
      mu.mu_.unlock();
      BlockingObserver::WakeKind wake = obs.OnCondVarBlock(this);
      mu.mu_.lock();
      if (can_time_out && wake == BlockingObserver::WakeKind::kTimeout) {
        return pred();
      }
    }
    return true;
  }

  std::condition_variable cv_;
};

}  // namespace codlock

#endif  // CODLOCK_UTIL_MUTEX_H_
