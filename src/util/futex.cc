#include "util/futex.h"

#include <cerrno>
#include <chrono>
#include <cstdint>

#include "fault/fault_injector.h"
#include "util/mutex.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace codlock::futex {

namespace {

// Simulated EINTR on a blocking futex wait: the wait must re-compute its
// remaining time from the original deadline and retry, never surface the
// interruption or bust the deadline.  Counter-triggered in tests.
fault::FaultPoint g_fault_futex_wait{"util.futex.wait",
                                     fault::FaultKind::kError};

// The 32-bit words we wait on are std::atomic<uint32_t> living in shared
// memory; the syscall needs them to be plain lock-free words.
static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "futex words must be address-free lock-free atomics");
static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
              "futex words must be bare 32-bit cells");

using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// kInProcess: hashed Mutex/CondVar buckets.  Wakers acquire the bucket
// mutex before notifying, which orders every wake after any in-progress
// predicate check — the same lost-wakeup discipline the ring used before
// the shim existed.  Blocking routes through CondVar::WaitUntil, so the
// deterministic scheduler and thread-safety analysis still see it.

struct Bucket {
  Mutex mu;
  CondVar cv;
};

constexpr size_t kNumBuckets = 64;

Bucket& BucketFor(const void* addr) {
  static Bucket buckets[kNumBuckets];
  auto h = reinterpret_cast<uintptr_t>(addr);
  h ^= h >> 17;
  h *= 0x9e3779b97f4a7c15ull;
  return buckets[(h >> 32) % kNumBuckets];
}

Status WaitInProcess(const std::atomic<uint32_t>& word, uint32_t expected,
                     SteadyClock::time_point deadline) {
  Bucket& b = BucketFor(&word);
  bool changed = false;
  {
    MutexLock lk(b.mu);
    changed = b.cv.WaitUntil(b.mu, deadline, [&] {
      return word.load(std::memory_order_acquire) != expected;
    });
  }
  if (changed) return Status::OK();
  return Status::Timeout("futex wait timed out");
}

void WakeInProcess(const std::atomic<uint32_t>& word) {
  Bucket& b = BucketFor(&word);
  { MutexLock lk(b.mu); }
  b.cv.NotifyAll();
}

// ---------------------------------------------------------------------
// kSyscall: futex(2), no FUTEX_PRIVATE_FLAG so the wait matches wakers in
// other processes mapping the same physical page.

#if defined(__linux__)

Status WaitSyscallOnce(const std::atomic<uint32_t>& word, uint32_t expected,
                       SteadyClock::duration remaining, bool* timed_out) {
  struct timespec ts;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(remaining).count();
  ts.tv_sec = ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  // std::atomic<uint32_t> is layout-compatible with its word
  // (static_asserted above); the kernel compares the value at the address.
  auto* uaddr = reinterpret_cast<const uint32_t*>(&word);
  long rc = syscall(SYS_futex, uaddr, FUTEX_WAIT, expected, &ts, nullptr, 0);
  if (rc == 0) return Status::OK();
  const int err = errno;
  switch (err) {
    case EAGAIN:  // value no longer == expected: that is a successful wait
      return Status::OK();
    case ETIMEDOUT:
      *timed_out = true;
      return Status::OK();
    case EINTR:  // caller loop re-computes remaining and retries
      return Status::OK();
    default:
      return ErrnoStatus("futex(FUTEX_WAIT)", err);
  }
}

Status WakeSyscall(const std::atomic<uint32_t>& word) {
  auto* uaddr = reinterpret_cast<const uint32_t*>(&word);
  long rc = syscall(SYS_futex, uaddr, FUTEX_WAKE, INT32_MAX, nullptr, nullptr,
                    0);
  if (rc < 0) return ErrnoStatus("futex(FUTEX_WAKE)", errno);
  return Status::OK();
}

#else

Status NoSyscall() {
  return Status::FailedPrecondition(
      "futex(2) is not available on this host (Linux only)");
}

#endif  // __linux__

}  // namespace

bool SyscallSupported() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

Status Wait(Backend backend, const std::atomic<uint32_t>& word,
            uint32_t expected, uint64_t timeout_us) {
  const auto deadline =
      SteadyClock::now() + std::chrono::microseconds(timeout_us);
  for (;;) {
    if (word.load(std::memory_order_acquire) != expected) return Status::OK();
    const auto now = SteadyClock::now();
    if (now >= deadline) return Status::Timeout("futex wait timed out");
    if (g_fault_futex_wait.Fire()) {
      // Simulated EINTR: fall through to the top of the loop, which
      // re-checks the word and the *original* deadline before blocking
      // again with the re-computed remaining time.
      continue;
    }
    switch (backend) {
      case Backend::kInProcess:
        return WaitInProcess(word, expected, deadline);
      case Backend::kSyscall: {
#if defined(__linux__)
        bool timed_out = false;
        CODLOCK_RETURN_IF_ERROR(
            WaitSyscallOnce(word, expected, deadline - now, &timed_out));
        if (timed_out) return Status::Timeout("futex wait timed out");
        // Woken, value changed, EINTR or spurious: loop re-checks both
        // the word and the deadline.
        continue;
#else
        return NoSyscall();
#endif
      }
    }
    return Status::Internal("unknown futex backend");
  }
}

Status WakeAll(Backend backend, const std::atomic<uint32_t>& word) {
  switch (backend) {
    case Backend::kInProcess:
      WakeInProcess(word);
      return Status::OK();
    case Backend::kSyscall:
#if defined(__linux__)
      return WakeSyscall(word);
#else
      return NoSyscall();
#endif
  }
  return Status::Internal("unknown futex backend");
}

}  // namespace codlock::futex
