/// \file read_mostly_latch.h
/// \brief A reader-writer latch whose readers write only a line of their
/// own.
///
/// The store's structure latches and the rights table are read by every
/// transaction and written almost never.  A
/// `std::shared_mutex` read lock is two RMWs on the one line that holds
/// the lock word, and every core that reads writes that line, so readers
/// that share no data still queue for it (DESIGN.md §11(g)).
///
/// `ReadMostlyLatch` gives each thread one of `kSlots` counters, each on
/// its own 64-byte line.  The shared side increments the calling thread's
/// counter, then reads the writer flag; if the flag is down it is in.
/// The exclusive side takes a `Mutex` (one writer at a time), raises the
/// flag, then yields until every counter reads zero.  The increment, the
/// raising store and both loads are `seq_cst`: they form a Dekker pair,
/// so either the reader sees the flag and backs off, or the writer sees
/// the reader's count and waits for it.
///
/// A thread's slot is fixed at its first use of any latch.  More threads
/// than slots share counters, and so lines, but stay correct: a counter
/// is a count, not an owner.
///
/// **No reentry.**  The latch prefers writers: a reader that finds the
/// flag raised backs off until `Unlock`.  So a thread that already holds
/// a latch, shared or exclusive, must not take the same latch again: with
/// a writer waiting in between, each waits for the other.
///
/// The latch is a Clang capability: members it protects are declared
/// `CODLOCK_GUARDED_BY(latch)`, and `ReaderLock`/`WriterLock` are its
/// scoped guards.

#ifndef CODLOCK_UTIL_READ_MOSTLY_LATCH_H_
#define CODLOCK_UTIL_READ_MOSTLY_LATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace codlock {

/// \brief Reader-writer latch for data read by every transaction and
/// written rarely; prefers writers, not reentrant.
class CODLOCK_CAPABILITY("mutex") ReadMostlyLatch {
 public:
  /// Reader counters, one 64-byte line each.  Four client threads plus a
  /// main thread fit without sharing; a latch takes 1,088 bytes.
  static constexpr size_t kSlots = 16;

  ReadMostlyLatch() = default;
  ReadMostlyLatch(const ReadMostlyLatch&) = delete;
  ReadMostlyLatch& operator=(const ReadMostlyLatch&) = delete;

  void LockShared() CODLOCK_ACQUIRE_SHARED() {
    std::atomic<uint32_t>& readers = slots_[SlotOfThisThread()].readers;
    for (;;) {
      readers.fetch_add(1, std::memory_order_seq_cst);
      if (!writer_.load(std::memory_order_seq_cst)) return;
      // A writer is in or on its way: step aside so it can drain.
      readers.fetch_sub(1, std::memory_order_release);
      while (writer_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  }

  void UnlockShared() CODLOCK_RELEASE_SHARED() {
    // Releases the section's reads to the writer that sees the count fall.
    slots_[SlotOfThisThread()].readers.fetch_sub(1,
                                                 std::memory_order_release);
  }

  // The writer mutex is held from `Lock` to `Unlock`; the analysis sees
  // only the latch, so it does not follow `mu_` across the two.
  void Lock() CODLOCK_ACQUIRE() CODLOCK_NO_THREAD_SAFETY_ANALYSIS {
    mu_.Lock();
    writer_.store(true, std::memory_order_seq_cst);
    for (const Slot& s : slots_) {
      while (s.readers.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
    }
  }

  void Unlock() CODLOCK_RELEASE() CODLOCK_NO_THREAD_SAFETY_ANALYSIS {
    // Releases the section's writes to every reader that sees the flag
    // fall.
    writer_.store(false, std::memory_order_release);
    mu_.Unlock();
  }

 private:
  /// This thread's slot, assigned round-robin at its first call.
  static size_t SlotOfThisThread() {
    static std::atomic<uint32_t> next{0};
    thread_local const size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kSlots;
    return slot;
  }

  /// 64 bytes is the cache-line size of x86-64 and most AArch64 parts.
  struct alignas(64) Slot {
    std::atomic<uint32_t> readers{0};
  };

  /// Raised by the writer; readers only load it, so the line stays
  /// shared in every reader's cache until a writer comes.
  alignas(64) std::atomic<bool> writer_{false};
  /// Serializes writers.
  Mutex mu_;
  Slot slots_[kSlots];
};

/// \brief RAII shared hold of a `ReadMostlyLatch`.
class CODLOCK_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(ReadMostlyLatch& latch) CODLOCK_ACQUIRE_SHARED(latch)
      : latch_(latch) {
    latch_.LockShared();
  }
  ~ReaderLock() CODLOCK_RELEASE() { latch_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  ReadMostlyLatch& latch_;
};

/// \brief RAII exclusive hold of a `ReadMostlyLatch`.
class CODLOCK_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(ReadMostlyLatch& latch) CODLOCK_ACQUIRE(latch)
      : latch_(latch) {
    latch_.Lock();
  }
  ~WriterLock() CODLOCK_RELEASE() { latch_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  ReadMostlyLatch& latch_;
};

}  // namespace codlock

#endif  // CODLOCK_UTIL_READ_MOSTLY_LATCH_H_
