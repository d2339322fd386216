/// Tests for `ReadMostlyLatch` (util/read_mostly_latch.h): readers and a
/// writer exclude each other, readers do not, and a thread count above
/// the latch's slot count changes neither.  Every test starts at most 20
/// threads; the suite runs under ThreadSanitizer in CI.

#include "util/read_mostly_latch.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace codlock {
namespace {

using std::chrono::milliseconds;

/// How long a test waits before it checks that a blocked thread is still
/// blocked.
constexpr milliseconds kBlockedFor{50};

/// Waits until \p pred holds; fails the test after 10 s instead of
/// hanging.
template <typename Pred>
void WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "wait timed out";
    std::this_thread::yield();
  }
}

/// A plain (non-atomic) structure that a writer rewrites field by field:
/// a reader inside the latch sees every field equal, or the latch let it
/// in while the writer was half done.
struct Guarded {
  ReadMostlyLatch latch;
  uint64_t head CODLOCK_GUARDED_BY(latch) = 0;
  std::array<uint64_t, 32> body CODLOCK_GUARDED_BY(latch) = {};
  uint64_t tail CODLOCK_GUARDED_BY(latch) = 0;

  void Rewrite() {
    WriterLock lk(latch);
    const uint64_t next = head + 1;
    head = next;
    for (uint64_t& x : body) x = next;
    tail = next;
  }

  /// True if every field holds the same generation.
  bool Consistent() {
    ReaderLock lk(latch);
    const uint64_t h = head;
    for (uint64_t x : body) {
      if (x != h) return false;
    }
    return tail == h;
  }

  uint64_t Generation() {
    ReaderLock lk(latch);
    return head;
  }
};

TEST(ReadMostlyLatchTest, ReadersNeverSeeAHalfWrittenState) {
  constexpr int kReaders = 4;
  constexpr int kRewrites = 2000;
  Guarded g;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (!g.Consistent()) torn.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < kRewrites; ++i) g.Rewrite();
    done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(g.Generation(), static_cast<uint64_t>(kRewrites));
  EXPECT_TRUE(g.Consistent());
}

TEST(ReadMostlyLatchTest, WriterWaitsForAReaderInsideAndEntersWhenItLeaves) {
  ReadMostlyLatch latch;
  std::atomic<bool> reader_in{false};
  std::atomic<bool> leave{false};
  std::atomic<bool> writer_in{false};
  std::thread reader([&] {
    ReaderLock lk(latch);
    reader_in.store(true);
    while (!leave.load()) std::this_thread::yield();
  });
  WaitFor([&] { return reader_in.load(); });
  std::thread writer([&] {
    WriterLock lk(latch);
    writer_in.store(true);
  });
  std::this_thread::sleep_for(kBlockedFor);
  EXPECT_FALSE(writer_in.load()) << "writer entered past a reader";
  leave.store(true);
  reader.join();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(ReadMostlyLatchTest, ReaderArrivingWhileTheWriterHoldsWaitsForUnlock) {
  ReadMostlyLatch latch;
  std::atomic<bool> reader_in{false};
  latch.Lock();
  std::thread reader([&] {
    ReaderLock lk(latch);
    reader_in.store(true);
  });
  std::this_thread::sleep_for(kBlockedFor);
  EXPECT_FALSE(reader_in.load()) << "reader entered past the writer";
  latch.Unlock();
  reader.join();
  EXPECT_TRUE(reader_in.load());
}

TEST(ReadMostlyLatchTest, MoreThreadsThanSlotsStillExcludeTheWriter) {
  // 19 readers and one writer: at least three slots carry two readers.
  constexpr int kReaders = 19;
  static_assert(kReaders > static_cast<int>(ReadMostlyLatch::kSlots));
  ReadMostlyLatch latch;
  std::atomic<int> inside{0};
  std::atomic<bool> leave{false};
  std::atomic<bool> writer_in{false};
  std::atomic<int> overlaps{0};

  // Every reader is inside at once, slot-sharers included; the writer
  // waits until the last one has left.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      ReaderLock lk(latch);
      inside.fetch_add(1);
      while (!leave.load()) std::this_thread::yield();
      if (writer_in.load()) overlaps.fetch_add(1);
      inside.fetch_sub(1);
    });
  }
  WaitFor([&] { return inside.load() == kReaders; });
  std::thread writer([&] {
    WriterLock lk(latch);
    writer_in.store(true);
    if (inside.load() != 0) overlaps.fetch_add(1);
    writer_in.store(false);
  });
  std::this_thread::sleep_for(kBlockedFor);
  EXPECT_FALSE(writer_in.load());
  leave.store(true);
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(overlaps.load(), 0);

  // The same thread count churning: readers and the writer never overlap.
  Guarded g;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  readers.clear();
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (!g.Consistent()) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread churn([&] {
    for (int i = 0; i < 500; ++i) g.Rewrite();
    done.store(true, std::memory_order_release);
  });
  churn.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(g.Generation(), 500u);
}

}  // namespace
}  // namespace codlock
