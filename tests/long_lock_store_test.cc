/// Tests for the crash-consistent `LongLockStore`: a snapshot plus an
/// append-only log of CRC-framed records written over a zero tail, salvage
/// of a truncation and of a tear in place at every byte offset, corruption
/// recovery, Status propagation from Append/Save/LoadFromFile, and the
/// store fault points on the append path (write-frame, sync) and on the
/// compaction path (open-temp, write-frame, sync, rename, after-rename).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault_injector.h"
#include "lock/lock_manager.h"
#include "lock/long_lock_store.h"

namespace codlock::lock {
namespace {

AcquireOptions LongOpts() {
  AcquireOptions o;
  o.duration = LockDuration::kLong;
  return o;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// True when every byte of \p bytes from \p from on is zero.
bool ZeroFrom(const std::string& bytes, size_t from) {
  return bytes.find_first_not_of('\0', from) == std::string::npos;
}

/// Where the intact log of the store file at \p path ends.
size_t IntactEnd(const std::string& path) {
  LongLockStore probe;
  EXPECT_TRUE(probe.LoadFromFile(path).ok()) << path;
  EXPECT_FALSE(probe.last_load().salvaged) << path;
  return probe.last_load().intact_bytes;
}

/// A store's content, comparable across stores: sorted records + epochs.
using RecordKey = std::tuple<TxnId, uint32_t, uint64_t, int>;
struct State {
  std::vector<RecordKey> records;
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> epochs;
  bool operator==(const State& o) const {
    return records == o.records && epochs == o.epochs;
  }
};

State StateOf(const LongLockStore& store) {
  State s;
  for (const LongLockRecord& r : store.records()) {
    s.records.emplace_back(r.txn, r.resource.node, r.resource.instance,
                           static_cast<int>(r.mode));
  }
  std::sort(s.records.begin(), s.records.end());
  for (const FenceEpochRecord& e : store.FenceEpochs()) {
    s.epochs[{e.root.node, e.root.instance}] = e.epoch;
  }
  return s;
}

class LongLockStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("codlock_store_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "locks.bin").string();
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  /// Builds a [snapshot][frame][frame][frame] store file, generations 1-4:
  ///   1 snapshot  txn 1 holds X on (1,1) and S on (2,7)
  ///   2 frame     txn 2 takes IX on (3,9)
  ///   3 frame     txn 1 is reclaimed: its set dropped, (1,1) fenced
  ///   4 frame     txn 3 takes X on (1,1)
  /// Records the state after each generation in `states_` and the end of
  /// the intact log after each in `ends_`; returns the file's bytes.  The
  /// snapshot brings one chunk of zeros, and every frame overwrites them:
  /// the file keeps that length, and is zero past the intact end.
  std::string SeedLog() {
    LockManager lm;
    LongLockStore store;
    store.SetBackingFile(path_);
    auto done = [&] {
      states_.push_back(StateOf(store));
      ends_.push_back(IntactEnd(path_));
      const std::string image = ReadFile(path_);
      EXPECT_EQ(image.size(), ends_[1] + LongLockStore::kZeroChunkBytes);
      EXPECT_TRUE(ZeroFrom(image, ends_.back()));
    };
    states_ = {State{}};
    ends_ = {0};
    EXPECT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
    EXPECT_TRUE(lm.Acquire(1, {2, 7}, LockMode::kS, LongOpts()).ok());
    EXPECT_TRUE(store.Save(lm).ok());
    done();
    EXPECT_TRUE(lm.Acquire(2, {3, 9}, LockMode::kIX, LongOpts()).ok());
    EXPECT_TRUE(store.Append(2, lm).ok());
    done();
    EXPECT_EQ(store.BumpFenceEpoch({1, 1}), 1u);
    lm.ReleaseAll(1);
    EXPECT_TRUE(store.Append(1, lm).ok());
    done();
    EXPECT_TRUE(lm.Acquire(3, {1, 1}, LockMode::kX, LongOpts()).ok());
    EXPECT_TRUE(store.Append(3, lm).ok());
    done();
    EXPECT_EQ(store.generation(), 4u);
    return ReadFile(path_);
  }

  std::filesystem::path dir_;
  std::string path_;
  std::vector<State> states_;  ///< state after generation i
  std::vector<size_t> ends_;   ///< intact end after generation i
};

TEST_F(LongLockStoreTest, RoundTripThroughFile) {
  SeedLog();

  LongLockStore loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path_).ok());
  EXPECT_EQ(loaded.generation(), 4u);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(StateOf(loaded) == states_[4]);
  EXPECT_FALSE(loaded.last_load().salvaged);
  EXPECT_EQ(loaded.last_load().discarded_bytes, 0u);
  EXPECT_EQ(loaded.FenceEpochOf({1, 1}), 1u);

  LockManager fresh;
  ASSERT_TRUE(loaded.Restore(&fresh).ok());
  EXPECT_EQ(fresh.HeldMode(1, {1, 1}), LockMode::kNL);
  EXPECT_EQ(fresh.HeldMode(1, {2, 7}), LockMode::kNL);
  EXPECT_EQ(fresh.HeldMode(2, {3, 9}), LockMode::kIX);
  EXPECT_EQ(fresh.HeldMode(3, {1, 1}), LockMode::kX);
}

TEST_F(LongLockStoreTest, MissingFileIsNotFound) {
  LongLockStore store;
  EXPECT_TRUE(store.LoadFromFile(path_).IsNotFound());
}

/// Cuts the seeded image at every offset of its intact log and at a few
/// offsets of its zero tail, and loads each cut.  A truncation drops the
/// bytes past the cut (the size change was lost); a tear in place zeroes
/// them and keeps the file's length (the frame was torn within the tail).
/// Either way the load must recover exactly the longest intact prefix of
/// writes, and may call itself clean only when the rest is zero.
void SweepCuts(const std::string& image, const std::vector<size_t>& ends,
               const std::vector<State>& states, const std::string& cut,
               bool in_place) {
  const size_t log_end = ends.back();
  std::vector<size_t> lens;
  for (size_t len = 0; len <= log_end; ++len) lens.push_back(len);
  for (size_t len : {log_end + 1, log_end + 7, log_end + 4096,
                     image.size() - 1, image.size()}) {
    lens.push_back(len);
  }
  std::vector<size_t> recovered(ends.size(), 0);
  for (size_t len : lens) {
    std::string bytes = image.substr(0, len);
    if (in_place) bytes.resize(image.size(), '\0');
    WriteFile(cut, bytes);
    LongLockStore probe;
    Status s = probe.LoadFromFile(cut);
    ASSERT_TRUE(s.ok()) << "offset " << len << ": " << s.ToString();
    // Exactly the longest intact prefix of writes: every block that ends
    // within the cut, nothing of the torn one.
    const size_t want = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), len) - ends.begin() - 1);
    ASSERT_EQ(probe.generation(), want) << "offset " << len;
    EXPECT_TRUE(StateOf(probe) == states[want]) << "offset " << len;
    const LongLockStore::LoadReport report = probe.last_load();
    EXPECT_EQ(report.intact_bytes, ends[want]) << "offset " << len;
    EXPECT_EQ(report.salvaged, !ZeroFrom(bytes, ends[want]))
        << "offset " << len;
    EXPECT_EQ(report.discarded_bytes,
              report.salvaged ? bytes.size() - ends[want] : 0)
        << "offset " << len;
    if (len <= log_end) {
      // Within the log every cut short of a block's end leaves part of
      // that block, which starts with its magic.
      EXPECT_EQ(report.salvaged, len != ends[want]) << "offset " << len;
      ++recovered[want];
    } else {
      EXPECT_FALSE(report.salvaged) << "offset " << len;
    }
  }
  // Every generation is the recovered one for some cut of the log; the
  // whole log is the only one that recovers the last.
  for (size_t g = 0; g < recovered.size(); ++g) {
    EXPECT_GT(recovered[g], 0u) << "generation " << g;
  }
  EXPECT_EQ(recovered.back(), 1u);
}

TEST_F(LongLockStoreTest, TruncationAtEveryOffsetNeverFailsLoad) {
  const std::string image = SeedLog();
  ASSERT_TRUE(ZeroFrom(image, ends_.back()));
  SweepCuts(image, ends_, states_, (dir_ / "cut.bin").string(), false);
}

TEST_F(LongLockStoreTest, TearInPlaceAtEveryOffsetNeverFailsLoad) {
  const std::string image = SeedLog();
  ASSERT_TRUE(ZeroFrom(image, ends_.back()));
  SweepCuts(image, ends_, states_, (dir_ / "torn.bin").string(), true);
}

TEST_F(LongLockStoreTest, CorruptedNewestBlockSalvagesPrevious) {
  std::string image = SeedLog();
  // Flip a byte in the last (generation 4) frame; the zero tail follows.
  ASSERT_GE(ends_[4] - 10, ends_[3]);
  ASSERT_TRUE(ZeroFrom(image, ends_[4]));
  image[ends_[4] - 10] ^= 0x5A;
  WriteFile(path_, image);

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 3u);
  EXPECT_TRUE(StateOf(probe) == states_[3]);
  EXPECT_TRUE(probe.last_load().salvaged);
  EXPECT_EQ(probe.last_load().intact_bytes, ends_[3]);
  // The corrupt frame and the tail behind it.
  EXPECT_EQ(probe.last_load().discarded_bytes,
            (ends_[4] - ends_[3]) + (image.size() - ends_[4]));
}

TEST_F(LongLockStoreTest, CorruptedMiddleFrameEndsTheLog) {
  std::string image = SeedLog();
  // A flipped byte in frame 2 also discards the intact frames after it:
  // they were written on top of a state the load never reached.
  ASSERT_TRUE(ZeroFrom(image, ends_[4]));
  image[ends_[1] + 3] ^= 0x01;
  WriteFile(path_, image);

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 1u);
  EXPECT_TRUE(StateOf(probe) == states_[1]);
  EXPECT_EQ(probe.last_load().intact_bytes, ends_[1]);
  EXPECT_EQ(probe.last_load().discarded_bytes, image.size() - ends_[1]);
}

TEST_F(LongLockStoreTest, GarbageFileRecoversEmptyGenerationZero) {
  WriteFile(path_, "this is not a lock store at all, not even close");
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 0u);
  EXPECT_EQ(probe.size(), 0u);
  EXPECT_TRUE(probe.last_load().salvaged);
}

TEST_F(LongLockStoreTest, SaveWithoutBackingFileStaysInMemory) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  LongLockStore store;
  ASSERT_TRUE(store.Save(lm).ok());
  EXPECT_EQ(store.generation(), 1u);
  ASSERT_TRUE(lm.Acquire(2, {2, 2}, LockMode::kS, LongOpts()).ok());
  ASSERT_TRUE(store.Append(2, lm).ok());
  lm.ReleaseAll(1);
  ASSERT_TRUE(store.Append(1, lm).ok());
  EXPECT_EQ(store.generation(), 3u);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.records()[0].txn, 2u);
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(LongLockStoreTest, GenerationsContinueAcrossLoad) {
  const std::string image = SeedLog();

  LockManager lm;
  ASSERT_TRUE(lm.Acquire(5, {4, 4}, LockMode::kX, LongOpts()).ok());
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(store.LoadFromFile(path_).ok());
  // A clean image with a zero tail reloads unsalvaged...
  EXPECT_FALSE(store.last_load().salvaged);
  EXPECT_EQ(store.last_load().discarded_bytes, 0u);
  EXPECT_EQ(store.last_load().intact_bytes, ends_[4]);
  fault::FaultSpec never;
  never.trigger = fault::Trigger::Nth(1u << 30);
  fault::ScopedFault snapshots("store/open-temp", never);
  ASSERT_TRUE(store.Append(5, lm).ok());
  EXPECT_EQ(store.generation(), 5u);
  // ...and is appended to, not rewritten: the frame lands at the intact
  // end, over the tail, and the file keeps its length.
  EXPECT_EQ(fault::FindPoint("store/open-temp")->hits(), 0u);
  const std::string after = ReadFile(path_);
  EXPECT_EQ(after.size(), image.size());
  EXPECT_EQ(after.substr(0, ends_[4]), image.substr(0, ends_[4]));

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 5u);
  EXPECT_EQ(probe.size(), 3u);
  EXPECT_FALSE(probe.last_load().salvaged);
  // Header 28 + one lock 13 + CRC 4; zeros after it.
  EXPECT_EQ(probe.last_load().intact_bytes, ends_[4] + 45);
  EXPECT_TRUE(ZeroFrom(after, ends_[4] + 45));
}

TEST_F(LongLockStoreTest, AppendCostsOneFrameWhateverTheTableSize) {
  // A large live set: the append writes the transaction's frame only.
  LockManager lm;
  for (uint64_t i = 1; i <= 1000; ++i) {
    ASSERT_TRUE(lm.Acquire(i, {7, i}, LockMode::kX, LongOpts()).ok());
  }
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(store.Save(lm).ok());
  const std::string snapshot = ReadFile(path_);
  const size_t intact = IntactEnd(path_);

  fault::FaultSpec never;
  never.trigger = fault::Trigger::Nth(1u << 30);
  fault::ScopedFault syncs("store/sync", never);
  fault::ScopedFault snapshots("store/open-temp", never);
  ASSERT_TRUE(lm.Acquire(5000, {8, 1}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(lm.Acquire(5000, {8, 2}, LockMode::kIX, LongOpts()).ok());
  ASSERT_TRUE(store.Append(5000, lm).ok());
  lm.ReleaseAll(5000);
  ASSERT_TRUE(store.Append(5000, lm).ok());
  EXPECT_EQ(fault::FindPoint("store/sync")->hits(), 2u);  // one per append
  EXPECT_EQ(fault::FindPoint("store/open-temp")->hits(), 0u);
  // Header 28 + CRC 4, 13 bytes per lock: 58 + 32 bytes of log, written
  // over the zero tail, so the file keeps its length.
  const std::string after = ReadFile(path_);
  EXPECT_EQ(IntactEnd(path_), intact + 58 + 32);
  EXPECT_EQ(after.size(), snapshot.size());
  EXPECT_EQ(after.substr(0, intact), snapshot.substr(0, intact));
  EXPECT_TRUE(ZeroFrom(after, intact + 58 + 32));
}

TEST_F(LongLockStoreTest, FramesPastTheZerosWriteTheNextChunk) {
  // A live set large enough that the log outgrows the snapshot's chunk of
  // zeros before it compacts (4 x 21 KiB of snapshot > 64 KiB).
  LockManager lm;
  for (uint64_t i = 1; i <= 1000; ++i) {
    ASSERT_TRUE(lm.Acquire(i, {7, i}, LockMode::kX, LongOpts()).ok());
  }
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(store.Save(lm).ok());
  const size_t first = ReadFile(path_).size();
  ASSERT_EQ(first, IntactEnd(path_) + LongLockStore::kZeroChunkBytes);

  fault::FaultSpec never;
  never.trigger = fault::Trigger::Nth(1u << 30);
  fault::ScopedFault syncs("store/sync", never);
  fault::ScopedFault snapshots("store/open-temp", never);
  // 1800 frames of 32-45 bytes: about 68 KiB of log.
  for (uint64_t i = 0; i < 1800; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(lm.Acquire(5000, {8, i}, LockMode::kX, LongOpts()).ok());
    } else {
      lm.ReleaseAll(5000);
    }
    ASSERT_TRUE(store.Append(5000, lm).ok());
  }
  EXPECT_EQ(fault::FindPoint("store/sync")->hits(), 1800u);
  EXPECT_EQ(fault::FindPoint("store/open-temp")->hits(), 0u);
  // The log ran past the first chunk once; that frame wrote the next one
  // beyond its end, and the frames after it overwrote its zeros.
  const std::string image = ReadFile(path_);
  const size_t intact = IntactEnd(path_);
  EXPECT_GT(intact, first);
  EXPECT_GT(image.size(), intact);
  EXPECT_LT(image.size(), intact + LongLockStore::kZeroChunkBytes);
  EXPECT_TRUE(ZeroFrom(image, intact));
}

TEST_F(LongLockStoreTest, LogCompactsPastItsBound) {
  LockManager lm;
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(store.Append(1, lm).ok());
  // The first write to a new file is its snapshot.
  size_t largest = IntactEnd(path_);
  size_t largest_file = ReadFile(path_).size();
  fault::FaultSpec never;
  never.trigger = fault::Trigger::Nth(1u << 30);
  fault::ScopedFault snapshots("store/open-temp", never);
  for (uint64_t i = 0; i < 4000; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(lm.Acquire(2, {2, i}, LockMode::kS, LongOpts()).ok());
    } else {
      lm.ReleaseAll(2);
    }
    ASSERT_TRUE(store.Append(2, lm).ok());
    largest = std::max(largest, IntactEnd(path_));
    largest_file = std::max<size_t>(largest_file,
                                    std::filesystem::file_size(path_));
  }
  // 4000 frames of 32-45 bytes pass the 64 KiB floor: the log compacted,
  // and never grew far past the bound; the file holds at most one more
  // chunk of zeros.
  EXPECT_GT(fault::FindPoint("store/open-temp")->hits(), 0u);
  EXPECT_LT(largest, LongLockStore::kCompactMinBytes + 1024);
  EXPECT_LT(largest_file, LongLockStore::kCompactMinBytes + 1024 +
                              LongLockStore::kZeroChunkBytes);
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 4001u);
  EXPECT_TRUE(StateOf(probe) == StateOf(store));
}

TEST_F(LongLockStoreTest, FenceEpochsPersistAcrossSaveAndLoad) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());

  LongLockStore store;
  store.SetBackingFile(path_);
  EXPECT_EQ(store.BumpFenceEpoch({1, 1}), 1u);
  EXPECT_EQ(store.BumpFenceEpoch({1, 1}), 2u);
  EXPECT_EQ(store.BumpFenceEpoch({2, 7}), 1u);
  ASSERT_TRUE(store.Save(lm).ok());
  // A bump after the snapshot rides the next frame.
  EXPECT_EQ(store.BumpFenceEpoch({2, 7}), 2u);
  lm.ReleaseAll(1);
  ASSERT_TRUE(store.Append(1, lm).ok());

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.FenceEpochOf({1, 1}), 2u);
  EXPECT_EQ(probe.FenceEpochOf({2, 7}), 2u);
  EXPECT_EQ(probe.FenceEpochOf({3, 3}), 0u);  // never bumped
  EXPECT_EQ(probe.FenceEpochs().size(), 2u);
  EXPECT_EQ(probe.size(), 0u);
}

// --- Fault points on the compaction path --------------------------------

struct SaveFaultCase {
  const char* point;
  fault::FaultKind kind;
  /// Generation a post-fault load must recover: 1 = previous survives,
  /// 2 = new state already durable despite the error status.
  uint64_t expect_generation;
};

std::string PointName(const char* point) {
  std::string name = point;
  for (char& ch : name) {
    if (ch == '/' || ch == '-') ch = '_';
  }
  return name;
}

class SaveFaultTest : public LongLockStoreTest,
                      public ::testing::WithParamInterface<SaveFaultCase> {};

TEST_P(SaveFaultTest, FailedSaveIsReportedAndRecoverable) {
  const SaveFaultCase& c = GetParam();
  LockManager lm;
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(store.Save(lm).ok());  // generation 1, durable

  fault::FaultSpec spec;
  spec.kind = c.kind;
  spec.trigger = fault::Trigger::Once();
  fault::ScopedFault f(c.point, spec);
  ASSERT_TRUE(f.valid()) << c.point;

  ASSERT_TRUE(lm.Acquire(2, {2, 2}, LockMode::kX, LongOpts()).ok());
  Status saved = store.Save(lm);  // generation 2 attempt dies at the point
  EXPECT_FALSE(saved.ok()) << c.point;
  if (c.kind == fault::FaultKind::kCrash ||
      c.kind == fault::FaultKind::kTornWrite) {
    EXPECT_TRUE(fault::IsInjectedCrash(saved)) << saved.ToString();
  }

  // Whatever the crash left on disk, the load recovers a complete
  // generation — the previous one, or the new one if the rename made it.
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok()) << c.point;
  EXPECT_EQ(probe.generation(), c.expect_generation) << c.point;
  if (probe.generation() == 1) {
    EXPECT_EQ(probe.size(), 1u);
  } else {
    EXPECT_EQ(probe.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSavePoints, SaveFaultTest,
    ::testing::Values(
        SaveFaultCase{"store/open-temp", fault::FaultKind::kError, 1},
        SaveFaultCase{"store/write-frame", fault::FaultKind::kTornWrite, 1},
        SaveFaultCase{"store/sync", fault::FaultKind::kCrash, 1},
        SaveFaultCase{"store/rename", fault::FaultKind::kCrash, 1},
        // After the rename the new generation IS durable; the caller sees
        // the crash, but restart recovers generation 2.
        SaveFaultCase{"store/after-rename", fault::FaultKind::kCrash, 2}),
    [](const ::testing::TestParamInfo<SaveFaultCase>& param_info) {
      return PointName(param_info.param.point);
    });

// --- Fault points on the append path ------------------------------------

class AppendFaultTest : public LongLockStoreTest,
                        public ::testing::WithParamInterface<SaveFaultCase> {
};

TEST_P(AppendFaultTest, FailedAppendIsReportedAndRecoverable) {
  const SaveFaultCase& c = GetParam();
  LockManager lm;
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(store.Append(1, lm).ok());  // gen 1
  const std::string before = ReadFile(path_);
  const size_t intact = IntactEnd(path_);

  fault::FaultSpec spec;
  spec.kind = c.kind;
  spec.trigger = fault::Trigger::Once();
  fault::ScopedFault f(c.point, spec);
  ASSERT_TRUE(f.valid()) << c.point;
  ASSERT_TRUE(lm.Acquire(2, {2, 2}, LockMode::kX, LongOpts()).ok());
  Status appended = store.Append(2, lm);
  EXPECT_FALSE(appended.ok()) << c.point;
  EXPECT_TRUE(fault::IsInjectedCrash(appended)) << appended.ToString();
  // The frame went to the intact end of the file, over its zero tail: what
  // comes before is untouched, the length is unchanged, and nothing past
  // the frame (header 28 + one lock 13 + CRC 4) was written.
  const std::string after = ReadFile(path_);
  EXPECT_EQ(after.size(), before.size());
  EXPECT_EQ(after.substr(0, intact), before.substr(0, intact));
  EXPECT_TRUE(ZeroFrom(after, intact + 45));

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok()) << c.point;
  EXPECT_EQ(probe.generation(), c.expect_generation) << c.point;
  EXPECT_EQ(probe.size(), c.expect_generation) << c.point;
  EXPECT_EQ(probe.last_load().salvaged, c.expect_generation == 1) << c.point;
  EXPECT_EQ(probe.last_load().intact_bytes,
            c.expect_generation == 1 ? intact : intact + 45)
      << c.point;
}

INSTANTIATE_TEST_SUITE_P(
    AllAppendPoints, AppendFaultTest,
    ::testing::Values(
        SaveFaultCase{"store/write-frame", fault::FaultKind::kTornWrite, 1},
        // The whole frame reached the file; only the fdatasync is missing,
        // so the restart may well recover it.
        SaveFaultCase{"store/sync", fault::FaultKind::kCrash, 2}),
    [](const ::testing::TestParamInfo<SaveFaultCase>& param_info) {
      return PointName(param_info.param.point);
    });

// --- A failed write never poisons the next one --------------------------

struct WriteFaultCase {
  const char* point;
  fault::FaultKind kind;
  bool compaction;  ///< the faulted write is a snapshot, not a frame
};

class CommitAfterFaultTest
    : public LongLockStoreTest,
      public ::testing::WithParamInterface<WriteFaultCase> {};

TEST_P(CommitAfterFaultTest, LaterCommitIsDurable) {
  // A failed write, then a successful one, then a crash: the later commit
  // must survive — the store compacts instead of appending after garbage.
  const WriteFaultCase& c = GetParam();
  LockManager lm;
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(store.Save(lm).ok());
  ASSERT_TRUE(lm.Acquire(2, {2, 2}, LockMode::kS, LongOpts()).ok());
  ASSERT_TRUE(store.Append(2, lm).ok());
  {
    fault::FaultSpec spec;
    spec.kind = c.kind;
    spec.trigger = fault::Trigger::Once();
    fault::ScopedFault f(c.point, spec);
    ASSERT_TRUE(f.valid()) << c.point;
    ASSERT_TRUE(lm.Acquire(3, {3, 3}, LockMode::kX, LongOpts()).ok());
    EXPECT_FALSE((c.compaction ? store.Save(lm) : store.Append(3, lm)).ok());
  }
  ASSERT_TRUE(lm.Acquire(4, {4, 4}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(store.Append(4, lm).ok());

  LongLockStore probe;  // the restart
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_FALSE(probe.last_load().salvaged);
  EXPECT_EQ(probe.generation(), store.generation());
  EXPECT_TRUE(StateOf(probe) == StateOf(store));
  EXPECT_EQ(probe.records().back().txn, 4u);
}

TEST_F(LongLockStoreTest, SalvagingLoadIsFollowedBySnapshot) {
  // A torn tail from an earlier crash: the first write after the load
  // replaces the file instead of appending behind the garbage.
  std::string image = SeedLog();
  image += "torn";
  WriteFile(path_, image);
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(5, {5, 5}, LockMode::kX, LongOpts()).ok());
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(store.LoadFromFile(path_).ok());
  ASSERT_TRUE(store.last_load().salvaged);
  ASSERT_TRUE(store.Append(5, lm).ok());

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_FALSE(probe.last_load().salvaged);
  EXPECT_EQ(probe.generation(), 5u);
  EXPECT_TRUE(StateOf(probe) == StateOf(store));
}

TEST_F(LongLockStoreTest, NonZeroByteAfterZerosIsSalvagedThenSnapshot) {
  // One stray byte deep in the tail, after a run of zeros: the store cannot
  // tell it from a torn write, so the load salvages and the next write
  // replaces the file.
  std::string image = SeedLog();
  ASSERT_GT(image.size(), ends_[4] + 1000);
  image[image.size() - 1] = 1;
  WriteFile(path_, image);
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(5, {5, 5}, LockMode::kX, LongOpts()).ok());
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(store.LoadFromFile(path_).ok());
  EXPECT_TRUE(store.last_load().salvaged);
  EXPECT_EQ(store.generation(), 4u);
  EXPECT_EQ(store.last_load().intact_bytes, ends_[4]);
  EXPECT_EQ(store.last_load().discarded_bytes, image.size() - ends_[4]);

  fault::FaultSpec never;
  never.trigger = fault::Trigger::Nth(1u << 30);
  fault::ScopedFault snapshots("store/open-temp", never);
  ASSERT_TRUE(store.Append(5, lm).ok());
  EXPECT_EQ(fault::FindPoint("store/open-temp")->hits(), 1u);
  const std::string after = ReadFile(path_);
  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_FALSE(probe.last_load().salvaged);
  EXPECT_EQ(probe.generation(), 5u);
  EXPECT_TRUE(StateOf(probe) == StateOf(store));
  EXPECT_TRUE(ZeroFrom(after, probe.last_load().intact_bytes));
}

INSTANTIATE_TEST_SUITE_P(
    AllWritePoints, CommitAfterFaultTest,
    ::testing::Values(
        WriteFaultCase{"store/write-frame", fault::FaultKind::kTornWrite,
                       false},
        WriteFaultCase{"store/sync", fault::FaultKind::kCrash, false},
        WriteFaultCase{"store/open-temp", fault::FaultKind::kError, true},
        WriteFaultCase{"store/write-frame", fault::FaultKind::kTornWrite,
                       true},
        WriteFaultCase{"store/sync", fault::FaultKind::kCrash, true},
        WriteFaultCase{"store/rename", fault::FaultKind::kCrash, true},
        WriteFaultCase{"store/after-rename", fault::FaultKind::kCrash, true}),
    [](const ::testing::TestParamInfo<WriteFaultCase>& param_info) {
      return std::string(param_info.param.compaction ? "compact_"
                                                     : "append_") +
             PointName(param_info.param.point);
    });

}  // namespace
}  // namespace codlock::lock
