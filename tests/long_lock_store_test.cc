/// Tests for the crash-consistent `LongLockStore`: a snapshot plus an
/// append-only log of CRC-framed records, torn-write salvage at every byte
/// offset, corruption recovery, Status propagation from Append/Save/
/// LoadFromFile, and the store fault points on the append path
/// (write-frame, sync) and on the compaction path (open-temp, write-frame,
/// sync, rename, after-rename).

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
  /// Records the state after each generation in `states_` and the file
  /// length after each in `ends_`; returns the file's bytes.
  std::string SeedLog() {
    LockManager lm;
    LongLockStore store;
    store.SetBackingFile(path_);
    auto done = [&] {
      states_.push_back(StateOf(store));
      ends_.push_back(ReadFile(path_).size());
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
  std::vector<size_t> ends_;   ///< file length after generation i
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

TEST_F(LongLockStoreTest, TruncationAtEveryOffsetNeverFailsLoad) {
  const std::string image = SeedLog();
  ASSERT_EQ(ends_.back(), image.size());
  const std::string cut = (dir_ / "cut.bin").string();

  std::vector<size_t> recovered(ends_.size(), 0);
  for (size_t len = 0; len <= image.size(); ++len) {
    WriteFile(cut, image.substr(0, len));
    LongLockStore probe;
    Status s = probe.LoadFromFile(cut);
    ASSERT_TRUE(s.ok()) << "offset " << len << ": " << s.ToString();
    // Exactly the longest intact prefix of writes: every block that ends
    // within the cut, nothing of the torn one.
    const uint64_t want = static_cast<uint64_t>(
        std::upper_bound(ends_.begin(), ends_.end(), len) - ends_.begin() - 1);
    ASSERT_EQ(probe.generation(), want) << "offset " << len;
    EXPECT_TRUE(StateOf(probe) == states_[want]) << "offset " << len;
    EXPECT_EQ(probe.last_load().discarded_bytes, len - ends_[want])
        << "offset " << len;
    EXPECT_EQ(probe.last_load().salvaged, len != ends_[want])
        << "offset " << len;
    ++recovered[want];
  }
  // Every generation is the recovered one for some cut; the full image is
  // the only cut that recovers the last.
  for (size_t g = 0; g < recovered.size(); ++g) {
    EXPECT_GT(recovered[g], 0u) << "generation " << g;
  }
  EXPECT_EQ(recovered.back(), 1u);
}

TEST_F(LongLockStoreTest, CorruptedNewestBlockSalvagesPrevious) {
  std::string image = SeedLog();
  // Flip a byte in the last (generation 4) frame.
  image[image.size() - 10] ^= 0x5A;
  WriteFile(path_, image);

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 3u);
  EXPECT_TRUE(StateOf(probe) == states_[3]);
  EXPECT_TRUE(probe.last_load().salvaged);
  EXPECT_EQ(probe.last_load().discarded_bytes, ends_[4] - ends_[3]);
}

TEST_F(LongLockStoreTest, CorruptedMiddleFrameEndsTheLog) {
  std::string image = SeedLog();
  // A flipped byte in frame 2 also discards the intact frames after it:
  // they were written on top of a state the load never reached.
  image[ends_[1] + 3] ^= 0x01;
  WriteFile(path_, image);

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 1u);
  EXPECT_TRUE(StateOf(probe) == states_[1]);
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
  ASSERT_TRUE(store.Append(5, lm).ok());
  EXPECT_EQ(store.generation(), 5u);
  // An intact file is appended to, not rewritten.
  const std::string after = ReadFile(path_);
  EXPECT_EQ(after.substr(0, image.size()), image);

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok());
  EXPECT_EQ(probe.generation(), 5u);
  EXPECT_EQ(probe.size(), 3u);
  EXPECT_FALSE(probe.last_load().salvaged);
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
  // Header 28 + CRC 4, 13 bytes per lock: 58 + 32 bytes of log.
  const std::string after = ReadFile(path_);
  EXPECT_EQ(after.size(), snapshot.size() + 58 + 32);
  EXPECT_EQ(after.substr(0, snapshot.size()), snapshot);
}

TEST_F(LongLockStoreTest, LogCompactsPastItsBound) {
  LockManager lm;
  LongLockStore store;
  store.SetBackingFile(path_);
  ASSERT_TRUE(lm.Acquire(1, {1, 1}, LockMode::kX, LongOpts()).ok());
  ASSERT_TRUE(store.Append(1, lm).ok());
  // The first write to a new file is its snapshot.
  const size_t first = ReadFile(path_).size();
  size_t largest = first;
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
    largest = std::max<size_t>(largest, std::filesystem::file_size(path_));
  }
  // 4000 frames of 32-45 bytes pass the 64 KiB floor: the log compacted,
  // and never grew far past the bound.
  EXPECT_GT(fault::FindPoint("store/open-temp")->hits(), 0u);
  EXPECT_LT(largest, LongLockStore::kCompactMinBytes + 1024);
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

  fault::FaultSpec spec;
  spec.kind = c.kind;
  spec.trigger = fault::Trigger::Once();
  fault::ScopedFault f(c.point, spec);
  ASSERT_TRUE(f.valid()) << c.point;
  ASSERT_TRUE(lm.Acquire(2, {2, 2}, LockMode::kX, LongOpts()).ok());
  Status appended = store.Append(2, lm);
  EXPECT_FALSE(appended.ok()) << c.point;
  EXPECT_TRUE(fault::IsInjectedCrash(appended)) << appended.ToString();
  // The frame went after the intact end of the file, which is untouched.
  EXPECT_EQ(ReadFile(path_).substr(0, before.size()), before);

  LongLockStore probe;
  ASSERT_TRUE(probe.LoadFromFile(path_).ok()) << c.point;
  EXPECT_EQ(probe.generation(), c.expect_generation) << c.point;
  EXPECT_EQ(probe.size(), c.expect_generation) << c.point;
  EXPECT_EQ(probe.last_load().salvaged, c.expect_generation == 1) << c.point;
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
