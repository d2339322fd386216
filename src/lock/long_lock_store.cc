#include "lock/long_lock_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/fault_injector.h"
#include "util/crc32.h"

namespace codlock::lock {

namespace {

// Fault points of the persistence path (see file comment in the header).
// Namespace-scope objects register at static-init time so the crashpoint
// sweep can enumerate them.
fault::FaultPoint g_fault_open_temp{"store/open-temp",
                                    fault::FaultKind::kError};
fault::FaultPoint g_fault_write_frame{"store/write-frame",
                                      fault::FaultKind::kTornWrite};
fault::FaultPoint g_fault_sync{"store/sync", fault::FaultKind::kCrash};
fault::FaultPoint g_fault_rename{"store/rename", fault::FaultKind::kCrash};
fault::FaultPoint g_fault_after_rename{"store/after-rename",
                                       fault::FaultKind::kCrash};

// Block layouts: see the file comment in the header.  A snapshot record
// carries its txn; a frame names its txn once, in the header.
constexpr uint32_t kSnapshotMagic = 0x324E4743;  // "CGN2"
constexpr uint32_t kFrameMagic = 0x464E4743;     // "CGNF"
constexpr size_t kSnapshotHeaderSize = 4 + 8 + 4 + 4;
constexpr size_t kFrameHeaderSize = 4 + 8 + 8 + 4 + 4;
constexpr size_t kLockSize = 4 + 8 + 1;  // node | instance | mode
constexpr size_t kTxnSize = 8;
constexpr size_t kEpochSize = 4 + 8 + 8;
constexpr size_t kCrcSize = 4;

void PutU32(std::string& s, uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string& s, uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

/// One decoded block: a snapshot (the whole store) or a frame (one
/// transaction's set).
struct Block {
  uint64_t generation = 0;
  TxnId txn = kInvalidTxn;  ///< frames only
  std::vector<LongLockRecord> records;
  std::vector<FenceEpochRecord> epochs;
};

/// Encodes one block of kind \p magic.  \p epochs must be sorted, so a
/// given state always has the same byte image.
std::string EncodeBlock(uint32_t magic, uint64_t generation, TxnId txn,
                        const std::vector<LongLockRecord>& records,
                        const std::vector<FenceEpochRecord>& epochs) {
  const bool frame = magic == kFrameMagic;
  std::string b;
  b.reserve((frame ? kFrameHeaderSize : kSnapshotHeaderSize) +
            records.size() * (frame ? kLockSize : kTxnSize + kLockSize) +
            epochs.size() * kEpochSize + kCrcSize);
  PutU32(b, magic);
  PutU64(b, generation);
  if (frame) PutU64(b, txn);
  PutU32(b, static_cast<uint32_t>(records.size()));
  PutU32(b, static_cast<uint32_t>(epochs.size()));
  for (const LongLockRecord& r : records) {
    if (!frame) PutU64(b, r.txn);
    PutU32(b, r.resource.node);
    PutU64(b, r.resource.instance);
    b.push_back(static_cast<char>(r.mode));
  }
  for (const FenceEpochRecord& e : epochs) {
    PutU32(b, e.root.node);
    PutU64(b, e.root.instance);
    PutU64(b, e.epoch);
  }
  PutU32(b, Crc32(std::string_view(b.data() + 4, b.size() - 4)));
  return b;
}

/// Decodes the block of kind \p magic at \p off.  Returns its length, or 0
/// when the bytes there are not a complete, CRC-clean, valid such block.
size_t DecodeBlock(const std::string& data, size_t off, uint32_t magic,
                   Block* out) {
  const bool frame = magic == kFrameMagic;
  const size_t header = frame ? kFrameHeaderSize : kSnapshotHeaderSize;
  const size_t record = frame ? kLockSize : kTxnSize + kLockSize;
  const size_t avail = data.size() - off;
  if (avail < header + kCrcSize) return 0;
  const char* p = data.data() + off;
  if (GetU32(p) != magic) return 0;
  const uint32_t count = GetU32(p + header - 8);
  const uint32_t epoch_count = GetU32(p + header - 4);
  // Reject absurd counts before computing the length (overflow guard).
  if (count > avail / record || epoch_count > avail / kEpochSize) return 0;
  const size_t length =
      header + count * record + epoch_count * kEpochSize + kCrcSize;
  if (length > avail) return 0;
  if (Crc32(std::string_view(p + 4, length - 4 - kCrcSize)) !=
      GetU32(p + length - kCrcSize)) {
    return 0;
  }

  Block b;
  b.generation = GetU64(p + 4);
  b.txn = frame ? GetU64(p + 12) : kInvalidTxn;
  b.records.reserve(count);
  const char* q = p + header;
  for (uint32_t i = 0; i < count; ++i) {
    LongLockRecord r;
    r.txn = frame ? b.txn : GetU64(q);
    if (!frame) q += kTxnSize;
    r.resource.node = GetU32(q);
    r.resource.instance = GetU64(q + 4);
    const uint8_t mode = static_cast<uint8_t>(q[12]);
    if (mode >= kNumModes) return 0;  // CRC collision / version skew
    r.mode = static_cast<LockMode>(mode);
    b.records.push_back(r);
    q += kLockSize;
  }
  b.epochs.reserve(epoch_count);
  for (uint32_t i = 0; i < epoch_count; ++i, q += kEpochSize) {
    b.epochs.push_back({{GetU32(q), GetU64(q + 4)}, GetU64(q + 12)});
  }
  *out = std::move(b);
  return length;
}

void SortEpochs(std::vector<FenceEpochRecord>* epochs) {
  std::sort(epochs->begin(), epochs->end(),
            [](const FenceEpochRecord& a, const FenceEpochRecord& b) {
              return a.root.node != b.root.node
                         ? a.root.node < b.root.node
                         : a.root.instance < b.root.instance;
            });
}

/// pwrite of all \p len bytes at \p offset.
bool WriteAt(int fd, const char* data, size_t len, size_t offset) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<size_t>(n);
  }
  return true;
}

/// Bytes of a \p size-byte write that a torn-write fault lets through.
size_t TornLength(const fault::FireResult& f, size_t size) {
  if (f.kind != fault::FaultKind::kTornWrite) return 0;
  return f.arg != 0 ? std::min<size_t>(f.arg, size) : size / 2;
}

/// Makes a rename inside \p path's directory durable.
bool SyncDirectory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

LongLockStore::~LongLockStore() {
  MutexLock io(io_mu_);
  if (fd_ >= 0) ::close(fd_);
}

Status LongLockStore::Append(TxnId txn, const LockManager& manager) {
  MutexLock io(io_mu_);
  std::vector<LongLockRecord> locks;
  for (const HeldLock& held : manager.LocksOf(txn)) {
    if (held.duration == LockDuration::kLong) {
      locks.push_back({txn, held.resource, held.mode});
    }
  }
  const bool to_file = !backing_path_.empty();
  std::string block;
  bool snapshot = false;
  {
    MutexLock lk(mu_);
    ++generation_;
    if (to_file) {
      std::vector<FenceEpochRecord> epochs;
      for (const ResourceId& root : bumped_) {
        epochs.push_back({root, epochs_[root]});
      }
      SortEpochs(&epochs);
      block = EncodeBlock(kFrameMagic, generation_, txn, locks, epochs);
    }
    bumped_.clear();
    if (auto it = sets_.find(txn); it != sets_.end()) {
      num_records_ -= it->second.size();
      sets_.erase(it);
    }
    if (!locks.empty()) {
      num_records_ += locks.size();
      sets_.emplace(txn, std::move(locks));
    }
    snapshot = to_file && (snapshot_due_ ||
                           log_bytes_ >= std::max(kCompactMinBytes,
                                                  kCompactRatio *
                                                      SnapshotBytesLocked()));
    if (snapshot) block = EncodeSnapshotLocked();
  }
  if (!to_file) return Status::OK();
  return snapshot ? WriteSnapshotLocked(block) : AppendFrameLocked(block);
}

Status LongLockStore::Save(const LockManager& manager) {
  std::vector<LongLockRecord> all = manager.SnapshotLongLocks();
  MutexLock io(io_mu_);
  std::string block;
  {
    MutexLock lk(mu_);
    sets_.clear();
    for (const LongLockRecord& r : all) sets_[r.txn].push_back(r);
    num_records_ = all.size();
    ++generation_;
    bumped_.clear();
    if (!backing_path_.empty()) block = EncodeSnapshotLocked();
  }
  if (backing_path_.empty()) return Status::OK();
  return WriteSnapshotLocked(block);
}

Status LongLockStore::Restore(LockManager* manager) const {
  return manager->RestoreLongLocks(records());
}

std::vector<LongLockRecord> LongLockStore::records() const {
  MutexLock lk(mu_);
  std::vector<LongLockRecord> out;
  out.reserve(num_records_);
  for (const auto& [txn, set] : sets_) {
    out.insert(out.end(), set.begin(), set.end());
  }
  return out;
}

size_t LongLockStore::size() const {
  MutexLock lk(mu_);
  return num_records_;
}

uint64_t LongLockStore::generation() const {
  MutexLock lk(mu_);
  return generation_;
}

uint64_t LongLockStore::FenceEpochOf(ResourceId root) const {
  MutexLock lk(mu_);
  auto it = epochs_.find(root);
  return it == epochs_.end() ? 0 : it->second;
}

uint64_t LongLockStore::BumpFenceEpoch(ResourceId root) {
  MutexLock lk(mu_);
  bumped_.insert(root);
  return ++epochs_[root];
}

std::vector<FenceEpochRecord> LongLockStore::FenceEpochs() const {
  MutexLock lk(mu_);
  std::vector<FenceEpochRecord> out;
  out.reserve(epochs_.size());
  for (const auto& [root, epoch] : epochs_) {
    out.push_back({root, epoch});
  }
  return out;
}

void LongLockStore::SetBackingFile(std::string path) {
  MutexLock io(io_mu_);
  backing_path_ = std::move(path);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  snapshot_due_ = true;
}

std::string LongLockStore::backing_file() const {
  MutexLock io(io_mu_);
  return backing_path_;
}

LongLockStore::LoadReport LongLockStore::last_load() const {
  MutexLock lk(mu_);
  return last_load_;
}

std::string LongLockStore::EncodeSnapshotLocked() const {
  std::vector<FenceEpochRecord> epochs;
  epochs.reserve(epochs_.size());
  for (const auto& [root, epoch] : epochs_) {
    epochs.push_back({root, epoch});
  }
  SortEpochs(&epochs);
  std::vector<LongLockRecord> all;
  all.reserve(num_records_);
  for (const auto& [txn, set] : sets_) {
    all.insert(all.end(), set.begin(), set.end());
  }
  return EncodeBlock(kSnapshotMagic, generation_, kInvalidTxn, all, epochs);
}

size_t LongLockStore::SnapshotBytesLocked() const {
  return kSnapshotHeaderSize + num_records_ * (kTxnSize + kLockSize) +
         epochs_.size() * kEpochSize + kCrcSize;
}

Status LongLockStore::AppendFrameLocked(const std::string& frame) {
  // Until this frame is durable the file's tail is unknown: any failure
  // below leaves the next write to a snapshot.
  snapshot_due_ = true;
  if (fd_ < 0) {
    fd_ = ::open(backing_path_.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd_ < 0) {
      return Status::Internal("cannot open '" + backing_path_ + "'");
    }
  }
  if (fault::FireResult f = g_fault_write_frame.Fire()) {
    // Torn append: a prefix of the frame reaches the file, then the
    // process dies.  Load stops at the torn frame.
    WriteAt(fd_, frame.data(), TornLength(f, frame.size()), file_bytes_);
    return fault::StatusFor(f, g_fault_write_frame.name());
  }
  if (!WriteAt(fd_, frame.data(), frame.size(), file_bytes_)) {
    return Status::Internal("append to '" + backing_path_ + "' failed");
  }
  if (fault::FireResult f = g_fault_sync.Fire()) {
    // Death before the fdatasync: the frame may or may not be durable.
    return fault::StatusFor(f, g_fault_sync.name());
  }
  if (::fdatasync(fd_) != 0) {
    return Status::Internal("fdatasync of '" + backing_path_ + "' failed");
  }
  file_bytes_ += frame.size();
  log_bytes_ += frame.size();
  snapshot_due_ = false;
  return Status::OK();
}

Status LongLockStore::WriteSnapshotLocked(const std::string& snapshot) {
  snapshot_due_ = true;
  const std::string tmp = backing_path_ + ".tmp";
  if (fault::FireResult f = g_fault_open_temp.Fire()) {
    return fault::StatusFor(f, g_fault_open_temp.name());
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return Status::Internal("cannot open '" + tmp + "' for writing");
  auto fail = [fd](Status s) {
    ::close(fd);
    return s;
  };
  if (fault::FireResult f = g_fault_write_frame.Fire()) {
    // Torn write: a prefix of the snapshot reaches the temp file, then the
    // process dies — no rename, the live file is untouched.
    WriteAt(fd, snapshot.data(), TornLength(f, snapshot.size()), 0);
    return fail(fault::StatusFor(f, g_fault_write_frame.name()));
  }
  if (!WriteAt(fd, snapshot.data(), snapshot.size(), 0)) {
    return fail(Status::Internal("write to '" + tmp + "' failed"));
  }
  if (fault::FireResult f = g_fault_sync.Fire()) {
    // Death before the fdatasync: the live file still holds the old state.
    return fail(fault::StatusFor(f, g_fault_sync.name()));
  }
  if (::fdatasync(fd) != 0) {
    return fail(Status::Internal("fdatasync of '" + tmp + "' failed"));
  }
  if (fault::FireResult f = g_fault_rename.Fire()) {
    // Crash before the rename: durable state is still the old file.
    return fail(fault::StatusFor(f, g_fault_rename.name()));
  }
  if (std::rename(tmp.c_str(), backing_path_.c_str()) != 0) {
    return fail(Status::Internal("rename '" + tmp + "' -> '" + backing_path_ +
                                 "' failed"));
  }
  // The temp file is the live file now; its descriptor takes the appends.
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  file_bytes_ = snapshot.size();
  log_bytes_ = 0;
  if (!SyncDirectory(backing_path_)) {
    return Status::Internal("fsync of the directory of '" + backing_path_ +
                            "' failed");
  }
  // The new snapshot is durable from here on, even if the caller sees the
  // injected crash below (restart recovers the *new* state).
  if (fault::FireResult f = g_fault_after_rename.Fire()) {
    return fault::StatusFor(f, g_fault_after_rename.name());
  }
  snapshot_due_ = false;
  return Status::OK();
}

Status LongLockStore::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  // The snapshot, then every frame that continues the generation sequence;
  // the first torn, corrupt or out-of-sequence block ends the log.
  Block snapshot;
  const size_t snapshot_bytes = DecodeBlock(data, 0, kSnapshotMagic, &snapshot);
  std::map<TxnId, std::vector<LongLockRecord>> sets;
  std::unordered_map<ResourceId, uint64_t, ResourceIdHash> epochs;
  size_t end = snapshot_bytes;
  if (snapshot_bytes != 0) {
    for (const LongLockRecord& r : snapshot.records) sets[r.txn].push_back(r);
    for (const FenceEpochRecord& e : snapshot.epochs) epochs[e.root] = e.epoch;
    for (Block frame;;) {
      const size_t len = DecodeBlock(data, end, kFrameMagic, &frame);
      if (len == 0 || frame.generation != snapshot.generation + 1) break;
      snapshot.generation = frame.generation;
      if (frame.records.empty()) {
        sets.erase(frame.txn);
      } else {
        sets[frame.txn] = std::move(frame.records);
      }
      for (const FenceEpochRecord& e : frame.epochs) epochs[e.root] = e.epoch;
      end += len;
    }
  }

  MutexLock io(io_mu_);
  MutexLock lk(mu_);
  sets_ = std::move(sets);
  num_records_ = 0;
  for (const auto& [txn, set] : sets_) num_records_ += set.size();
  epochs_ = std::move(epochs);
  bumped_.clear();
  // No intact snapshot recovers the empty generation 0: the state before
  // the first completed write.
  generation_ = snapshot.generation;
  last_load_ = LoadReport{};
  last_load_.generation = generation_;
  last_load_.records = num_records_;
  last_load_.discarded_bytes = data.size() - end;
  last_load_.salvaged = last_load_.discarded_bytes != 0;
  // Appending goes on only after an intact image of the backing file.
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  file_bytes_ = end;
  log_bytes_ = end - snapshot_bytes;
  snapshot_due_ =
      path != backing_path_ || snapshot_bytes == 0 || last_load_.salvaged;
  return Status::OK();
}

}  // namespace codlock::lock
