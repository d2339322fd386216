/// \file long_lock_store.h
/// \brief Crash-consistent stable storage for long locks: a snapshot plus
/// an append-only log.
///
/// §3.1: "In contrast to traditional short locks, long locks must survive
/// system shutdowns and system crashes."  The `LongLockStore` models the
/// stable storage a server keeps its check-out locks in.  Every server
/// operation that changes one transaction's long locks (check-out,
/// check-in, cancel, lease reclaim) makes that transaction's new lock set
/// durable with one `Append` — one frame, one `fdatasync`, and no walk of
/// the lock table; after a (simulated) crash a fresh
/// `LockManager` is reloaded from the store, while all short locks are
/// lost.
///
/// ## On-disk format
///
/// One file holds a snapshot block followed by log frames.  Integers are
/// little-endian; each CRC-32 covers everything after its block's magic.
///
///     snapshot "CGN2": u32 magic | u64 generation | u32 record_count
///                      | u32 epoch_count
///                      | record_count * (u64 txn | u32 node | u64 instance
///                                        | u8 mode)
///                      | epoch_count * (u32 node | u64 instance | u64 epoch)
///                      | u32 crc
///     frame "CGNF":    u32 magic | u64 generation | u64 txn
///                      | u32 record_count | u32 epoch_count
///                      | record_count * (u32 node | u64 instance | u8 mode)
///                      | epoch_count * (u32 node | u64 instance | u64 epoch)
///                      | u32 crc
///
/// A frame is one server operation (a group commit): the complete
/// long-lock set of one transaction (an empty set drops it) plus every
/// fencing epoch bumped since the previous write.  Each block's generation
/// is one above its predecessor's, so `generation()` counts durable
/// writes and is recovered as the last one replayed.
///
///  * **Append** — `Append` writes one frame after the intact end of the
///    file and issues one `fdatasync`; the change is durable when it
///    returns OK.  Its cost depends on the transaction's own locks, not on
///    the size of the lock table.
///  * **Load** — `LoadFromFile` reads the snapshot, then replays frames up
///    to the first torn, corrupt or out-of-sequence one; the rest of the
///    file is discarded (`last_load()` reports how much).  A file without
///    an intact snapshot recovers the empty generation 0.
///  * **Compaction** — a write is a fresh snapshot instead of a frame once
///    the log has grown past `kCompactRatio` times the snapshot size of the
///    live set (and past `kCompactMinBytes`).  So is the first write to a
///    new backing file, every `Save`, and the first write after a failed
///    write or a salvaging load: the store never appends after garbage.  A
///    snapshot goes to `<path>.tmp`, is `fdatasync`ed, renamed over
///    `<path>`, and the directory is `fsync`ed.
///
/// Fault points (`fault/fault_injector.h`): the append path passes
/// `store/write-frame` (torn frame) and `store/sync` (death before the
/// `fdatasync`); the compaction path passes `store/open-temp`,
/// `store/write-frame`, `store/sync`, `store/rename` and
/// `store/after-rename`.  The crashpoint sweep kills a write at each of
/// them on both paths and asserts the load recovers the state before or
/// after that write, never anything else.

#ifndef CODLOCK_LOCK_LONG_LOCK_STORE_H_
#define CODLOCK_LOCK_LONG_LOCK_STORE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/lock_manager.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace codlock::lock {

/// \brief One checked-out root's fencing epoch (zombie fencing).
///
/// The epoch of a root resource counts how often lease reclamation (or the
/// post-crash orphan reaper) revoked long locks on it.  A check-out ticket
/// records the epochs of its roots at grant time; any later check-in /
/// renew / resume that presents an older epoch is a zombie and fails with
/// `StatusCode::kFenced`.  A bumped epoch rides the next durable write
/// (the reclaim's own frame, or the reaper's snapshot), so a server crash
/// can never resurrect a fenced ticket.
struct FenceEpochRecord {
  ResourceId root;
  uint64_t epoch = 0;
};

/// \brief Durable store of long-lock records.
class LongLockStore {
 public:
  /// A snapshot is due once the log exceeds this multiple of the live
  /// set's snapshot size ...
  static constexpr size_t kCompactRatio = 4;
  /// ... and this many bytes, so a small lock table does not compact on
  /// nearly every write.
  static constexpr size_t kCompactMinBytes = 64 * 1024;

  /// What `LoadFromFile` recovered.
  struct LoadReport {
    uint64_t generation = 0;      ///< recovered generation (0 = empty state)
    size_t records = 0;           ///< records in the recovered state
    bool salvaged = false;        ///< true when corrupt/torn bytes were skipped
    size_t discarded_bytes = 0;   ///< bytes after the last intact block
  };

  LongLockStore() = default;
  LongLockStore(const LongLockStore&) = delete;
  LongLockStore& operator=(const LongLockStore&) = delete;
  ~LongLockStore();

  /// Makes the long locks \p txn holds in \p manager (`LocksOf`, none
  /// once it has finished) its durable set and bumps the generation.  With
  /// a backing file this appends one frame and issues one `fdatasync`, or
  /// writes a snapshot when compaction is due.  The locks are read under
  /// the writer lock, so of two concurrent appends for one transaction the
  /// later write carries the later view.  A write failure is returned: the
  /// caller must not treat the change as durable, and the next write is a
  /// snapshot.
  Status Append(TxnId txn, const LockManager& manager);

  /// Replaces the stored set with the long locks currently held in
  /// \p manager, bumps the generation and writes a snapshot (a full
  /// compaction).  Recovery and audits use this; per-operation persistence
  /// uses `Append`.
  Status Save(const LockManager& manager);

  /// Re-installs the stored long locks into \p manager (normally a freshly
  /// constructed one, after a crash).
  Status Restore(LockManager* manager) const;

  /// Records currently in stable storage, in ascending txn order.
  std::vector<LongLockRecord> records() const;

  size_t size() const;

  /// Fencing epoch of \p root (0 = never reclaimed).
  uint64_t FenceEpochOf(ResourceId root) const;

  /// Monotonically bumps \p root's fencing epoch (lease reclaim / orphan
  /// reap) and returns the new value.  Durable from the next write.
  uint64_t BumpFenceEpoch(ResourceId root);

  /// All non-zero fencing epochs (inspection, sweep invariants).
  std::vector<FenceEpochRecord> FenceEpochs() const;

  /// Generation of the last write (0 before the first one).
  uint64_t generation() const;

  /// File that writes persist to ("" = in-memory only).  The next write
  /// to a newly set file is a snapshot, unless a `LoadFromFile` of that
  /// same file finds it intact first.
  void SetBackingFile(std::string path);
  std::string backing_file() const;

  /// Loads the snapshot and the intact prefix of the log from \p path (see
  /// file comment); kNotFound when the file does not exist, OK otherwise —
  /// corruption is salvaged, never fatal.  `last_load()` describes the
  /// outcome.
  Status LoadFromFile(const std::string& path);

  /// Outcome of the most recent `LoadFromFile`.
  LoadReport last_load() const;

 private:
  /// Snapshot block of the whole in-memory state.
  std::string EncodeSnapshotLocked() const CODLOCK_REQUIRES(mu_);

  /// Size in bytes of the snapshot block `EncodeSnapshotLocked` would make.
  size_t SnapshotBytesLocked() const CODLOCK_REQUIRES(mu_);

  /// Writes \p frame after the intact end of the backing file + fdatasync.
  Status AppendFrameLocked(const std::string& frame) CODLOCK_REQUIRES(io_mu_);

  /// Replaces the backing file by \p snapshot (temp, fdatasync, rename,
  /// directory fsync).
  Status WriteSnapshotLocked(const std::string& snapshot)
      CODLOCK_REQUIRES(io_mu_);

  /// Serializes writers of the backing file, from encoding a block to its
  /// fdatasync, so blocks reach the file in generation order.  Readers of
  /// the in-memory state take only `mu_` and never wait for the disk.
  mutable Mutex io_mu_ CODLOCK_ACQUIRED_BEFORE(mu_);
  std::string backing_path_ CODLOCK_GUARDED_BY(io_mu_);
  /// The live backing file, open for appends (-1 = not open).
  int fd_ CODLOCK_GUARDED_BY(io_mu_) = -1;
  /// Length of the file's intact prefix: where the next frame goes.
  size_t file_bytes_ CODLOCK_GUARDED_BY(io_mu_) = 0;
  /// Bytes of frames after the snapshot.
  size_t log_bytes_ CODLOCK_GUARDED_BY(io_mu_) = 0;
  /// The next write must be a snapshot: no intact file yet, a failed
  /// write, or garbage after the log.
  bool snapshot_due_ CODLOCK_GUARDED_BY(io_mu_) = true;

  mutable Mutex mu_;
  /// Each transaction's durable long-lock set.
  std::map<TxnId, std::vector<LongLockRecord>> sets_ CODLOCK_GUARDED_BY(mu_);
  size_t num_records_ CODLOCK_GUARDED_BY(mu_) = 0;
  /// Per-root fencing epochs; kept independent of the sets (an epoch must
  /// outlive the locks it fences).
  std::unordered_map<ResourceId, uint64_t, ResourceIdHash> epochs_
      CODLOCK_GUARDED_BY(mu_);
  /// Roots bumped since the last write: the next frame carries them.
  std::unordered_set<ResourceId, ResourceIdHash> bumped_
      CODLOCK_GUARDED_BY(mu_);
  uint64_t generation_ CODLOCK_GUARDED_BY(mu_) = 0;
  LoadReport last_load_ CODLOCK_GUARDED_BY(mu_);
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_LONG_LOCK_STORE_H_
