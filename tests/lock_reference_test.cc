/// \file lock_reference_test.cc
/// \brief An executable reference of the lock table, and seeded scripts
/// that check `LockManager` against it after every step.
///
/// `RefTable` is lock_manager.h's contract for requests that never wait,
/// written as plainly as it can be: one entry per granule, holds counted
/// per transaction, every decision made by `Compatible` and `Supremum`.
/// It has no lanes, no held rows and no shards, so a difference from
/// `LockManager` is a defect in one of those mechanisms (or here).  The
/// rules it fixes:
///  * a request is granted when the hold covers it (the count goes up) or
///    when sup(held, requested) is compatible with every other holder; a
///    long request makes the hold long for good;
///  * `AcquirePath` grants every element or none.  A failed path still
///    keeps the mode and duration a conversion gave an instance resource
///    the transaction held before (its count is re-paired); singleton
///    granules are left exactly as they were;
///  * `Release` takes one count and the hold goes with its last count;
///    `Downgrade` sets a covered mode; `ReleaseAll` returns the number of
///    granules the transaction held;
///  * `RestoreLongLocks` checks every record against the current holders
///    and against the other transactions' records of its batch, then
///    installs all or nothing, merging into a hold by supremum (count
///    unchanged) or adding a hold with count 1.
///
/// `ScriptRunner` runs seeded scripts of 3–6 live transactions over singleton
/// granules and instance resources: single requests and paths, short and
/// long, through a transaction's handle or by id, plus restores and
/// crashes.  After every step it compares the status and every inspection.
/// A failing seed prints the script that led to it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lock/lock_manager.h"
#include "util/rng.h"

namespace codlock::lock {
namespace {

// ---- The reference --------------------------------------------------------

struct RefHold {
  LockMode mode = LockMode::kNL;
  uint32_t count = 0;
  bool is_long = false;
};

class RefTable {
 public:
  StatusCode AcquirePath(TxnId txn, std::span<const ResourceId> path,
                         LockMode leaf, bool is_long) {
    auto mode_of = [&](size_t i) {
      return i + 1 == path.size() ? leaf : IntentionFor(leaf);
    };
    bool all = true;
    for (size_t i = 0; i < path.size(); ++i) {
      all = all && Grantable(txn, path[i], mode_of(i));
    }
    for (size_t i = 0; i < path.size(); ++i) {
      const LockMode mode = mode_of(i);
      if (all) {
        RefHold& h = table_[Key(path[i])][txn];
        h.mode = Supremum(h.mode, mode);
        ++h.count;
        h.is_long = h.is_long || is_long;
      } else if (RefHold* h = Find(txn, path[i]);
                 h != nullptr && !path[i].singleton() &&
                 Grantable(txn, path[i], mode)) {
        h->mode = Supremum(h->mode, mode);
        h->is_long = h->is_long || is_long;
      }
    }
    return all ? StatusCode::kOk : StatusCode::kConflict;
  }

  StatusCode Release(TxnId txn, ResourceId r) {
    RefHold* h = Find(txn, r);
    if (h == nullptr) return StatusCode::kNotFound;
    if (--h->count == 0) Erase(txn, r);
    return StatusCode::kOk;
  }

  StatusCode Downgrade(TxnId txn, ResourceId r, LockMode mode) {
    RefHold* h = Find(txn, r);
    if (h == nullptr) return StatusCode::kNotFound;
    if (!Covers(h->mode, mode)) return StatusCode::kInvalidArgument;
    h->mode = mode;
    return StatusCode::kOk;
  }

  size_t ReleaseAll(TxnId txn) {
    size_t n = 0;
    for (auto it = table_.begin(); it != table_.end();) {
      n += it->second.erase(txn);
      it = it->second.empty() ? table_.erase(it) : std::next(it);
    }
    return n;
  }

  StatusCode Restore(const std::vector<LongLockRecord>& records) {
    for (const LongLockRecord& rec : records) {
      if (rec.txn == kInvalidTxn || rec.resource.is_lane()) {
        return StatusCode::kInvalidArgument;
      }
    }
    for (size_t i = 0; i < records.size(); ++i) {
      const LongLockRecord& rec = records[i];
      for (size_t j = 0; j < i; ++j) {
        if (records[j].txn != rec.txn &&
            Key(records[j].resource) == Key(rec.resource) &&
            !Compatible(rec.mode, records[j].mode)) {
          return StatusCode::kInternal;
        }
      }
      auto it = table_.find(Key(rec.resource));
      if (it == table_.end()) continue;
      for (const auto& [other, h] : it->second) {
        if (other != rec.txn && !Compatible(rec.mode, h.mode)) {
          return StatusCode::kInternal;
        }
      }
    }
    for (const LongLockRecord& rec : records) {
      RefHold& h = table_[Key(rec.resource)][rec.txn];
      h.mode = Supremum(h.mode, rec.mode);
      h.count = std::max<uint32_t>(h.count, 1);
      h.is_long = true;
    }
    return StatusCode::kOk;
  }

  /// The table a crash leaves: the long holds, each with one count (what
  /// `RestoreLongLocks` installs).
  RefTable Crash() const {
    RefTable after;
    for (const auto& [key, holders] : table_) {
      for (const auto& [txn, h] : holders) {
        if (h.is_long) after.table_[key][txn] = RefHold{h.mode, 1, true};
      }
    }
    return after;
  }

  LockMode HeldMode(TxnId txn, ResourceId r) const {
    const RefHold* h = Find(txn, r);
    return h == nullptr ? LockMode::kNL : h->mode;
  }

  LockMode GroupMode(ResourceId r) const {
    LockMode m = LockMode::kNL;
    auto it = table_.find(Key(r));
    if (it == table_.end()) return m;
    for (const auto& [txn, h] : it->second) m = Supremum(m, h.mode);
    return m;
  }

  std::vector<HeldLock> LocksOf(TxnId txn) const {
    std::vector<HeldLock> out;
    for (const auto& [key, holders] : table_) {
      auto it = holders.find(txn);
      if (it == holders.end()) continue;
      out.push_back(HeldLock{{key.first, key.second},
                             it->second.mode,
                             it->second.is_long ? LockDuration::kLong
                                                : LockDuration::kShort});
    }
    return out;
  }

  size_t NumEntries() const { return table_.size(); }

  std::vector<LongLockRecord> Snapshot(bool long_only) const {
    std::vector<LongLockRecord> out;
    for (const auto& [key, holders] : table_) {
      for (const auto& [txn, h] : holders) {
        if (!long_only || h.is_long) {
          out.push_back({txn, {key.first, key.second}, h.mode});
        }
      }
    }
    return out;
  }

 private:
  using GranuleKey = std::pair<uint32_t, uint64_t>;

  static GranuleKey Key(ResourceId r) { return {r.node, r.instance}; }

  const RefHold* Find(TxnId txn, ResourceId r) const {
    auto it = table_.find(Key(r));
    if (it == table_.end()) return nullptr;
    auto h = it->second.find(txn);
    return h == it->second.end() ? nullptr : &h->second;
  }

  RefHold* Find(TxnId txn, ResourceId r) {
    return const_cast<RefHold*>(std::as_const(*this).Find(txn, r));
  }

  void Erase(TxnId txn, ResourceId r) {
    auto it = table_.find(Key(r));
    it->second.erase(txn);
    if (it->second.empty()) table_.erase(it);
  }

  bool Grantable(TxnId txn, ResourceId r, LockMode mode) {
    const RefHold* mine = Find(txn, r);
    if (mine != nullptr && Covers(mine->mode, mode)) return true;
    const LockMode target =
        mine != nullptr ? Supremum(mine->mode, mode) : mode;
    auto it = table_.find(Key(r));
    if (it == table_.end()) return true;
    for (const auto& [other, h] : it->second) {
      if (other != txn && !Compatible(target, h.mode)) return false;
    }
    return true;
  }

  std::map<GranuleKey, std::map<TxnId, RefHold>> table_;
};

// ---- The scripts ----------------------------------------------------------

constexpr ResourceId kDb{1, 0};
constexpr ResourceId kSeg{2, 0};
constexpr ResourceId kRels[] = {{3, 0}, {4, 0}};
constexpr uint64_t kObjects = 3;  // instances 1..3 of node 5
constexpr uint64_t kParts = 3;    // instances 1..3 of node 6

std::vector<ResourceId> Universe() {
  std::vector<ResourceId> all = {kDb, kSeg, kRels[0], kRels[1]};
  for (uint64_t i = 1; i <= kObjects; ++i) all.push_back({5, i});
  for (uint64_t i = 1; i <= kParts; ++i) all.push_back({6, i});
  return all;
}

constexpr LockMode kModes[] = {LockMode::kIS, LockMode::kIX, LockMode::kS,
                               LockMode::kSIX, LockMode::kX};

std::string Name(LockMode m) { return std::string(LockModeName(m)); }

/// One live transaction, with or without a \p handle.  A transaction with
/// one acquires, releases and downgrades through it or by id: both take
/// the same path, the handle only saves the id's lookup.
struct LiveTxn {
  TxnId id = kInvalidTxn;
  std::shared_ptr<TxnLocks> handle;
};

using Hold = std::tuple<TxnId, uint32_t, uint64_t, LockMode, bool>;

std::string Show(const std::vector<Hold>& holds) {
  std::ostringstream os;
  for (const auto& [txn, node, instance, mode, is_long] : holds) {
    os << " T" << txn << ":" << ResourceId{node, instance}.ToString() << "="
       << Name(mode) << (is_long ? "L" : "");
  }
  return os.str();
}

std::vector<Hold> Sorted(TxnId txn, const std::vector<HeldLock>& held) {
  std::vector<Hold> out;
  for (const HeldLock& h : held) {
    out.emplace_back(txn, h.resource.node, h.resource.instance, h.mode,
                     h.duration == LockDuration::kLong);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Hold> Sorted(const std::vector<LongLockRecord>& recs) {
  std::vector<Hold> out;
  for (const LongLockRecord& r : recs) {
    out.emplace_back(r.txn, r.resource.node, r.resource.instance, r.mode,
                     false);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ScriptRunner {
 public:
  explicit ScriptRunner(uint64_t seed) : rng_(seed), all_(Universe()) {}

  /// Runs \p steps steps; returns "" or the first difference, after the
  /// script that led to it.
  std::string Run(int steps) {
    const int live = static_cast<int>(rng_.UniformRange(3, 6));
    for (int i = 0; i < live; ++i) Spawn();
    for (int s = 0; s < steps; ++s) {
      std::string diff = Step();
      if (diff.empty()) diff = Inspect();
      if (!diff.empty()) return script_.str() + "  => " + diff;
    }
    return "";
  }

 private:
  void Spawn() {
    LiveTxn t{next_id_, nullptr};
    next_id_ += rng_.UniformRange(1, 3);  // vary the lanes
    if (rng_.Bernoulli(0.5)) t.handle = lm_->Begin(t.id);
    txns_.push_back(t);
  }

  LockMode AnyMode() { return kModes[rng_.Uniform(5)]; }
  ResourceId AnyResource() { return all_[rng_.Uniform(all_.size())]; }

  /// Mostly a resource \p txn holds, so releases reach the last count.
  ResourceId HeldOrAny(TxnId txn) {
    const std::vector<HeldLock> held = ref_.LocksOf(txn);
    if (held.empty() || rng_.Bernoulli(0.2)) return AnyResource();
    return held[rng_.Uniform(held.size())].resource;
  }

  std::vector<ResourceId> AnyPath() {
    std::vector<ResourceId> path = {kDb, kSeg, kRels[rng_.Uniform(2)],
                                    {5, rng_.UniformRange(1, kObjects)},
                                    {6, rng_.UniformRange(1, kParts)}};
    path.resize(rng_.UniformRange(1, path.size()));
    return path;
  }

  static std::string ShowPath(const std::vector<ResourceId>& path) {
    std::string s;
    for (const ResourceId& r : path) {
      if (!s.empty()) s += ',';
      s += r.ToString();
    }
    return s;
  }

  std::string Compare(StatusCode got, StatusCode want) {
    if (got == want) return "";
    return std::string("status ") + std::string(StatusCodeName(got)) +
           ", reference " + std::string(StatusCodeName(want));
  }

  std::string Step() {
    LiveTxn& t = txns_[rng_.Uniform(txns_.size())];
    TxnLocks* handle = t.handle.get();
    const uint64_t op = rng_.Uniform(100);
    if (op < 45) {
      const std::vector<ResourceId> path =
          rng_.Bernoulli(0.3) ? std::vector<ResourceId>{AnyResource()}
                              : AnyPath();
      const LockMode mode = AnyMode();
      AcquireOptions o;
      o.wait = false;
      o.duration = rng_.Bernoulli(0.3) ? LockDuration::kLong
                                       : LockDuration::kShort;
      TxnLocks* via = rng_.Bernoulli(0.8) ? handle : nullptr;
      const bool single = path.size() == 1 && rng_.Bernoulli(0.5);
      script_ << "  T" << t.id << (single ? " Acquire " : " AcquirePath ")
              << ShowPath(path) << " " << Name(mode)
              << (o.duration == LockDuration::kLong ? " long" : "")
              << (via != nullptr ? " (handle)" : "") << "\n";
      const Status st =
          single ? lm_->Acquire(t.id, path[0], mode, o, via)
                 : lm_->AcquirePath(t.id, path, mode, o, via);
      return Compare(st.code(), ref_.AcquirePath(t.id, path, mode,
                                                 o.duration ==
                                                     LockDuration::kLong));
    }
    if (op < 70) {
      const ResourceId r = HeldOrAny(t.id);
      TxnLocks* via = rng_.Bernoulli(0.8) ? handle : nullptr;
      script_ << "  T" << t.id << " Release " << r.ToString()
              << (via != nullptr ? " (handle)" : "") << "\n";
      return Compare(lm_->Release(t.id, r, via).code(),
                     ref_.Release(t.id, r));
    }
    if (op < 80) {
      const ResourceId r = HeldOrAny(t.id);
      const LockMode mode = AnyMode();
      TxnLocks* via = rng_.Bernoulli(0.8) ? handle : nullptr;
      script_ << "  T" << t.id << " Downgrade " << r.ToString() << " "
              << Name(mode) << (via != nullptr ? " (handle)" : "") << "\n";
      return Compare(lm_->Downgrade(t.id, r, mode, via).code(),
                     ref_.Downgrade(t.id, r, mode));
    }
    if (op < 88) {
      script_ << "  T" << t.id << " ReleaseAll\n";
      const size_t got = lm_->ReleaseAll(t.id);
      const size_t want = ref_.ReleaseAll(t.id);
      t = txns_.back();  // the id is never used again, nor its handle
      txns_.pop_back();
      Spawn();
      if (got == want) return "";
      return "ReleaseAll returned " + std::to_string(got) + ", reference " +
             std::to_string(want);
    }
    if (op < 95) {
      std::vector<LongLockRecord> recs;
      script_ << "  Restore";
      for (uint64_t i = rng_.UniformRange(1, 2); i > 0; --i) {
        LongLockRecord rec{txns_[rng_.Uniform(txns_.size())].id,
                           AnyResource(), AnyMode()};
        if (rng_.Bernoulli(0.05)) rec.resource = rec.resource.Lane(2);
        script_ << " T" << rec.txn << ":" << rec.resource.ToString() << "="
                << Name(rec.mode);
        recs.push_back(rec);
      }
      script_ << "\n";
      return Compare(lm_->RestoreLongLocks(recs).code(), ref_.Restore(recs));
    }
    // A crash: a fresh manager reloads the long locks.
    script_ << "  Crash\n";
    const std::vector<LongLockRecord> saved = lm_->SnapshotLongLocks();
    lm_ = std::make_unique<LockManager>();
    ref_ = ref_.Crash();
    for (LiveTxn& live : txns_) {
      live.handle = rng_.Bernoulli(0.5) ? lm_->Begin(live.id) : nullptr;
    }
    return Compare(lm_->RestoreLongLocks(saved).code(), StatusCode::kOk);
  }

  std::string Inspect() {
    if (lm_->NumEntries() != ref_.NumEntries()) {
      return "NumEntries " + std::to_string(lm_->NumEntries()) +
             ", reference " + std::to_string(ref_.NumEntries());
    }
    for (const ResourceId& r : all_) {
      if (lm_->GroupMode(r) != ref_.GroupMode(r)) {
        return "GroupMode " + r.ToString() + " " + Name(lm_->GroupMode(r)) +
               ", reference " + Name(ref_.GroupMode(r));
      }
      for (const LiveTxn& t : txns_) {
        const LockMode got = lm_->HeldMode(t.id, r);
        const LockMode want = ref_.HeldMode(t.id, r);
        if (got != want) {
          return "HeldMode T" + std::to_string(t.id) + " " + r.ToString() +
                 " " + Name(got) + ", reference " + Name(want);
        }
      }
    }
    for (const LiveTxn& t : txns_) {
      const std::vector<Hold> got = Sorted(t.id, lm_->LocksOf(t.id));
      const std::vector<Hold> want = Sorted(t.id, ref_.LocksOf(t.id));
      if (got != want) {
        return "LocksOf T" + std::to_string(t.id) + Show(got) +
               "; reference" + Show(want);
      }
    }
    for (bool long_only : {false, true}) {
      const std::vector<Hold> got = Sorted(
          long_only ? lm_->SnapshotLongLocks() : lm_->SnapshotAllLocks());
      const std::vector<Hold> want = Sorted(ref_.Snapshot(long_only));
      if (got != want) {
        return std::string(long_only ? "SnapshotLongLocks"
                                     : "SnapshotAllLocks") +
               Show(got) + "; reference" + Show(want);
      }
    }
    return "";
  }

  Rng rng_;
  const std::vector<ResourceId> all_;
  std::unique_ptr<LockManager> lm_ = std::make_unique<LockManager>();
  RefTable ref_;
  std::vector<LiveTxn> txns_;
  TxnId next_id_ = 1;
  std::ostringstream script_;
};

TEST(LockReferenceTest, LockManagerMatchesTheReference) {
  constexpr uint64_t kSeeds = 400;
  constexpr int kSteps = 40;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string diff = ScriptRunner(seed).Run(kSteps);
    ASSERT_TRUE(diff.empty()) << "seed " << seed << ":\n" << diff;
  }
}

}  // namespace
}  // namespace codlock::lock
