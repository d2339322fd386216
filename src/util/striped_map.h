/// \file striped_map.h
/// \brief An id-keyed hash map split into stripes, each behind its own
/// mutex.
///
/// The transaction registries (`TxnManager`'s id → `Transaction` map and
/// `LockManager`'s id → `TxnLocks` map) are touched at every begin and
/// end of a transaction; one mutex per registry would serialize
/// transactions that share no data.  A `StripedMap` keys each id to a
/// fixed stripe (`id % kStripes`), so an operation on one id locks only
/// that id's stripe; consecutive ids, which concurrent transactions get,
/// land on different stripes.  Each stripe sits on its own cache line(s),
/// so stripes do not false-share.
///
/// Operations on one key are atomic (`With` runs the caller's function
/// with the stripe locked).  Whole-map reads (`Size`, `ForEach`) visit the
/// stripes one at a time and are not a snapshot: callers use them for
/// inspection only.

#ifndef CODLOCK_UTIL_STRIPED_MAP_H_
#define CODLOCK_UTIL_STRIPED_MAP_H_

#include <array>
#include <cstddef>
#include <type_traits>
#include <unordered_map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace codlock {

template <typename Key, typename Value>
class StripedMap {
  static_assert(std::is_unsigned_v<Key>, "StripedMap is keyed by an id");

 public:
  /// Number of stripes.  On perfbench `disjoint_update` (4 client
  /// threads, 4-vCPU host) the two registries, each behind one mutex,
  /// took 0.51–0.63 contended acquisitions per transaction; with 64
  /// stripes each, none of the 0.019–0.027 left is on a stripe
  /// (DESIGN.md §11(d)).  A stripe takes 128 bytes on x86-64, so a map's
  /// stripes take 8 KB.  A power of two, so the stripe index is a mask.
  static constexpr size_t kStripes = 64;

  /// The stripe \p key belongs to.
  static constexpr size_t StripeOf(Key key) {
    return static_cast<size_t>(key) & (kStripes - 1);
  }

  /// Runs `fn(map)` with \p key's stripe locked, where `map` holds every
  /// entry of that stripe (and only those), and returns its result.  \p fn
  /// must not call back into this map.
  template <typename Fn>
  decltype(auto) With(Key key, Fn&& fn) {
    Stripe& s = stripes_[StripeOf(key)];
    MutexLock lk(s.mu);
    return fn(s.map);
  }
  template <typename Fn>
  decltype(auto) With(Key key, Fn&& fn) const {
    const Stripe& s = stripes_[StripeOf(key)];
    MutexLock lk(s.mu);
    return fn(s.map);
  }

  /// Runs `fn(key, value)` for every entry, one stripe locked at a time.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Stripe& s : stripes_) {
      MutexLock lk(s.mu);
      for (const auto& [key, value] : s.map) fn(key, value);
    }
  }

  /// Number of entries, summed over the stripes one at a time.
  size_t Size() const {
    size_t n = 0;
    for (const Stripe& s : stripes_) {
      MutexLock lk(s.mu);
      n += s.map.size();
    }
    return n;
  }

 private:
  /// 64 bytes is the cache-line size of x86-64 and most AArch64 parts.
  struct alignas(64) Stripe {
    mutable Mutex mu;
    std::unordered_map<Key, Value> map CODLOCK_GUARDED_BY(mu);
  };

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace codlock

#endif  // CODLOCK_UTIL_STRIPED_MAP_H_
