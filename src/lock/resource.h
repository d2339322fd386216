/// \file resource.h
/// \brief Identification of lockable resources.
///
/// A lockable resource is an *instance* of a lock-graph node: the pair
/// (lock-graph node id, instance id).  Coarse singleton granules
/// (database, segment, relation) use instance id 0; sub-objects of complex
/// objects use the instance id the `InstanceStore` assigned to their value
/// node.  A shared complex object (inner unit) is identified by its root
/// tuple's instance id, which is path-independent — the property that makes
/// "from-the-side" accesses collide on the same lock-table entry.
///
/// Bit 63 of the instance id is reserved for the lock manager's *lanes*:
/// it splits every singleton granule into `kLanes` lane entries
/// (lock_manager.h), tagged `kLaneBit | lane`.  Instance ids from outside
/// the lock manager stay below 2^63; the long-lock decoder and
/// `RestoreLongLocks` refuse one with the bit set.

#ifndef CODLOCK_LOCK_RESOURCE_H_
#define CODLOCK_LOCK_RESOURCE_H_

#include <cstdint>
#include <functional>
#include <string>

namespace codlock::lock {

/// Transaction identifier.  Ids are assigned in `Begin` order, so a larger
/// id means a younger transaction (used by deadlock victim selection).
using TxnId = uint64_t;

inline constexpr TxnId kInvalidTxn = 0;

/// Number of lanes a singleton granule is split into (lock_manager.h).
inline constexpr uint64_t kLanes = 8;

/// Instance bit marking a lane of a singleton granule.
inline constexpr uint64_t kLaneBit = uint64_t{1} << 63;

/// \brief A lockable resource: lock-graph node instance.
struct ResourceId {
  /// Lock-graph node (see logra::LockGraph); identifies the granule kind.
  uint32_t node = 0;
  /// Instance id of the concrete sub-object (0 for singleton granules).
  uint64_t instance = 0;

  friend bool operator==(const ResourceId&, const ResourceId&) = default;

  /// True for a singleton granule (instance 0).
  constexpr bool singleton() const { return instance == 0; }

  /// True for a lane of a singleton granule.
  constexpr bool is_lane() const { return (instance & kLaneBit) != 0; }

  /// Lane index of a lane resource.
  constexpr uint64_t lane() const { return instance & ~kLaneBit; }

  /// Lane \p k of this singleton granule.
  constexpr ResourceId Lane(uint64_t k) const { return {node, kLaneBit | k}; }

  /// "n3/i17"; a lane prints as its granule and lane, "n3/i0@lane5".
  std::string ToString() const {
    // Appended piece by piece: GCC 12 at -O3 reports a false -Wrestrict
    // overlap in the inlined temporaries of `"n" + std::to_string(node)`.
    std::string out = "n";
    out += std::to_string(node);
    out += is_lane() ? "/i0@lane" : "/i";
    out += std::to_string(is_lane() ? lane() : instance);
    return out;
  }
};

/// The lane a transaction's intention locks on singleton granules use.
inline constexpr uint64_t LaneOf(TxnId txn) { return txn % kLanes; }

struct ResourceIdHash {
  size_t operator()(const ResourceId& r) const {
    uint64_t h = r.instance * 0x9E3779B97F4A7C15ULL;
    h ^= (static_cast<uint64_t>(r.node) + 0x9E3779B9U) + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

}  // namespace codlock::lock

#endif  // CODLOCK_LOCK_RESOURCE_H_
