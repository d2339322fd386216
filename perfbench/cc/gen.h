// Seeded input generators: HDBL query texts and their request metadata.
//
// Every input a workload sends is generated here from the run's seed
// before timing starts; the system under test only ever sees the
// generated texts.  Key names follow `sim::BuildCellsEffectors` (cells
// "c1".."cN", robots numbered globally "r1".. three per cell in order) and
// the synthetic fixture's root keys, which the caller passes in.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// Zipf(s) over ranks 0..n-1 (rank 0 the most frequent), by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);
  uint64_t Sample(codlock::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The four request kinds of `short_mix`.
enum class MixKind : uint8_t { kReadRobot, kUpdateRobot, kReadCell, kUpdateCell };

/// Users of the in-process workloads.  kCellsOnly may modify cells but
/// not effectors (rule 4′ then takes S on the effectors a robot update
/// reaches); kCellsAndEffectors may modify both (X propagates onto the
/// shared effectors).
inline constexpr uint64_t kCellsOnly = 1;
inline constexpr uint64_t kCellsAndEffectors = 2;

struct TxnInput {
  std::string text;
  uint64_t user = kCellsOnly;
  bool write = false;
  MixKind kind = MixKind::kReadRobot;
};

struct ShortMixShape {
  int cells = 1000;
  int robots_per_cell = 3;
  double zipf_s = 0.9;
};

/// `short_mix`: ~60% read one robot, ~20% update one robot, ~10% read a
/// whole cell, ~10% update a cell's c_objects; Zipf-skewed cells; updates
/// split evenly between the two users.
std::vector<TxnInput> GenShortMix(uint64_t seed, size_t n,
                                  const ShortMixShape& shape);

/// `disjoint_update`: one FOR UPDATE of a uniformly chosen complex object
/// of the synthetic "parts" relation per transaction.
std::vector<TxnInput> GenDisjoint(uint64_t seed, size_t n,
                                  const std::vector<std::string>& root_keys);

/// One `checkout_ring` session: the query text and its check-out mode.
struct SessionInput {
  std::string text;
  bool shared = false;
};

/// Cell layout of `checkout_ring`: cells 1..parked are parked (held
/// exclusively from set-up to the end), the next `shared_pool` cells are
/// only ever checked out shared, and each client thread owns
/// `private_per_thread` further cells for its exclusive robot sessions.
struct RingShape {
  int parked = 100;
  int shared_pool = 8;
  int private_per_thread = 400;
  int robots_per_cell = 3;
  double shared_share = 0.2;
  int total_cells(int threads) const {
    return parked + shared_pool + private_per_thread * threads;
  }
};

std::vector<SessionInput> GenSessions(uint64_t seed, size_t n, int thread,
                                      const RingShape& shape);

/// Text of the set-up check-out that parks cell \p cell.
std::string ParkText(int cell);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
