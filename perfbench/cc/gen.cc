#include "gen.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

ZipfSampler::ZipfSampler(uint64_t n, double s) : cdf_(n) {
  double sum = 0;
  for (uint64_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t ZipfSampler::Sample(codlock::Rng& rng) const {
  const double u = rng.NextDouble();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint64_t>(it - cdf_.begin());
}

namespace {

std::string CellKey(int cell) { return "c" + std::to_string(cell); }

std::string RobotKey(int cell, int robot_in_cell, int robots_per_cell) {
  return "r" + std::to_string((cell - 1) * robots_per_cell + robot_in_cell);
}

std::string RobotText(int cell, int robot, int robots_per_cell, bool update) {
  return "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = '" +
         CellKey(cell) + "' AND r.robot_id = '" +
         RobotKey(cell, robot, robots_per_cell) + "' FOR " +
         (update ? "UPDATE" : "READ");
}

std::string CellText(int cell) {
  return "SELECT c FROM c IN cells WHERE c.cell_id = '" + CellKey(cell) +
         "' FOR READ";
}

}  // namespace

std::vector<TxnInput> GenShortMix(uint64_t seed, size_t n,
                                  const ShortMixShape& shape) {
  codlock::Rng rng(seed);
  ZipfSampler zipf(static_cast<uint64_t>(shape.cells), shape.zipf_s);
  std::vector<TxnInput> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int cell = static_cast<int>(zipf.Sample(rng)) + 1;
    const int robot =
        static_cast<int>(rng.Uniform(static_cast<uint64_t>(shape.robots_per_cell))) + 1;
    const double u = rng.NextDouble();
    const uint64_t updater =
        rng.Bernoulli(0.5) ? kCellsOnly : kCellsAndEffectors;
    TxnInput in;
    if (u < 0.6) {
      in.kind = MixKind::kReadRobot;
      in.text = RobotText(cell, robot, shape.robots_per_cell, false);
    } else if (u < 0.8) {
      in.kind = MixKind::kUpdateRobot;
      in.write = true;
      in.user = updater;
      in.text = RobotText(cell, robot, shape.robots_per_cell, true);
    } else if (u < 0.9) {
      in.kind = MixKind::kReadCell;
      in.text = CellText(cell);
    } else {
      in.kind = MixKind::kUpdateCell;
      in.write = true;
      in.user = updater;
      in.text = "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = '" +
                CellKey(cell) + "' FOR UPDATE";
    }
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<TxnInput> GenDisjoint(uint64_t seed, size_t n,
                                  const std::vector<std::string>& root_keys) {
  codlock::Rng rng(seed);
  std::vector<TxnInput> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TxnInput in;
    in.write = true;
    in.text = "SELECT p FROM p IN parts WHERE p.n2_id = '" +
              root_keys[rng.Uniform(root_keys.size())] + "' FOR UPDATE";
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<SessionInput> GenSessions(uint64_t seed, size_t n, int thread,
                                      const RingShape& shape) {
  codlock::Rng rng(seed * 7919 + static_cast<uint64_t>(thread));
  const int first_private =
      shape.parked + shape.shared_pool + 1 + thread * shape.private_per_thread;
  std::vector<SessionInput> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SessionInput in;
    if (rng.Bernoulli(shape.shared_share)) {
      in.shared = true;
      in.text = CellText(
          shape.parked + 1 +
          static_cast<int>(rng.Uniform(static_cast<uint64_t>(shape.shared_pool))));
    } else {
      const int cell =
          first_private +
          static_cast<int>(rng.Uniform(static_cast<uint64_t>(shape.private_per_thread)));
      const int robot = static_cast<int>(rng.Uniform(
                            static_cast<uint64_t>(shape.robots_per_cell))) +
                        1;
      in.text = RobotText(cell, robot, shape.robots_per_cell, true);
    }
    out.push_back(std::move(in));
  }
  return out;
}

std::string ParkText(int cell) {
  return "SELECT c FROM c IN cells WHERE c.cell_id = '" + CellKey(cell) +
         "' FOR UPDATE";
}

}  // namespace perfbench
