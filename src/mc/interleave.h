/// \file interleave.h
/// \brief Every order-preserving merge of a few actors' step scripts.
///
/// The ring and lease oracles model each party of a protocol as a short
/// script of atomic steps and replay every interleaving of those scripts.
/// The merges come out in depth-first order, lowest-numbered actor first.

#ifndef CODLOCK_MC_INTERLEAVE_H_
#define CODLOCK_MC_INTERLEAVE_H_

#include <cstddef>
#include <vector>

namespace codlock::mc {

/// All merges of \p actors' scripts that keep each script's own order.
template <typename Step>
std::vector<std::vector<Step>> Interleavings(
    const std::vector<std::vector<Step>>& actors) {
  std::vector<std::vector<Step>> out;
  std::vector<size_t> pos(actors.size(), 0);
  std::vector<Step> prefix;
  auto extend = [&](auto& self) -> void {
    bool done = true;
    for (size_t a = 0; a < actors.size(); ++a) {
      if (pos[a] >= actors[a].size()) continue;
      done = false;
      prefix.push_back(actors[a][pos[a]]);
      ++pos[a];
      self(self);
      --pos[a];
      prefix.pop_back();
    }
    if (done) out.push_back(prefix);
  };
  extend(extend);
  return out;
}

}  // namespace codlock::mc

#endif  // CODLOCK_MC_INTERLEAVE_H_
