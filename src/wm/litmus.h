/// \file litmus.h
/// \brief Registry of the weak-memory litmus harnesses `codlock_wmc` runs.
///
/// Each harness is a bounded kernel small enough for the checker to
/// enumerate every consistent execution (DESIGN.md §12).
///
/// Two kinds of entry:
///
///  * protocol harnesses — must be violation-free and explore completely;
///  * self-check harnesses (`expect_violation`) — textbook-broken kernels
///    (e.g. message passing over relaxed accesses) that must *always*
///    produce a violation, proving the race detector and invariant
///    machinery actually fire.  A checker that cannot fail its own
///    negative controls proves nothing.

#ifndef CODLOCK_WM_LITMUS_H_
#define CODLOCK_WM_LITMUS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "wm/checker.h"

namespace codlock::wm::litmus {

struct Harness {
  const char* name;
  const char* description;
  /// Execution budget used when the caller does not override it; sized so
  /// the harness explores completely with generous headroom.
  uint64_t default_budget;
  /// Negative control: the harness is *expected* to report a violation.
  bool expect_violation;
  Result (*run)(Checker::Options opts);
};

const std::vector<Harness>& AllHarnesses();
const Harness* FindHarness(std::string_view name);

}  // namespace codlock::wm::litmus

#endif  // CODLOCK_WM_LITMUS_H_
