/// \file mc_mutation_test.cc
/// \brief Mutation harness: every seeded protocol mutant must be caught.
///
/// An oracle that never fires proves nothing.  This harness flips one
/// protocol invariant at a time (`util/mutation_points.h`) and asserts
/// that exhaustive exploration of a small workload produces at least one
/// oracle violation — i.e. the model checker *kills* the mutant.  The
/// unmutated build must stay clean on the same workloads, so a kill is
/// attributable to the mutant alone.
///
/// Mutant → workload → expected oracle:
///
///  * compat-sx                 → side-entry      → (a) compatibility
///  * skip-upward-propagation   → side-entry      → (b) visibility (the
///    relation-level X writer no longer sees inner-unit use)
///  * skip-downward-propagation → side-entry      → (b) visibility (the
///    from-the-side writer races the outer unit's implicit locks)
///  * keep-rows-at-end          → shared-effector → (d) held rows (a
///    committed transaction's rows claim holds ReleaseAll freed)
///  * skip-waiter-wakeup        → side-entry      → (e) termination (a
///    granted-but-unnotified waiter wedges the schedule)

#include <gtest/gtest.h>

#include <string>

#include "mc/explorer.h"
#include "mc/workload.h"
#include "util/mutation_points.h"

namespace codlock::mc {
namespace {

std::string Join(const std::vector<std::string>& msgs) {
  std::string out;
  for (const std::string& m : msgs) {
    out += "\n  ";
    out += m;
  }
  return out;
}

ExploreStats ExploreDefault(const WorkloadSpec& w) {
  ExploreOptions opts;  // kDetect, POR on
  return Explore(w, opts);
}

/// Runs the kill check for one mutant: exploration must report at least
/// one violating execution, and at least one reported message must come
/// from the expected oracle (identified by its message prefix — a mutant
/// may trip secondary oracles too, but the designated one must fire).
void ExpectKilled(mutation::Mutant m, const WorkloadSpec& w,
                  const std::string& oracle_prefix) {
  ASSERT_FALSE(mutation::Enabled(m));
  ExploreStats stats;
  {
    mutation::ScopedMutant guard(m);
    stats = ExploreDefault(w);
  }
  EXPECT_FALSE(mutation::Enabled(m));
  EXPECT_FALSE(stats.clean())
      << mutation::MutantName(m) << " survived " << w.name;
  ASSERT_FALSE(stats.violation_messages.empty());
  bool expected_oracle_fired = false;
  for (const std::string& msg : stats.violation_messages) {
    if (msg.rfind(oracle_prefix, 0) == 0) expected_oracle_fired = true;
  }
  EXPECT_TRUE(expected_oracle_fired)
      << mutation::MutantName(m) << " was killed, but not by the \""
      << oracle_prefix << "\" oracle:" << Join(stats.violation_messages);
}

TEST(McMutationTest, UnmutatedBaselineIsClean) {
  // Guards attribution: if this fails, kill verdicts below mean nothing.
  for (const WorkloadSpec& w :
       {SharedEffectorWorkload(), SideEntryWorkload()}) {
    ExploreStats s = ExploreDefault(w);
    EXPECT_TRUE(s.clean()) << w.name << Join(s.violation_messages);
  }
}

TEST(McMutationTest, KillsCompatSX) {
  ExpectKilled(mutation::Mutant::kCompatSX, SideEntryWorkload(),
               "compatibility:");
}

TEST(McMutationTest, KillsSkipUpwardPropagation) {
  ExpectKilled(mutation::Mutant::kSkipUpwardPropagation, SideEntryWorkload(),
               "visibility:");
}

TEST(McMutationTest, KillsSkipDownwardPropagation) {
  ExpectKilled(mutation::Mutant::kSkipDownwardPropagation,
               SideEntryWorkload(), "visibility:");
}

TEST(McMutationTest, KillsKeepRowsAtEnd) {
  ExpectKilled(mutation::Mutant::kKeepRowsAtEnd, SharedEffectorWorkload(),
               "rows:");
}

TEST(McMutationTest, KillsSkipWaiterWakeup) {
  ExpectKilled(mutation::Mutant::kSkipWaiterWakeup, SideEntryWorkload(),
               "termination:");
}

}  // namespace
}  // namespace codlock::mc
