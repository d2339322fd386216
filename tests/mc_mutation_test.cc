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
///  * drop-cache-invalidation   → shared-effector → (d) cache coherence
///    (stale fast-path slots survive commit)
///  * skip-waiter-wakeup        → side-entry      → (e) termination (a
///    granted-but-unnotified waiter wedges the schedule)
///  * fastpath.skip-validation  → side-entry      → (a) compatibility (an
///    unvalidated optimistic grant lands over an exclusive holder)

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
  ExploreOptions opts;  // kDetect, cache on, POR on
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

TEST(McMutationTest, KillsDropCacheInvalidation) {
  ExpectKilled(mutation::Mutant::kDropCacheInvalidation,
               SharedEffectorWorkload(), "cache:");
}

TEST(McMutationTest, KillsSkipWaiterWakeup) {
  ExpectKilled(mutation::Mutant::kSkipWaiterWakeup, SideEntryWorkload(),
               "termination:");
}

TEST(McMutationTest, KillsFastpathSkipValidation) {
  // Without the seqlock premise/revalidation, the optimistic fast path
  // grants a shared mode over a conflicting exclusive holder (e.g. T1's
  // propagation IS over T3's relation-level X); SnapshotAllLocks includes
  // fast-path slots, so the compatibility oracle sees the impossible pair.
  ExpectKilled(mutation::Mutant::kFastpathSkipValidation, SideEntryWorkload(),
               "compatibility:");
}

}  // namespace
}  // namespace codlock::mc
