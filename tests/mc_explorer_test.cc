/// \file mc_explorer_test.cc
/// \brief Tests for exhaustive schedule exploration.
///
/// The explorer's value rests on three properties these tests pin down:
/// *determinism* (the same configuration always enumerates the same
/// schedules — replayability is what makes a violating schedule a usable
/// bug report), *soundness of the pruning* (sleep-set POR must not hide
/// violations — checked indirectly: POR on and off agree),
/// and *cleanliness of the real protocol* (every workload × policy
/// configuration passes all five oracles; the mutation kill-suite in
/// mc_mutation_test.cc establishes the oracles are not vacuous).

#include "mc/explorer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mc/workload.h"

namespace codlock::mc {
namespace {

using lock::DeadlockPolicy;

std::string Describe(const ExploreStats& s) {
  std::ostringstream os;
  os << "executions=" << s.executions << " terminals=" << s.terminals
     << " sleep_blocked=" << s.sleep_blocked
     << " sibling_prunes=" << s.sibling_prunes
     << " violating=" << s.violating_executions
     << " max_depth=" << s.max_depth;
  for (const std::string& m : s.violation_messages) os << "\n  " << m;
  return os.str();
}

const DeadlockPolicy kAllPolicies[] = {
    DeadlockPolicy::kDetect, DeadlockPolicy::kWoundWait,
    DeadlockPolicy::kWaitDie, DeadlockPolicy::kTimeoutOnly};

TEST(McExplorerTest, SharedEffectorIsCleanWithKnownScheduleCount) {
  ExploreOptions opts;
  ExploreStats s = Explore(SharedEffectorWorkload(), opts);
  EXPECT_TRUE(s.clean()) << Describe(s);
  EXPECT_FALSE(s.hit_execution_cap);
  // Two 2-op transactions: tiny, so the exact schedule count is stable
  // enough to pin (a change here means the protocol's locking behaviour
  // or the POR dependence relation changed — worth noticing).
  EXPECT_EQ(s.executions, 4u) << Describe(s);
  EXPECT_EQ(s.terminals, 4u) << Describe(s);
  EXPECT_EQ(s.max_depth, 4) << Describe(s);
}

TEST(McExplorerTest, ExplorationIsDeterministic) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    ExploreOptions opts;
    ExploreStats a = Explore(w, opts);
    ExploreStats b = Explore(w, opts);
    EXPECT_EQ(a.executions, b.executions) << w.name;
    EXPECT_EQ(a.terminals, b.terminals) << w.name;
    EXPECT_EQ(a.sleep_blocked, b.sleep_blocked) << w.name;
    EXPECT_EQ(a.sibling_prunes, b.sibling_prunes) << w.name;
    EXPECT_EQ(a.violating_executions, b.violating_executions) << w.name;
    EXPECT_EQ(a.max_depth, b.max_depth) << w.name;
  }
}

TEST(McExplorerTest, AllWorkloadsCleanUnderEveryPolicy) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    for (DeadlockPolicy policy : kAllPolicies) {
      ExploreOptions opts;
      opts.run.policy = policy;
      ExploreStats s = Explore(w, opts);
      EXPECT_TRUE(s.clean()) << w.name << "/" << DeadlockPolicyName(policy)
                             << ": " << Describe(s);
      EXPECT_FALSE(s.hit_execution_cap) << w.name;
      EXPECT_GT(s.executions, 0u) << w.name;
      EXPECT_GT(s.terminals, 0u) << w.name;
    }
  }
}

TEST(McExplorerTest, CrossDeadlockTerminatesUnderEveryPolicy) {
  // Opposite-order lock acquisition is the canonical deadlock; every
  // policy must terminate every interleaving of it, and under the
  // non-timeout policies without any injected timeout (oracle (e) turns a
  // needed injection into a violation, so clean() covers that too).
  for (DeadlockPolicy policy : kAllPolicies) {
    ExploreOptions opts;
    opts.run.policy = policy;
    ExploreStats s = Explore(CrossDeadlockWorkload(), opts);
    EXPECT_TRUE(s.clean()) << DeadlockPolicyName(policy) << ": "
                           << Describe(s);
    EXPECT_GT(s.terminals, 0u) << DeadlockPolicyName(policy);
  }
}

TEST(McExplorerTest, PartialOrderReductionPrunesButAgreesOnCleanliness) {
  ExploreOptions with_por;
  ExploreOptions without_por;
  without_por.use_por = false;
  for (const WorkloadSpec& w : AllWorkloads()) {
    ExploreStats reduced = Explore(w, with_por);
    ExploreStats full = Explore(w, without_por);
    EXPECT_TRUE(reduced.clean()) << w.name << ": " << Describe(reduced);
    EXPECT_TRUE(full.clean()) << w.name << ": " << Describe(full);
    // POR must never *add* schedules, and on these workloads (independent
    // steps exist in all of them) it must prune some.
    EXPECT_LT(reduced.executions, full.executions) << w.name;
    // Every full-depth behaviour still gets represented: the deepest
    // decision sequence survives reduction.
    EXPECT_EQ(reduced.max_depth, full.max_depth) << w.name;
  }
}

TEST(McExplorerTest, ExecutionCapIsHonoured) {
  ExploreOptions opts;
  opts.use_por = false;
  opts.max_executions = 3;
  ExploreStats s = Explore(SideEntryWorkload(), opts);
  EXPECT_TRUE(s.hit_execution_cap);
  EXPECT_LE(s.executions, 3u);
}

}  // namespace
}  // namespace codlock::mc
