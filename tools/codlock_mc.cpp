// codlock_mc — exhaustive interleaving model checker for the lock stack.
//
// Enumerates every distinguishable thread interleaving of small scripted
// multi-transaction workloads (sleep-set partial-order reduction), replays
// each schedule through the real LockManager / ComplexObjectProtocol /
// TxnManager stack and judges it against five oracles: compatibility-
// matrix soundness, implicit-lock visibility (§4.4 side entry), conflict-
// serializability of the committed history, held-row coherence, and
// termination under every deadlock policy.
//
// Usage:
//   codlock_mc [--workload=shared-effector|side-entry|cross-deadlock|all]
//              [--policy=detect|wound-wait|wait-die|timeout-only|all]
//              [--no-por] [--max-schedules=N]
//              [--mutant=<name>] [--kill-suite] [--lease-protocol]
//              [--ring-protocol] [--json] [--quiet]
//
// --lease-protocol switches to the lease/fencing explorer instead: every
// interleaving of {expiry, crash, sweep} x {W2 check-out/check-in} x
// {zombie check-in} is replayed against a fresh workstation server and
// judged by the lost-update/fencing oracles (mc/lease_oracle.h).
//
// --ring-protocol explores the job ring's slot state machine instead:
// every interleaving of two producers x one consumer x the PID reaper,
// crossed with every crash flavor for producer 1 (die at publish.claimed
// / mid-write / torn-write / publish.copied / publish.published /
// take.taking), judged by the reclaim-completeness / frame-conservation
// / quiescence / survivor-liveness oracles (mc/ring_oracle.h).
//
// Default mode explores all selected configurations and exits non-zero if
// any schedule violates an oracle.  With --mutant=<name> the named defect
// is switched on and the exit code inverts: 0 when at least one oracle
// *catches* the mutant, 1 when it survives.  --kill-suite runs the clean
// baseline plus all seeded protocol mutants (the lock workloads *and* the
// ring explorer's ring.skip-reclaim) and requires: baseline clean, every
// mutant killed.

#include <iostream>
#include <string>
#include <vector>

#include "mc/explorer.h"
#include "mc/lease_oracle.h"
#include "mc/ring_oracle.h"
#include "mc/workload.h"
#include "tool_common.h"
#include "util/mutation_points.h"

using namespace codlock;

namespace {

struct CliOptions {
  std::string workload = "all";
  std::string policy = "all";
  bool use_por = true;
  uint64_t max_schedules = 0;  // 0 = explorer default
  std::string mutant;
  bool kill_suite = false;
  bool lease_protocol = false;
  bool ring_protocol = false;
  bool json = false;
  bool quiet = false;
};

int Usage() {
  std::cerr
      << "usage: codlock_mc"
         " [--workload=shared-effector|side-entry|cross-deadlock|all]\n"
         "                  [--policy=detect|wound-wait|wait-die|"
         "timeout-only|all]\n"
         "                  [--no-por] [--max-schedules=N]\n"
         "                  [--mutant=<name>] [--kill-suite]"
         " [--lease-protocol]\n"
         "                  [--ring-protocol] [--json] [--quiet]\n"
         "mutants:";
  for (uint32_t m = 0;
       m < static_cast<uint32_t>(mutation::Mutant::kNumMutants); ++m) {
    std::cerr << " "
              << mutation::MutantName(static_cast<mutation::Mutant>(m));
  }
  std::cerr << "\n";
  return toolcli::kExitUsage;
}

std::vector<mc::WorkloadSpec> SelectWorkloads(const std::string& which,
                                              bool* ok) {
  *ok = true;
  if (which == "all") return mc::AllWorkloads();
  for (mc::WorkloadSpec& w : mc::AllWorkloads()) {
    if (w.name == which) return {std::move(w)};
  }
  *ok = false;
  return {};
}

std::vector<lock::DeadlockPolicy> SelectPolicies(const std::string& which,
                                                 bool* ok) {
  using lock::DeadlockPolicy;
  *ok = true;
  if (which == "all") {
    return {DeadlockPolicy::kDetect, DeadlockPolicy::kWoundWait,
            DeadlockPolicy::kWaitDie, DeadlockPolicy::kTimeoutOnly};
  }
  if (which == "detect") return {DeadlockPolicy::kDetect};
  if (which == "wound-wait") return {DeadlockPolicy::kWoundWait};
  if (which == "wait-die") return {DeadlockPolicy::kWaitDie};
  if (which == "timeout-only") return {DeadlockPolicy::kTimeoutOnly};
  *ok = false;
  return {};
}

bool ParseMutant(const std::string& name, mutation::Mutant* out) {
  for (uint32_t m = 0;
       m < static_cast<uint32_t>(mutation::Mutant::kNumMutants); ++m) {
    if (mutation::MutantName(static_cast<mutation::Mutant>(m)) == name) {
      *out = static_cast<mutation::Mutant>(m);
      return true;
    }
  }
  return false;
}

void PrintStats(const CliOptions& cli, const mc::WorkloadSpec& w,
                lock::DeadlockPolicy policy, const mc::ExploreStats& s) {
  if (cli.json) {
    std::cout << "{\"workload\":\"" << w.name << "\",\"policy\":\""
              << lock::DeadlockPolicyName(policy) << "\""
              << ",\"executions\":" << s.executions
              << ",\"terminals\":" << s.terminals
              << ",\"sleep_blocked\":" << s.sleep_blocked
              << ",\"sibling_prunes\":" << s.sibling_prunes
              << ",\"max_depth\":" << s.max_depth
              << ",\"violating_executions\":" << s.violating_executions
              << ",\"hit_cap\":" << (s.hit_execution_cap ? "true" : "false")
              << "}\n";
    return;
  }
  if (cli.quiet && s.clean()) return;
  std::cout << w.name << " / " << lock::DeadlockPolicyName(policy)
            << ": explored " << s.executions << " schedules (" << s.terminals
            << " terminal), pruned " << s.sleep_blocked
            << " sleep-blocked + " << s.sibling_prunes
            << " sibling choices, max depth " << s.max_depth
            << (s.hit_execution_cap ? " [CAP HIT]" : "") << "\n";
  for (const std::string& v : s.violation_messages) {
    std::cout << "  VIOLATION: " << v << "\n";
  }
}

/// Explores every selected configuration; returns the number of
/// configurations with at least one violating schedule.
int ExploreAll(const CliOptions& cli,
               const std::vector<mc::WorkloadSpec>& workloads,
               const std::vector<lock::DeadlockPolicy>& policies) {
  int violating_configs = 0;
  for (const mc::WorkloadSpec& w : workloads) {
    for (lock::DeadlockPolicy policy : policies) {
      mc::ExploreOptions eo;
      eo.run.policy = policy;
      eo.use_por = cli.use_por;
      if (cli.max_schedules != 0) eo.max_executions = cli.max_schedules;
      mc::ExploreStats s = mc::Explore(w, eo);
      PrintStats(cli, w, policy, s);
      if (!s.clean()) ++violating_configs;
    }
  }
  return violating_configs;
}

/// The per-mutant configuration each defect is caught in (kept small so
/// the kill-suite stays fast; mc_mutation_test.cc mirrors this table).
struct MutantConfig {
  mutation::Mutant mutant;
  const char* workload;
  lock::DeadlockPolicy policy;
};

constexpr MutantConfig kKillSuite[] = {
    {mutation::Mutant::kCompatSX, "side-entry", lock::DeadlockPolicy::kDetect},
    {mutation::Mutant::kSkipUpwardPropagation, "side-entry",
     lock::DeadlockPolicy::kDetect},
    {mutation::Mutant::kSkipDownwardPropagation, "side-entry",
     lock::DeadlockPolicy::kDetect},
    {mutation::Mutant::kKeepRowsAtEnd, "shared-effector",
     lock::DeadlockPolicy::kDetect},
    {mutation::Mutant::kSkipWaiterWakeup, "side-entry",
     lock::DeadlockPolicy::kDetect},
};

/// Runs the ring-protocol exploration once; returns violating count (the
/// caller may be the standalone mode or the kill-suite's mutant leg).
int RunRingProtocolOnce(const CliOptions& cli, mc::RingExploreStats* out) {
  mc::RingExploreOptions ro;
  mc::RingExploreStats s = mc::ExploreRingProtocol(ro);
  if (cli.json) {
    std::cout << "{\"workload\":\"ring-protocol\",\"executions\":"
              << s.executions << ",\"p1_take_ok\":" << s.p1_take_ok
              << ",\"p1_reclaimed\":" << s.p1_reclaimed
              << ",\"frames_salvaged\":" << s.frames_salvaged
              << ",\"violating_executions\":" << s.violating_executions
              << "}\n";
  } else if (!cli.quiet || !s.clean()) {
    std::cout << "ring-protocol: explored " << s.executions << " schedules ("
              << s.p1_take_ok << " graceful takes, " << s.p1_reclaimed
              << " reclaims, " << s.frames_salvaged << " salvages)\n";
    for (const std::string& v : s.violation_messages) {
      std::cout << "  VIOLATION: " << v << "\n";
    }
  }
  int violating = s.clean() ? 0 : 1;
  // Sanity: the space must reach both the graceful round trip and the
  // post-mortem reclaim (and exercise the torn-frame salvage).
  if (s.p1_take_ok == 0 || s.p1_reclaimed == 0 || s.frames_salvaged == 0) {
    std::cout << "  VIOLATION: ring exploration never reached "
              << (s.p1_take_ok == 0     ? "a graceful take"
                  : s.p1_reclaimed == 0 ? "a reclaim"
                                        : "a salvage")
              << " — scenario coverage hole\n";
    ++violating;
  }
  if (out != nullptr) *out = s;
  return violating;
}

int RunRingProtocol(const CliOptions& cli) {
  return RunRingProtocolOnce(cli, nullptr) == 0 ? toolcli::kExitOk
                                                : toolcli::kExitFindings;
}

int RunKillSuite(const CliOptions& cli) {
  // Baseline: the two smallest configs must be clean without any mutant.
  bool ok = true;
  for (const char* wname : {"shared-effector", "side-entry"}) {
    bool found = false;
    std::vector<mc::WorkloadSpec> w = SelectWorkloads(wname, &found);
    mc::ExploreOptions eo;
    eo.use_por = cli.use_por;
    mc::ExploreStats s = mc::Explore(w.front(), eo);
    PrintStats(cli, w.front(), eo.run.policy, s);
    if (!s.clean()) {
      std::cout << "kill-suite: BASELINE VIOLATION in " << wname << "\n";
      ok = false;
    }
  }
  for (const MutantConfig& mcfg : kKillSuite) {
    bool found = false;
    std::vector<mc::WorkloadSpec> w = SelectWorkloads(mcfg.workload, &found);
    mutation::ScopedMutant guard(mcfg.mutant);
    mc::ExploreOptions eo;
    eo.run.policy = mcfg.policy;
    eo.use_por = cli.use_por;
    mc::ExploreStats s = mc::Explore(w.front(), eo);
    bool killed = !s.clean();
    std::cout << "mutant " << mutation::MutantName(mcfg.mutant) << ": "
              << (killed ? "KILLED" : "SURVIVED") << " (" << s.executions
              << " schedules, " << s.violating_executions << " violating)\n";
    if (killed && !cli.quiet) {
      for (const std::string& v : s.violation_messages) {
        std::cout << "  caught by: " << v << "\n";
        break;  // one witness per mutant is enough
      }
    }
    ok &= killed;
  }
  // The ring slot-protocol mutant lives in its own explorer: baseline
  // clean, then the defect must trip the reclaim-completeness oracle.
  {
    mc::RingExploreStats baseline;
    if (RunRingProtocolOnce(cli, &baseline) != 0) {
      std::cout << "kill-suite: BASELINE VIOLATION in ring-protocol\n";
      ok = false;
    }
    mutation::ScopedMutant guard(mutation::Mutant::kRingSkipReclaim);
    mc::RingExploreStats s = mc::ExploreRingProtocol(mc::RingExploreOptions{});
    const bool killed = !s.clean();
    std::cout << "mutant "
              << mutation::MutantName(mutation::Mutant::kRingSkipReclaim)
              << ": " << (killed ? "KILLED" : "SURVIVED") << " ("
              << s.executions << " schedules, " << s.violating_executions
              << " violating)\n";
    if (killed && !cli.quiet && !s.violation_messages.empty()) {
      std::cout << "  caught by: " << s.violation_messages.front() << "\n";
    }
    ok &= killed;
  }
  std::cout << "kill-suite: " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}

int RunLeaseProtocol(const CliOptions& cli) {
  int violating = 0;
  for (bool with_crash : {false, true}) {
    mc::LeaseExploreOptions lo;
    lo.with_server_crash = with_crash;
    mc::LeaseExploreStats s = mc::ExploreLeaseProtocol(lo);
    if (cli.json) {
      std::cout << "{\"workload\":\"lease-protocol\",\"crash\":"
                << (with_crash ? "true" : "false")
                << ",\"executions\":" << s.executions
                << ",\"w1_checkin_ok\":" << s.w1_checkin_ok
                << ",\"w1_fenced\":" << s.w1_fenced
                << ",\"w2_checkout_ok\":" << s.w2_checkout_ok
                << ",\"violating_executions\":" << s.violating_executions
                << "}\n";
    } else if (!cli.quiet || !s.clean()) {
      std::cout << "lease-protocol / crash=" << (with_crash ? "on" : "off")
                << ": explored " << s.executions << " schedules ("
                << s.w1_checkin_ok << " graceful, " << s.w1_fenced
                << " fenced, " << s.w2_checkout_ok << " re-grants)\n";
      for (const std::string& v : s.violation_messages) {
        std::cout << "  VIOLATION: " << v << "\n";
      }
    }
    // Sanity: the space must contain both ends of the protocol — a
    // schedule where W1 checks in gracefully and one where it is fenced
    // after a re-grant.
    if (s.w1_checkin_ok == 0 || s.w2_checkout_ok == 0) {
      std::cout << "  VIOLATION: exploration never reached "
                << (s.w1_checkin_ok == 0 ? "a graceful check-in"
                                         : "a re-grant")
                << " — scenario coverage hole\n";
      ++violating;
    }
    if (!s.clean()) ++violating;
  }
  return violating == 0 ? toolcli::kExitOk : toolcli::kExitFindings;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      cli.workload = arg.substr(11);
    } else if (arg.rfind("--policy=", 0) == 0) {
      cli.policy = arg.substr(9);
    } else if (arg == "--no-por") {
      cli.use_por = false;
    } else if (arg.rfind("--max-schedules=", 0) == 0) {
      cli.max_schedules = std::stoull(arg.substr(16));
    } else if (arg.rfind("--mutant=", 0) == 0) {
      cli.mutant = arg.substr(9);
    } else if (arg == "--kill-suite") {
      cli.kill_suite = true;
    } else if (arg == "--lease-protocol") {
      cli.lease_protocol = true;
    } else if (arg == "--ring-protocol") {
      cli.ring_protocol = true;
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else {
      return Usage();
    }
  }

  if (cli.lease_protocol) return RunLeaseProtocol(cli);
  if (cli.ring_protocol) return RunRingProtocol(cli);
  if (cli.kill_suite) return RunKillSuite(cli);

  bool ok1 = false, ok2 = false;
  std::vector<mc::WorkloadSpec> workloads =
      SelectWorkloads(cli.workload, &ok1);
  std::vector<lock::DeadlockPolicy> policies =
      SelectPolicies(cli.policy, &ok2);
  if (!ok1 || !ok2) return Usage();

  if (!cli.mutant.empty()) {
    mutation::Mutant m;
    if (!ParseMutant(cli.mutant, &m)) return Usage();
    mutation::ScopedMutant guard(m);
    int violating = ExploreAll(cli, workloads, policies);
    bool killed = violating > 0;
    std::cout << "mutant " << cli.mutant << ": "
              << (killed ? "KILLED" : "SURVIVED") << "\n";
    return killed ? toolcli::kExitOk : toolcli::kExitFindings;
  }

  int violating = ExploreAll(cli, workloads, policies);
  return violating == 0 ? toolcli::kExitOk : toolcli::kExitFindings;
}
