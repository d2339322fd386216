/// \file codlock_procchaos.cpp
/// \brief Fork-based multi-process chaos for the shm job ring: real child
/// processes attach to a real `shm_open` segment, publish job frames
/// through the futex transport, and are SIGKILLed at seeded protocol
/// points.  The parent (host) must converge post-mortem: the frame
/// ledger balances, no slot/lock/lease leaks, stale incarnations are
/// fenced.  Exit 0 = converged, 1 = violations, 2 = usage error.
///
/// Usage:
///   codlock_procchaos [--children=N] [--jobs=N] [--storm] [--seed=N]
///                     [--shm-name=/name] [--workers=N] [--json]
///
/// `--storm` is shorthand for the nightly 64-child configuration.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/procfleet.h"
#include "tool_common.h"

namespace {

using codlock::sim::ProcFleetConfig;
using codlock::sim::ProcFleetReport;
using codlock::sim::RunProcFleet;

void PrintUsage(FILE* out) {
  std::fprintf(out,
               "usage: codlock_procchaos [--children=N] [--jobs=N] [--storm]\n"
               "                         [--seed=N] [--shm-name=/name]\n"
               "                         [--workers=N] [--json]\n");
}

bool ParseSizeFlag(const std::string& arg, const std::string& prefix,
                   size_t* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = static_cast<size_t>(
      std::strtoull(arg.c_str() + prefix.size(), nullptr, 10));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ProcFleetConfig config;
  bool json = false;
  size_t workers = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    size_t n = 0;
    if (ParseSizeFlag(arg, "--children=", &config.children) ||
        ParseSizeFlag(arg, "--jobs=", &config.jobs_per_child) ||
        ParseSizeFlag(arg, "--slots=", &config.ring_slots)) {
      continue;
    } else if (ParseSizeFlag(arg, "--seed=", &n)) {
      config.seed = n;
    } else if (ParseSizeFlag(arg, "--workers=", &n)) {
      workers = n;
    } else if (arg.rfind("--shm-name=", 0) == 0) {
      config.shm_name = arg.substr(sizeof("--shm-name=") - 1);
    } else if (arg == "--storm") {
      config.children = 64;
      config.jobs_per_child = 6;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return codlock::toolcli::kExitOk;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(stderr);
      return codlock::toolcli::kExitUsage;
    }
  }
  config.workers = static_cast<int>(workers);
  // Uniquify the segment name per run so parallel ctest invocations (and
  // a crashed previous run's leftover segment) cannot collide.
  config.shm_name += '-';
  config.shm_name += std::to_string(static_cast<long>(getpid()));

  ProcFleetReport report = RunProcFleet(config);

  if (json) {
    std::printf("%s\n", report.Json().c_str());
  } else {
    std::printf("%s\n", report.Summary().c_str());
    for (const std::string& v : report.violations) {
      std::printf("VIOLATION: %s\n", v.c_str());
    }
    std::printf("%s\n", report.clean() ? "procchaos: CONVERGED"
                                       : "procchaos: FAILED");
  }
  return report.clean() ? codlock::toolcli::kExitOk
                        : codlock::toolcli::kExitFindings;
}
