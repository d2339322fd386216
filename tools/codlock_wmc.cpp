// codlock_wmc — exhaustive weak-memory checker.
//
// Enumerates the consistent C++-memory-model executions (schedule choices
// x reads-from choices) of the litmus harnesses in src/wm/litmus.cc:
// the checker's self-test kernels, release/acquire message passing,
// store buffering under seq_cst, and a relaxed message-passing negative
// control that must be flagged.
//
// Usage:
//   codlock_wmc [--harness=<name>|all] [--budget=N] [--json] [--quiet]
//
// Runs every selected harness within its execution budget and exits
// non-zero if any protocol harness reports a violation (or fails to
// explore completely), or any self-check harness — a deliberately broken
// negative control — fails to report one.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "tool_common.h"
#include "util/json.h"
#include "wm/checker.h"
#include "wm/litmus.h"

using namespace codlock;

namespace {

struct CliOptions {
  std::string harness = "all";
  uint64_t budget = 0;  // 0 = per-harness default
  bool json = false;
  bool quiet = false;
};

int Usage() {
  std::cerr << "usage: codlock_wmc [--harness=<name>|all] [--budget=N]"
               " [--json] [--quiet]\n"
               "harnesses:";
  for (const wm::litmus::Harness& h : wm::litmus::AllHarnesses()) {
    std::cerr << " " << h.name;
  }
  std::cerr << "\n";
  return toolcli::kExitUsage;
}

wm::Checker::Options OptionsFor(const wm::litmus::Harness& h,
                                const CliOptions& cli) {
  wm::Checker::Options opts;
  opts.max_executions = cli.budget != 0 ? cli.budget : h.default_budget;
  return opts;
}

void PrintResult(const wm::litmus::Harness& h, const wm::Result& r,
                 bool expectation_met, const CliOptions& cli) {
  std::cout << "harness " << h.name << ": "
            << (expectation_met ? "ok" : "FAIL") << " (" << r.executions
            << " executions, " << (r.complete ? "complete" : "budget-capped")
            << ", " << r.violations.size() << " violation(s)"
            << (r.violations_capped ? "+" : "") << ")"
            << (h.expect_violation ? " [negative control]" : "") << "\n";
  if (cli.quiet || expectation_met) return;
  for (const wm::Violation& v : r.violations) {
    std::cout << "  " << wm::ViolationKindName(v.kind) << ": " << v.message
              << "\n";
    for (const std::string& line : v.trace) {
      std::cout << "    " << line << "\n";
    }
  }
}

void PrintJson(const std::vector<wm::litmus::Harness>& harnesses,
               const std::vector<wm::Result>& results,
               const std::vector<bool>& met, bool overall_ok) {
  std::cout << "{\"tool\":\"codlock_wmc\",\"harnesses\":[";
  for (size_t i = 0; i < harnesses.size(); ++i) {
    if (i) std::cout << ",";
    const wm::Result& r = results[i];
    std::cout << "{\"name\":\"" << JsonEscape(harnesses[i].name)
              << "\",\"executions\":" << r.executions
              << ",\"complete\":" << (r.complete ? "true" : "false")
              << ",\"expect_violation\":"
              << (harnesses[i].expect_violation ? "true" : "false")
              << ",\"ok\":" << (met[i] ? "true" : "false")
              << ",\"violations\":[";
    for (size_t j = 0; j < r.violations.size(); ++j) {
      if (j) std::cout << ",";
      std::cout << "{\"kind\":\""
                << wm::ViolationKindName(r.violations[j].kind)
                << "\",\"message\":\""
                << JsonEscape(r.violations[j].message) << "\"}";
    }
    std::cout << "]}";
  }
  std::cout << "],\"ok\":" << (overall_ok ? "true" : "false") << "}\n";
}

/// Expectation for one harness result: protocol harnesses must be clean
/// and completely explored; negative controls must report a violation.
bool ExpectationMet(const wm::litmus::Harness& h, const wm::Result& r) {
  if (h.expect_violation) return !r.clean();
  return r.clean() && r.complete;
}

int RunHarnesses(const CliOptions& cli) {
  std::vector<wm::litmus::Harness> selected;
  for (const wm::litmus::Harness& h : wm::litmus::AllHarnesses()) {
    if (cli.harness == "all" || cli.harness == h.name) selected.push_back(h);
  }
  if (selected.empty()) return Usage();

  std::vector<wm::Result> results;
  std::vector<bool> met;
  bool all_ok = true;
  for (const wm::litmus::Harness& h : selected) {
    wm::Result r = h.run(OptionsFor(h, cli));
    const bool ok = ExpectationMet(h, r);
    all_ok &= ok;
    if (!cli.json) PrintResult(h, r, ok, cli);
    results.push_back(std::move(r));
    met.push_back(ok);
  }
  if (cli.json) PrintJson(selected, results, met, all_ok);
  return all_ok ? toolcli::kExitOk : toolcli::kExitFindings;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--harness=", 0) == 0) {
      cli.harness = value("--harness=");
    } else if (arg.rfind("--budget=", 0) == 0) {
      cli.budget = std::stoull(value("--budget="));
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else {
      return Usage();
    }
  }
  return RunHarnesses(cli);
}
