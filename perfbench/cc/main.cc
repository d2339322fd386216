// perfbench: one workload per invocation.
//
//   perfbench --workload <short_mix|disjoint_update|checkout_ring>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--revision <rev>]
//
// Prints one line per metric ("metric <name> <value> <unit> n=<samples>"),
// any self-check violation, a context block, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exits 1 when a self-check fails, 2 on bad usage.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "context.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Report;
using perfbench::RunConfig;

int Usage() {
  std::cerr << "usage: perfbench --workload <short_mix|disjoint_update|"
               "checkout_ring> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--revision <rev>]\n";
  return 2;
}

const char* const kEndToEnd[] = {"setup_s", "ops_per_s", "op_p50_us",
                                 "op_p90_us", "peak_rss_mb"};

std::string Num(double v) {
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.out_dir = ".bench_build/run";
  std::string revision = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (arg == "--trace") {
        cfg.trace = val == "1";
      } else if (arg == "--out-dir") {
        cfg.out_dir = val;
      } else if (arg == "--revision") {
        revision = val;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (!have_workload || !(cfg.seconds > 0)) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);

  Report report;
  if (cfg.workload == "short_mix") {
    report = perfbench::RunShortMix(cfg);
  } else if (cfg.workload == "disjoint_update") {
    report = perfbench::RunDisjointUpdate(cfg);
  } else if (cfg.workload == "checkout_ring") {
    report = perfbench::RunCheckoutRing(cfg);
  } else {
    return Usage();
  }

  if (!cfg.trace) {
    for (const char* name : kEndToEnd) {
      bool found = false;
      for (const Metric& m : report.metrics) {
        if (m.name == name) found = m.value > 0;
      }
      report.Check(found, std::string("end-to-end metric missing or 0: ") + name);
    }
  }
  for (const Metric& m : report.metrics) {
    report.Check(std::isfinite(m.value), "non-finite metric " + m.name);
  }
  report.failed += report.violations.size();
  report.attempted = std::max<uint64_t>(report.attempted, 1);

  for (const Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " " << Num(m.value) << " " << m.unit
              << " n=" << m.samples << "\n";
  }
  for (const Metric& m : report.detail) {
    std::cout << "detail " << m.name << " "
              << (m.value < 0 ? std::string("n/a") : Num(m.value)) << " "
              << m.unit << " n=" << m.samples << "\n";
  }
  std::cout << "detail failed_ratio "
            << Num(static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted))
            << " ratio n=" << report.attempted << "\n";
  for (const std::string& v : report.violations) {
    std::cout << "VIOLATION " << v << "\n";
  }
  std::cout << perfbench::ContextJson(cfg, revision) << "\n";

  const bool correct = report.violations.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << (std::isfinite(m.value) ? Num(m.value) : "0")
              << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
