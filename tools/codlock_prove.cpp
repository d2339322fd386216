// codlock_prove — symbolic protocol prover.
//
// Statically proves, per schema, the theorems the paper's lock protocol
// rests on: the mode-algebra laws of the compatibility/supremum/intention
// matrices, the side-entry visibility theorem (every pair of conflicting
// accesses — including implicit rules 1–5 + 4′ propagation — collides on
// a common node in incompatible modes), and acyclicity of the induced
// lock-acquisition order.  See logra/prove.h.
//
// Usage:
//   codlock_prove [--fixture=cells|figure7|synthetic|synthetic-disjoint|all]
//                 [--db=<path>] [--corpus=<dir>] [--write-corpus=<dir>]
//                 [--fuzz=N] [--fuzz-seed=S] [--kill-suite] [--mode-laws]
//                 [--json] [--quiet]
//
// Default proves the built-in fixtures.  --kill-suite runs the seeded
// static mutants (broken matrices, dropped propagation rules, corrupted
// graphs) against figure7 and requires every one refuted.  --fuzz=N runs
// N seeded random schemas through derivation -> lint -> prove.
// Exit codes: 0 clean/all-killed, 1 findings/surviving mutant, 2 usage.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "logra/lint.h"
#include "logra/lock_graph.h"
#include "logra/prove.h"
#include "nf2/serialize.h"
#include "sim/schema_fuzz.h"
#include "tool_common.h"
#include "util/json.h"

using namespace codlock;

namespace {

struct CliOptions {
  std::string fixture = "all";
  std::string db_path;
  std::string corpus_dir;
  std::string write_corpus_dir;
  uint64_t fuzz = 0;
  uint64_t fuzz_seed = 1;
  bool kill_suite = false;
  bool mode_laws = false;
  bool json = false;
  bool quiet = false;
};

int Usage() {
  std::cerr << "usage: codlock_prove [--fixture=" << toolcli::kFixtureChoices
            << "] [--db=<path>]\n"
               "                     [--corpus=<dir>] [--write-corpus=<dir>]"
               " [--fuzz=N] [--fuzz-seed=S]\n"
               "                     [--kill-suite] [--mode-laws] [--json]"
               " [--quiet]\n";
  return toolcli::kExitUsage;
}

/// Proves one catalog; returns true when every theorem holds.
bool ProveOne(const std::string& name, const nf2::Catalog& catalog,
              const CliOptions& opts) {
  logra::LockGraph graph = logra::LockGraph::Build(catalog);
  logra::ProverReport report = logra::ProveProtocol(graph, catalog);
  if (opts.json) {
    std::cout << "{\"schema\":\"" << JsonEscape(name)
              << "\",\"report\":" << report.ToJson() << "}\n";
  } else if (!opts.quiet || !report.ok()) {
    std::cout << name << ": " << report.ToString();
  }
  return report.ok();
}

int RunModeLaws(const CliOptions& opts) {
  logra::ProverReport report =
      logra::CheckModeAlgebra(logra::ModeAlgebra::Shipped());
  if (opts.json) {
    std::cout << "{\"schema\":\"mode-algebra\",\"report\":" << report.ToJson()
              << "}\n";
  } else {
    std::cout << "shipped mode algebra: " << report.ToString();
  }
  return report.ok() ? toolcli::kExitOk : toolcli::kExitFindings;
}

int RunKillSuite(const CliOptions& opts) {
  std::vector<toolcli::SchemaFixture> fixtures;
  bool matched = false;
  fixtures = toolcli::ResolveSchemaFixtures("figure7", &matched);
  logra::LockGraph graph = logra::LockGraph::Build(*fixtures[0].catalog);
  std::vector<logra::ProverKillResult> results =
      logra::RunProverKillSuite(graph, *fixtures[0].catalog);
  size_t killed = 0;
  if (opts.json) std::cout << "{\"kill_suite\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const logra::ProverKillResult& r = results[i];
    if (r.killed) ++killed;
    if (opts.json) {
      if (i > 0) std::cout << ',';
      std::cout << "{\"mutant\":\"" << logra::ProverMutantName(r.mutant)
                << "\",\"killed\":" << (r.killed ? "true" : "false")
                << ",\"findings\":" << r.findings << ",\"caught_by\":\""
                << JsonEscape(r.caught_by) << "\",\"witness\":"
                << (r.witness_json.empty() ? "null" : r.witness_json) << "}";
    } else if (!opts.quiet || !r.killed) {
      std::cout << (r.killed ? "KILLED  " : "SURVIVED ")
                << logra::ProverMutantName(r.mutant);
      if (!r.caught_by.empty()) std::cout << "  [" << r.caught_by << "]";
      std::cout << "\n";
    }
  }
  bool ok = killed == results.size();
  if (opts.json) {
    std::cout << "],\"killed\":" << killed << ",\"total\":" << results.size()
              << ",\"ok\":" << (ok ? "true" : "false") << "}\n";
  } else {
    std::cout << "prover kill-suite: " << killed << "/" << results.size()
              << " mutants killed\n";
  }
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}

/// The deterministic corpus shapes (also the committed tests/fixtures).
std::vector<sim::FuzzedSchema> CorpusSchemas() {
  std::vector<sim::FuzzedSchema> out;
  out.push_back(sim::BuildDeepRefChain(4));
  out.push_back(sim::BuildDiamondSideEntry());
  out.push_back(sim::BuildMultiInnerFanIn());
  return out;
}

/// derivation -> lint -> prove for one generated schema.
bool FuzzOne(const sim::FuzzedSchema& f, const CliOptions& opts,
             size_t* lint_failures, size_t* prove_failures) {
  logra::LockGraph graph = logra::LockGraph::Build(*f.catalog);
  logra::LintReport lint = logra::LintLockGraph(graph, *f.catalog);
  if (!lint.ok()) {
    ++*lint_failures;
    if (!opts.quiet) {
      std::cout << f.name << ": LINT FAILED\n" << lint.ToString();
    }
    return false;
  }
  logra::ProverReport prove = logra::ProveProtocol(graph, *f.catalog);
  if (!prove.ok()) {
    ++*prove_failures;
    if (!opts.quiet) {
      std::cout << f.name << ": PROOF FAILED\n" << prove.ToString();
    }
    return false;
  }
  return true;
}

int RunFuzz(const CliOptions& opts) {
  size_t lint_failures = 0, prove_failures = 0, passed = 0;
  for (uint64_t i = 0; i < opts.fuzz; ++i) {
    sim::FuzzedSchema f = sim::BuildFuzzedSchema(opts.fuzz_seed + i);
    if (FuzzOne(f, opts, &lint_failures, &prove_failures)) ++passed;
  }
  // The deterministic corpus shapes ride along in every fuzz run.
  for (const sim::FuzzedSchema& f : CorpusSchemas()) {
    if (FuzzOne(f, opts, &lint_failures, &prove_failures)) ++passed;
  }
  size_t total = opts.fuzz + 3;
  bool ok = passed == total;
  if (opts.json) {
    std::cout << "{\"fuzz\":{\"seed\":" << opts.fuzz_seed
              << ",\"schemas\":" << total << ",\"passed\":" << passed
              << ",\"lint_failures\":" << lint_failures
              << ",\"prove_failures\":" << prove_failures
              << ",\"ok\":" << (ok ? "true" : "false") << "}}\n";
  } else {
    std::cout << "fuzz-prove: " << passed << "/" << total
              << " schemas clean (seed " << opts.fuzz_seed << ")\n";
  }
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}

int WriteCorpus(const CliOptions& opts) {
  std::filesystem::create_directories(opts.write_corpus_dir);
  bool ok = true;
  for (const sim::FuzzedSchema& f : CorpusSchemas()) {
    std::string path = opts.write_corpus_dir + "/" + f.name + ".db";
    Status s = nf2::SaveDatabaseToFile(*f.catalog, *f.store, path);
    if (!s.ok()) {
      std::cerr << "error: " << path << ": " << s << "\n";
      ok = false;
      continue;
    }
    if (!opts.quiet) std::cout << "wrote " << path << "\n";
  }
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}

int ProveCorpus(const CliOptions& opts) {
  bool ok = true;
  size_t count = 0;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts.corpus_dir, ec)) {
    if (entry.path().extension() == ".db") paths.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "error: cannot read corpus dir " << opts.corpus_dir << ": "
              << ec.message() << "\n";
    return toolcli::kExitUsage;
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    Result<nf2::LoadedDatabase> db = nf2::LoadDatabaseFromFile(path);
    if (!db.ok()) {
      std::cerr << "error: " << path << ": " << db.status() << "\n";
      return toolcli::kExitUsage;
    }
    ok &= ProveOne(path, *db->catalog, opts);
    ++count;
  }
  if (count == 0) {
    std::cerr << "error: no .db files under " << opts.corpus_dir << "\n";
    return toolcli::kExitUsage;
  }
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--fixture=", 0) == 0) {
      opts.fixture = arg.substr(10);
    } else if (arg.rfind("--db=", 0) == 0) {
      opts.db_path = arg.substr(5);
      if (opts.db_path.empty()) return Usage();
    } else if (arg.rfind("--corpus=", 0) == 0) {
      opts.corpus_dir = arg.substr(9);
      if (opts.corpus_dir.empty()) return Usage();
    } else if (arg.rfind("--write-corpus=", 0) == 0) {
      opts.write_corpus_dir = arg.substr(15);
      if (opts.write_corpus_dir.empty()) return Usage();
    } else if (arg.rfind("--fuzz=", 0) == 0) {
      opts.fuzz = std::stoull(arg.substr(7));
    } else if (arg.rfind("--fuzz-seed=", 0) == 0) {
      opts.fuzz_seed = std::stoull(arg.substr(12));
    } else if (arg == "--kill-suite") {
      opts.kill_suite = true;
    } else if (arg == "--mode-laws") {
      opts.mode_laws = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else {
      return Usage();
    }
  }

  if (opts.mode_laws) return RunModeLaws(opts);
  if (opts.kill_suite) return RunKillSuite(opts);
  if (!opts.write_corpus_dir.empty()) return WriteCorpus(opts);
  if (opts.fuzz > 0) return RunFuzz(opts);
  if (!opts.corpus_dir.empty()) return ProveCorpus(opts);

  bool ok = true;
  if (!opts.db_path.empty()) {
    Result<nf2::LoadedDatabase> db = nf2::LoadDatabaseFromFile(opts.db_path);
    if (!db.ok()) {
      std::cerr << "error: " << db.status() << "\n";
      return toolcli::kExitUsage;
    }
    ok &= ProveOne(opts.db_path, *db->catalog, opts);
  } else {
    bool matched = false;
    std::vector<toolcli::SchemaFixture> fixtures =
        toolcli::ResolveSchemaFixtures(opts.fixture, &matched);
    if (!matched) return Usage();
    for (const toolcli::SchemaFixture& f : fixtures) {
      ok &= ProveOne(f.name, *f.catalog, opts);
    }
  }
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}
