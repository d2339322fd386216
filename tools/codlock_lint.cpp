// codlock_lint — static lock-graph linter.
//
// Derives the object-specific lock graphs of a schema and statically
// verifies the paper's structural invariants (§4.3 derivation rules, DAG
// acyclicity, one entry point per inner unit, registered reference targets,
// no solid edge across a unit boundary).  Exits non-zero when any
// invariant is violated, so the check can gate CI / ctest.
//
// Usage:
//   codlock_lint [--fixture=cells|figure7|synthetic|synthetic-disjoint|all]
//                [--db=<path>] [--json] [--quiet]
//
// `--fixture` lints the built-in sim:: schemas (default: all); `--db`
// lints a serialized database file written by codlock_dbtool.

#include <iostream>
#include <string>
#include <vector>

#include "logra/lint.h"
#include "logra/lock_graph.h"
#include "nf2/serialize.h"
#include "tool_common.h"
#include "util/json.h"

using namespace codlock;

namespace {

struct CliOptions {
  std::string fixture = "all";
  std::string db_path;
  bool json = false;
  bool quiet = false;
};

int Usage() {
  std::cerr << "usage: codlock_lint [--fixture=" << toolcli::kFixtureChoices
            << "] [--db=<path>] [--json] [--quiet]\n";
  return toolcli::kExitUsage;
}

/// Lints one catalog; returns true when clean.
bool LintOne(const std::string& name, const nf2::Catalog& catalog,
             const CliOptions& opts) {
  logra::LockGraph graph = logra::LockGraph::Build(catalog);
  logra::LintReport report = logra::LintLockGraph(graph, catalog);
  if (opts.json) {
    std::cout << "{\"schema\":\"" << JsonEscape(name)
              << "\",\"report\":" << report.ToJson() << "}\n";
  } else if (!opts.quiet || !report.ok()) {
    std::cout << name << ": " << report.ToString();
  }
  return report.ok();
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
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else {
      return Usage();
    }
  }

  bool ok = true;
  if (!opts.db_path.empty()) {
    Result<nf2::LoadedDatabase> db = nf2::LoadDatabaseFromFile(opts.db_path);
    if (!db.ok()) {
      std::cerr << "error: " << db.status() << "\n";
      return toolcli::kExitUsage;
    }
    ok &= LintOne(opts.db_path, *db->catalog, opts);
  } else {
    bool matched = false;
    std::vector<toolcli::SchemaFixture> fixtures =
        toolcli::ResolveSchemaFixtures(opts.fixture, &matched);
    if (!matched) return Usage();
    for (const toolcli::SchemaFixture& f : fixtures) {
      ok &= LintOne(f.name, *f.catalog, opts);
    }
  }
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}
