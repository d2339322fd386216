/// \file tool_common.h
/// \brief Shared CLI plumbing for the static-analysis / checking tools
/// (codlock_lint, codlock_prove, codlock_mc, codlock_faultsweep,
/// codlock_dbtool): built-in fixture resolution and the common exit-code
/// convention.

#ifndef CODLOCK_TOOLS_TOOL_COMMON_H_
#define CODLOCK_TOOLS_TOOL_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "nf2/schema.h"
#include "nf2/store.h"

namespace codlock::toolcli {

/// Exit-code convention shared by every checking tool:
/// 0 = clean, 1 = findings / violations, 2 = usage or load error.
inline constexpr int kExitOk = 0;
inline constexpr int kExitFindings = 1;
inline constexpr int kExitUsage = 2;

/// Canonical spelling of the --fixture choices for usage strings.
inline constexpr const char kFixtureChoices[] =
    "cells|figure7|synthetic|synthetic-disjoint|all";

/// One named built-in schema (+ populated instance store).
struct SchemaFixture {
  std::string name;
  std::unique_ptr<nf2::Catalog> catalog;
  std::unique_ptr<nf2::InstanceStore> store;
};

/// Resolves a --fixture selector against the sim:: builders.  "all" yields
/// every fixture; an unknown selector sets \p *matched to false and
/// returns empty.
std::vector<SchemaFixture> ResolveSchemaFixtures(const std::string& which,
                                                 bool* matched);

}  // namespace codlock::toolcli

#endif  // CODLOCK_TOOLS_TOOL_COMMON_H_
