#include "tool_common.h"

#include "sim/fixtures.h"

namespace codlock::toolcli {

std::vector<SchemaFixture> ResolveSchemaFixtures(const std::string& which,
                                                 bool* matched) {
  std::vector<SchemaFixture> out;
  bool all = which == "all";
  *matched = all;
  if (all || which == "cells") {
    *matched = true;
    sim::CellsFixture f = sim::BuildCellsEffectors();
    out.push_back({"cells", std::move(f.catalog), std::move(f.store)});
  }
  if (all || which == "figure7") {
    *matched = true;
    sim::CellsFixture f = sim::BuildFigure7Instance();
    out.push_back({"figure7", std::move(f.catalog), std::move(f.store)});
  }
  if (all || which == "synthetic") {
    *matched = true;
    sim::SyntheticParams params;  // defaults: depth 3, shared refs
    sim::SyntheticFixture f = sim::BuildSynthetic(params);
    out.push_back({"synthetic", std::move(f.catalog), std::move(f.store)});
  }
  if (all || which == "synthetic-disjoint") {
    *matched = true;
    sim::SyntheticParams params;
    params.refs_per_leaf = 0;  // fully disjoint complex objects
    sim::SyntheticFixture f = sim::BuildSynthetic(params);
    out.push_back(
        {"synthetic-disjoint", std::move(f.catalog), std::move(f.store)});
  }
  return out;
}

}  // namespace codlock::toolcli
