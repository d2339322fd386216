/// Tests for object-specific lock graph construction (Figures 2, 4, 5):
/// derivation rules, node kinds, dashed edges, System R as a special case.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "logra/lock_graph.h"
#include "nf2/serialize.h"
#include "sim/fixtures.h"
#include "sim/schema_fuzz.h"

namespace codlock::logra {
namespace {

class LockGraphTest : public ::testing::Test {
 protected:
  LockGraphTest()
      : f_(sim::BuildCellsEffectors()),
        g_(LockGraph::Build(*f_.catalog)) {}

  NodeId AttrNode(nf2::RelationId rel, const std::vector<std::string>& path) {
    nf2::AttrId cur = f_.catalog->relation(rel).root;
    for (const std::string& name : path) {
      const nf2::AttrDef& def = f_.catalog->attr(cur);
      if (nf2::IsCollection(def.kind)) cur = def.children[0];
      Result<nf2::AttrId> field = f_.catalog->FindField(cur, name);
      EXPECT_TRUE(field.ok()) << name;
      cur = *field;
    }
    return g_.NodeForAttr(cur);
  }

  sim::CellsFixture f_;
  LockGraph g_;
};

TEST_F(LockGraphTest, HierarchyNodesHaveSystemRKinds) {
  // §4.2: "'database' can be regarded as a HeLU, 'segments' as well,
  // 'relations' is a HoLU".
  EXPECT_EQ(g_.node(g_.DatabaseNode(f_.db)).kind, NodeKind::kHeLU);
  EXPECT_EQ(g_.node(g_.SegmentNode(f_.seg1)).kind, NodeKind::kHeLU);
  EXPECT_EQ(g_.node(g_.SegmentNode(f_.seg2)).kind, NodeKind::kHeLU);
  EXPECT_EQ(g_.node(g_.RelationNode(f_.cells)).kind, NodeKind::kHoLU);
  EXPECT_EQ(g_.node(g_.ComplexObjectNode(f_.cells)).kind, NodeKind::kHeLU);
}

TEST_F(LockGraphTest, DerivationRules) {
  // Rule 1/2: list and set attributes become HoLUs.
  EXPECT_EQ(g_.node(AttrNode(f_.cells, {"robots"})).kind, NodeKind::kHoLU);
  EXPECT_EQ(g_.node(AttrNode(f_.cells, {"c_objects"})).kind, NodeKind::kHoLU);
  EXPECT_EQ(g_.node(AttrNode(f_.cells, {"robots", "effectors"})).kind,
            NodeKind::kHoLU);
  // Rule 3: (complex) tuples become HeLUs.
  nf2::AttrId robots =
      *f_.catalog->FindField(f_.catalog->relation(f_.cells).root, "robots");
  nf2::AttrId robot = *f_.catalog->ElementAttr(robots);
  EXPECT_EQ(g_.node(g_.NodeForAttr(robot)).kind, NodeKind::kHeLU);
  // Rule 4: atomic attributes become BLUs.
  EXPECT_EQ(g_.node(AttrNode(f_.cells, {"cell_id"})).kind, NodeKind::kBLU);
  EXPECT_EQ(g_.node(AttrNode(f_.cells, {"robots", "trajectory"})).kind,
            NodeKind::kBLU);
  // References are BLUs too ("reference to common data", Fig. 4).
  nf2::AttrId effs = *f_.catalog->FindField(robot, "effectors");
  nf2::AttrId ref = *f_.catalog->ElementAttr(effs);
  EXPECT_EQ(g_.node(g_.NodeForAttr(ref)).kind, NodeKind::kBLU);
  EXPECT_TRUE(g_.node(g_.NodeForAttr(ref)).is_ref_blu());
}

TEST_F(LockGraphTest, SolidParentChain) {
  // Fig. 5: database → segment → relation → C.O. → attributes.
  NodeId db = g_.DatabaseNode(f_.db);
  NodeId seg1 = g_.SegmentNode(f_.seg1);
  NodeId rel = g_.RelationNode(f_.cells);
  NodeId co = g_.ComplexObjectNode(f_.cells);
  EXPECT_EQ(g_.node(db).solid_parent, kInvalidNode);
  EXPECT_EQ(g_.node(seg1).solid_parent, db);
  EXPECT_EQ(g_.node(rel).solid_parent, seg1);
  EXPECT_EQ(g_.node(co).solid_parent, rel);
  NodeId robots = AttrNode(f_.cells, {"robots"});
  EXPECT_EQ(g_.node(robots).solid_parent, co);
}

TEST_F(LockGraphTest, DashedEdgeCrossesIntoEffectors) {
  nf2::AttrId robots =
      *f_.catalog->FindField(f_.catalog->relation(f_.cells).root, "robots");
  nf2::AttrId robot = *f_.catalog->ElementAttr(robots);
  nf2::AttrId effs = *f_.catalog->FindField(robot, "effectors");
  nf2::AttrId ref = *f_.catalog->ElementAttr(effs);
  NodeId ref_node = g_.NodeForAttr(ref);
  NodeId ep = g_.ComplexObjectNode(f_.effectors);
  EXPECT_EQ(g_.node(ref_node).dashed_target, ep);
  ASSERT_EQ(g_.node(ep).dashed_in.size(), 1u);
  EXPECT_EQ(g_.node(ep).dashed_in[0], ref_node);
}

TEST_F(LockGraphTest, EntryPoints) {
  // "effectors" objects are referenced → their C.O. node is an entry point;
  // "cells" objects are not.
  EXPECT_TRUE(g_.IsEntryPoint(g_.ComplexObjectNode(f_.effectors)));
  EXPECT_FALSE(g_.IsEntryPoint(g_.ComplexObjectNode(f_.cells)));
}

TEST_F(LockGraphTest, ObjectSpecificGraphOfCellsIncludesSharedPart) {
  // Fig. 5 shows cells' object-specific lock graph containing seg2,
  // relation "effectors" and the effectors C.O. subtree.
  std::vector<NodeId> nodes = g_.ObjectSpecificNodes(f_.cells);
  auto contains = [&nodes](NodeId id) {
    return std::find(nodes.begin(), nodes.end(), id) != nodes.end();
  };
  EXPECT_TRUE(contains(g_.DatabaseNode(f_.db)));
  EXPECT_TRUE(contains(g_.SegmentNode(f_.seg1)));
  EXPECT_TRUE(contains(g_.SegmentNode(f_.seg2)));
  EXPECT_TRUE(contains(g_.RelationNode(f_.cells)));
  EXPECT_TRUE(contains(g_.RelationNode(f_.effectors)));
  EXPECT_TRUE(contains(g_.ComplexObjectNode(f_.cells)));
  EXPECT_TRUE(contains(g_.ComplexObjectNode(f_.effectors)));
}

TEST_F(LockGraphTest, ObjectSpecificGraphOfEffectorsIsFlat) {
  std::vector<NodeId> nodes = g_.ObjectSpecificNodes(f_.effectors);
  auto contains = [&nodes](NodeId id) {
    return std::find(nodes.begin(), nodes.end(), id) != nodes.end();
  };
  EXPECT_TRUE(contains(g_.ComplexObjectNode(f_.effectors)));
  // Effectors reference nothing: cells' nodes are absent.
  EXPECT_FALSE(contains(g_.ComplexObjectNode(f_.cells)));
  // db, seg2, relation, C.O., eff_id BLU, tool BLU = 6 nodes.
  EXPECT_EQ(nodes.size(), 6u);
}

TEST_F(LockGraphTest, RefBlusUnderStaysWithinUnit) {
  // From the cells C.O. node: exactly one ref BLU (robots' effectors ref).
  std::vector<NodeId> refs = g_.RefBlusUnder(g_.ComplexObjectNode(f_.cells));
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_TRUE(g_.node(refs[0]).is_ref_blu());
  // From the effectors C.O. node: none.
  EXPECT_TRUE(g_.RefBlusUnder(g_.ComplexObjectNode(f_.effectors)).empty());
}

TEST_F(LockGraphTest, ReachableSharedRelations) {
  std::vector<nf2::RelationId> shared =
      g_.ReachableSharedRelations(g_.ComplexObjectNode(f_.cells));
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0], f_.effectors);
  EXPECT_TRUE(
      g_.ReachableSharedRelations(g_.ComplexObjectNode(f_.effectors)).empty());
}

TEST_F(LockGraphTest, NodeNamesReadable) {
  EXPECT_EQ(g_.NodeName(g_.DatabaseNode(f_.db)), "HeLU(Database \"db1\")");
  EXPECT_EQ(g_.NodeName(g_.RelationNode(f_.cells)),
            "HoLU(Relation \"cells\")");
  EXPECT_EQ(g_.NodeName(g_.ComplexObjectNode(f_.cells)),
            "HeLU(\"C.O. cells\")");
}

TEST_F(LockGraphTest, DotExportContainsEdges) {
  std::string dot = g_.ToDot(f_.cells, *f_.catalog);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // the ref edge
  EXPECT_NE(dot.find("C.O. effectors"), std::string::npos);
}

TEST(LockGraphNestedTest, NestedSharingIsTransitive) {
  // library <- parts, and a second level: catalog with parts2 -> parts?
  // Use the synthetic fixture: parts --ref--> library.
  sim::SyntheticParams p;
  p.depth = 2;
  p.refs_per_leaf = 2;
  sim::SyntheticFixture f = sim::BuildSynthetic(p);
  LockGraph g = LockGraph::Build(*f.catalog);
  EXPECT_TRUE(g.IsEntryPoint(g.ComplexObjectNode(f.shared_relation)));
  std::vector<nf2::RelationId> shared =
      g.ReachableSharedRelations(g.ComplexObjectNode(f.main_relation));
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0], f.shared_relation);
}

TEST(LockGraphDisjointTest, DisjointSchemaHasNoEntryPoints) {
  sim::SyntheticParams p;
  p.refs_per_leaf = 0;
  sim::SyntheticFixture f = sim::BuildSynthetic(p);
  LockGraph g = LockGraph::Build(*f.catalog);
  for (const Node& n : g.nodes()) {
    EXPECT_FALSE(g.IsEntryPoint(n.id));
    EXPECT_FALSE(n.is_ref_blu());
  }
}

// The closures `Build` stores, recomputed from the edges alone: the
// solid-parent chain, a depth-first walk of the solid subtree, and the
// dashed closure over relations.

std::vector<NodeId> ChainOf(const LockGraph& g, NodeId id) {
  std::vector<NodeId> chain;
  for (NodeId p = g.node(id).solid_parent; p != kInvalidNode;
       p = g.node(p).solid_parent) {
    chain.push_back(p);
  }
  return chain;
}

void CollectRefBlus(const LockGraph& g, NodeId id, std::vector<NodeId>* out) {
  if (g.node(id).dashed_target != kInvalidNode) out->push_back(id);
  for (NodeId child : g.node(id).solid_children) CollectRefBlus(g, child, out);
}

void CollectShared(const LockGraph& g, NodeId id,
                   std::set<nf2::RelationId>* seen) {
  std::vector<NodeId> refs;
  CollectRefBlus(g, id, &refs);
  for (NodeId ref : refs) {
    const NodeId target = g.node(ref).dashed_target;
    if (seen->insert(g.node(target).relation).second) {
      CollectShared(g, target, seen);
    }
  }
}

void ExpectClosuresMatchEdges(const LockGraph& g, const std::string& name) {
  for (const Node& n : g.nodes()) {
    SCOPED_TRACE(name + ": " + g.NodeName(n.id));
    EXPECT_EQ(g.SuperunitChain(n.id), ChainOf(g, n.id));

    std::vector<NodeId> refs;
    CollectRefBlus(g, n.id, &refs);
    std::vector<NodeId> stored = g.RefBlusUnder(n.id);
    std::sort(refs.begin(), refs.end());
    std::sort(stored.begin(), stored.end());
    EXPECT_EQ(stored, refs);

    std::set<nf2::RelationId> shared;
    CollectShared(g, n.id, &shared);
    const std::vector<nf2::RelationId>& reach =
        g.ReachableSharedRelations(n.id);
    EXPECT_EQ(std::set<nf2::RelationId>(reach.begin(), reach.end()), shared);
    EXPECT_EQ(reach.size(), shared.size());  // each relation once
  }
}

TEST(LockGraphClosuresTest, BuiltInFixturesMatchTheirEdges) {
  sim::CellsFixture cells = sim::BuildCellsEffectors();
  ExpectClosuresMatchEdges(LockGraph::Build(*cells.catalog), "cells");
  sim::CellsFixture fig7 = sim::BuildFigure7Instance();
  ExpectClosuresMatchEdges(LockGraph::Build(*fig7.catalog), "figure7");
  sim::SyntheticParams params;
  sim::SyntheticFixture shared = sim::BuildSynthetic(params);
  ExpectClosuresMatchEdges(LockGraph::Build(*shared.catalog), "synthetic");
  params.refs_per_leaf = 0;
  sim::SyntheticFixture disjoint = sim::BuildSynthetic(params);
  ExpectClosuresMatchEdges(LockGraph::Build(*disjoint.catalog),
                           "synthetic-disjoint");
}

TEST(LockGraphClosuresTest, CorpusSchemasMatchTheirEdges) {
  int loaded = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CODLOCK_FIXTURES_DIR)) {
    if (entry.path().extension() != ".db") continue;
    Result<nf2::LoadedDatabase> db =
        nf2::LoadDatabaseFromFile(entry.path().string());
    ASSERT_TRUE(db.ok()) << entry.path() << ": " << db.status();
    ExpectClosuresMatchEdges(LockGraph::Build(*db->catalog),
                             entry.path().filename().string());
    ++loaded;
  }
  EXPECT_GE(loaded, 3);
}

TEST(LockGraphClosuresTest, FuzzedSchemasMatchTheirEdges) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    sim::FuzzedSchema s = sim::BuildFuzzedSchema(seed);
    ExpectClosuresMatchEdges(LockGraph::Build(*s.catalog), s.name);
  }
}

TEST(LockGraphClosuresTest, RederiveFollowsEditedEdges) {
  // A dashed edge from inside the effectors unit back to the cells entry
  // point (the prover's cyclic-reference mutant): the stored closures
  // stay as built until re-derived, then follow the cycle and stop.
  sim::CellsFixture f = sim::BuildCellsEffectors();
  LockGraph g = LockGraph::Build(*f.catalog);
  const NodeId eff_co = g.ComplexObjectNode(f.effectors);
  const NodeId cells_co = g.ComplexObjectNode(f.cells);
  const NodeId eff_id = g.node(eff_co).solid_children[0];
  g.MutableNodeForTest(eff_id).dashed_target = cells_co;
  g.MutableNodeForTest(cells_co).dashed_in.push_back(eff_id);
  EXPECT_TRUE(g.RefBlusUnder(eff_co).empty());

  g.RederiveForTest();
  EXPECT_EQ(g.RefBlusUnder(eff_co), std::vector<NodeId>{eff_id});
  EXPECT_EQ(g.ReachableSharedRelations(cells_co),
            (std::vector<nf2::RelationId>{f.effectors, f.cells}));
  ExpectClosuresMatchEdges(g, "cells with a cyclic reference");
}

// The id→node accessors against the catalog they were built from: each
// hierarchy id maps to its own node, each attribute of a relation's tree
// to its node, and an attribute no tree reaches to kInvalidNode.
void ExpectIdMapsMatchCatalog(const nf2::Catalog& c, const LockGraph& g) {
  for (nf2::DatabaseId db = 0; db < c.num_databases(); ++db) {
    EXPECT_EQ(g.node(g.DatabaseNode(db)).database, db);
  }
  for (nf2::SegmentId seg = 0; seg < c.num_segments(); ++seg) {
    const Node& n = g.node(g.SegmentNode(seg));
    EXPECT_EQ(n.segment, seg);
    EXPECT_EQ(n.solid_parent, g.DatabaseNode(c.segment(seg).database));
  }
  for (nf2::RelationId rel = 0; rel < c.num_relations(); ++rel) {
    const nf2::RelationDef& rdef = c.relation(rel);
    EXPECT_EQ(g.node(g.RelationNode(rel)).relation, rel);
    EXPECT_EQ(g.node(g.RelationNode(rel)).solid_parent,
              g.SegmentNode(rdef.segment));
    EXPECT_EQ(g.node(g.ComplexObjectNode(rel)).solid_parent,
              g.RelationNode(rel));
    EXPECT_EQ(g.NodeForAttr(rdef.root), g.ComplexObjectNode(rel));
    EXPECT_EQ(g.node(g.IndexNode(rel)).level, NodeLevel::kIndex);
    EXPECT_EQ(g.node(g.IndexNode(rel)).relation, rel);
  }
  for (nf2::AttrId a = 0; a < c.num_attrs(); ++a) {
    nf2::AttrId root = a;
    while (c.attr(root).parent != nf2::kInvalidAttr) root = c.attr(root).parent;
    const nf2::RelationId rel = c.attr(a).relation;
    const NodeId id = g.NodeForAttr(a);
    if (rel >= c.num_relations() || c.relation(rel).root != root) {
      EXPECT_EQ(id, kInvalidNode) << "attr " << a;  // in no relation's tree
    } else {
      ASSERT_NE(id, kInvalidNode) << "attr " << a;
      EXPECT_EQ(g.node(id).attr, a);
    }
  }
}

TEST(LockGraphIdMapTest, BuiltInFixturesMapEveryCatalogId) {
  for (const sim::CellsFixture& f :
       {sim::BuildCellsEffectors(), sim::BuildFigure7Instance()}) {
    ExpectIdMapsMatchCatalog(*f.catalog, LockGraph::Build(*f.catalog));
  }
  sim::SyntheticFixture shared = sim::BuildSynthetic(sim::SyntheticParams{});
  ExpectIdMapsMatchCatalog(*shared.catalog, LockGraph::Build(*shared.catalog));
}

TEST(LockGraphIdMapTest, FuzzedSchemasMapEveryCatalogId) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    sim::FuzzedSchema s = sim::BuildFuzzedSchema(seed);
    SCOPED_TRACE(s.name);
    ExpectIdMapsMatchCatalog(*s.catalog, LockGraph::Build(*s.catalog));
  }
}

TEST(LockGraphIdMapTest, IdsPastTheCatalogThrow) {
  sim::CellsFixture f = sim::BuildCellsEffectors();
  const nf2::Catalog& c = *f.catalog;
  LockGraph g = LockGraph::Build(c);
  EXPECT_THROW(g.DatabaseNode(c.num_databases()), std::out_of_range);
  EXPECT_THROW(g.SegmentNode(c.num_segments()), std::out_of_range);
  EXPECT_THROW(g.RelationNode(c.num_relations()), std::out_of_range);
  EXPECT_THROW(g.ComplexObjectNode(c.num_relations()), std::out_of_range);
  EXPECT_THROW(g.IndexNode(c.num_relations()), std::out_of_range);
  EXPECT_THROW(g.NodeForAttr(c.num_attrs()), std::out_of_range);
}

TEST(LockGraphIdMapTest, AttrsOfAFailedRelationMapToNoNode) {
  // A relation whose tree fails half way leaves its first attributes in
  // the catalog, in no relation's tree (Catalog::CreateRelation).
  using nf2::AttrSpec;
  nf2::Catalog c;
  const nf2::SegmentId seg = *c.CreateSegment(*c.CreateDatabase("db"), "s");
  EXPECT_FALSE(c.CreateRelation(seg, "broken",
                                AttrSpec::Tuple("broken",
                                                {AttrSpec::Key("id"),
                                                 AttrSpec::Ref("to", "none")}))
                   .ok());
  ASSERT_GT(c.num_attrs(), 0u);
  const nf2::RelationId parts = *c.CreateRelation(
      seg, "parts", AttrSpec::Tuple("parts", {AttrSpec::Key("id")}));

  LockGraph g = LockGraph::Build(c);
  for (nf2::AttrId a = 0; a < c.relation(parts).root; ++a) {
    EXPECT_EQ(g.NodeForAttr(a), kInvalidNode) << "attr " << a;
  }
  ExpectIdMapsMatchCatalog(c, g);
}

}  // namespace
}  // namespace codlock::logra
