#include "sim/fixtures.h"

#include <cassert>

namespace codlock::sim {

using nf2::AttrSpec;
using nf2::Value;

CellsFixture BuildCellsEffectors() { return BuildCellsEffectors(CellsParams()); }

CellsFixture BuildCellsEffectors(const CellsParams& params) {
  CellsFixture f;
  f.catalog = std::make_unique<nf2::Catalog>();

  f.db = *f.catalog->CreateDatabase("db1");
  f.seg1 = *f.catalog->CreateSegment(f.db, "seg1");
  f.seg2 = *f.catalog->CreateSegment(f.db, "seg2");

  // Relation "effectors" (Fig. 1, right): the shared tool library.  It must
  // exist before "cells" so the reference can be resolved.
  f.effectors = *f.catalog->CreateRelation(
      f.seg2, "effectors",
      AttrSpec::Tuple("effectors", {
                                       AttrSpec::Key("eff_id"),
                                       AttrSpec::Str("tool"),
                                   }));

  // Relation "cells" (Fig. 1, left).
  f.cells = *f.catalog->CreateRelation(
      f.seg1, "cells",
      AttrSpec::Tuple(
          "cells",
          {
              AttrSpec::Key("cell_id"),
              AttrSpec::Set("c_objects",
                            AttrSpec::Tuple("c_object",
                                            {
                                                AttrSpec::Key("obj_id"),
                                                AttrSpec::Str("obj_name"),
                                            })),
              AttrSpec::List(
                  "robots",
                  AttrSpec::Tuple(
                      "robot",
                      {
                          AttrSpec::Key("robot_id"),
                          AttrSpec::Str("trajectory"),
                          AttrSpec::Set("effectors",
                                        AttrSpec::Ref("ref", "effectors")),
                      })),
          }));

  f.store = std::make_unique<nf2::InstanceStore>(f.catalog.get());

  // Populate effectors e1..eN.
  std::vector<nf2::ObjectId> effector_ids;
  for (int i = 1; i <= params.num_effectors; ++i) {
    Value eff = Value::OfTuple({
        Value::OfString(std::string("e").append(std::to_string(i))),
        Value::OfString(std::string("tool-").append(std::to_string(i))),
    });
    effector_ids.push_back(*f.store->Insert(f.effectors, std::move(eff)));
  }

  // Populate cells c1..cM with robots r1..rK (globally numbered) sharing
  // effectors.
  Rng rng(params.seed);
  int robot_counter = 0;
  for (int c = 1; c <= params.num_cells; ++c) {
    std::vector<Value> c_objects;
    for (int o = 1; o <= params.c_objects_per_cell; ++o) {
      c_objects.push_back(Value::OfTuple({
          Value::OfString(std::string("o")
                              .append(std::to_string(c))
                              .append("_")
                              .append(std::to_string(o))),
          Value::OfString(std::string("object ")
                              .append(std::to_string(o))
                              .append(" of cell ")
                              .append(std::to_string(c))),
      }));
    }
    std::vector<Value> robots;
    for (int r = 0; r < params.robots_per_cell; ++r) {
      ++robot_counter;
      std::vector<Value> refs;
      if (!effector_ids.empty() && params.effectors_per_robot > 0) {
        size_t offset = rng.Uniform(effector_ids.size());
        for (int e = 0; e < params.effectors_per_robot; ++e) {
          size_t idx = (offset + static_cast<size_t>(e)) % effector_ids.size();
          refs.push_back(Value::OfRef(f.effectors, effector_ids[idx]));
        }
      }
      robots.push_back(Value::OfTuple({
          Value::OfString(
              std::string("r").append(std::to_string(robot_counter))),
          Value::OfString(std::string("trajectory-")
                              .append(std::to_string(robot_counter))),
          Value::OfSet(std::move(refs)),
      }));
    }
    Value cell = Value::OfTuple({
        Value::OfString(std::string("c").append(std::to_string(c))),
        Value::OfSet(std::move(c_objects)),
        Value::OfList(std::move(robots)),
    });
    Result<nf2::ObjectId> inserted = f.store->Insert(f.cells, std::move(cell));
    assert(inserted.ok());
    (void)inserted;
  }
  return f;
}

CellsFixture BuildFigure7Instance() {
  CellsParams params;
  params.num_cells = 0;  // instances are built by hand below
  params.num_effectors = 0;
  CellsFixture f = BuildCellsEffectors(params);

  std::vector<nf2::ObjectId> eff;
  for (int i = 1; i <= 3; ++i) {
    Value e = Value::OfTuple({
        Value::OfString(std::string("e").append(std::to_string(i))),
        Value::OfString(std::string("tool-").append(std::to_string(i))),
    });
    eff.push_back(*f.store->Insert(f.effectors, std::move(e)));
  }

  std::vector<Value> c_objects;
  for (int o = 1; o <= 3; ++o) {
    c_objects.push_back(Value::OfTuple({
        Value::OfString(std::string("o").append(std::to_string(o))),
        Value::OfString(std::string("object ").append(std::to_string(o))),
    }));
  }
  Value r1 = Value::OfTuple({
      Value::OfString("r1"),
      Value::OfString("tr1"),
      Value::OfSet({Value::OfRef(f.effectors, eff[0]),
                    Value::OfRef(f.effectors, eff[1])}),
  });
  Value r2 = Value::OfTuple({
      Value::OfString("r2"),
      Value::OfString("tr2"),
      Value::OfSet({Value::OfRef(f.effectors, eff[1]),
                    Value::OfRef(f.effectors, eff[2])}),
  });
  Value c1 = Value::OfTuple({
      Value::OfString("c1"),
      Value::OfSet(std::move(c_objects)),
      Value::OfList({std::move(r1), std::move(r2)}),
  });
  Result<nf2::ObjectId> inserted = f.store->Insert(f.cells, std::move(c1));
  assert(inserted.ok());
  (void)inserted;
  return f;
}

namespace {

/// Builds the nested spec for the synthetic "parts" relation:
/// level k (>0): tuple(key, payload, set(children)); level 0 ("leaf"):
/// tuple(key, payload [, refs]).
AttrSpec SyntheticLevelSpec(int level, int refs_per_leaf) {
  std::string name = std::string("n").append(std::to_string(level));
  std::vector<AttrSpec> fields;
  fields.push_back(AttrSpec::Key(name + "_id"));
  fields.push_back(AttrSpec::Int("payload"));
  if (level == 0) {
    if (refs_per_leaf > 0) {
      fields.push_back(
          AttrSpec::Set("lib_refs", AttrSpec::Ref("ref", "library")));
    }
  } else {
    fields.push_back(AttrSpec::Set(
        "children", SyntheticLevelSpec(level - 1, refs_per_leaf)));
  }
  return AttrSpec::Tuple(name, std::move(fields));
}

Value SyntheticLevelValue(int level, const SyntheticParams& params,
                          const std::vector<nf2::ObjectId>& shared_ids,
                          nf2::RelationId shared_rel, Rng* rng, int* counter) {
  std::vector<Value> fields;
  fields.push_back(
      Value::OfString(std::string("k").append(std::to_string(++*counter))));
  fields.push_back(Value::OfInt(static_cast<int64_t>(rng->Uniform(1000))));
  if (level == 0) {
    if (params.refs_per_leaf > 0 && !shared_ids.empty()) {
      std::vector<Value> refs;
      size_t offset = rng->Uniform(shared_ids.size());
      for (int i = 0; i < params.refs_per_leaf; ++i) {
        size_t idx = (offset + static_cast<size_t>(i)) % shared_ids.size();
        refs.push_back(Value::OfRef(shared_rel, shared_ids[idx]));
      }
      fields.push_back(Value::OfSet(std::move(refs)));
    }
  } else {
    std::vector<Value> children;
    for (int i = 0; i < params.fanout; ++i) {
      children.push_back(SyntheticLevelValue(level - 1, params, shared_ids,
                                             shared_rel, rng, counter));
    }
    fields.push_back(Value::OfSet(std::move(children)));
  }
  return Value::OfTuple(std::move(fields));
}

}  // namespace

SyntheticFixture BuildSynthetic(const SyntheticParams& params) {
  SyntheticFixture f;
  f.catalog = std::make_unique<nf2::Catalog>();
  nf2::DatabaseId db = *f.catalog->CreateDatabase("synth_db");
  nf2::SegmentId seg = *f.catalog->CreateSegment(db, "synth_seg");

  const bool with_sharing = params.refs_per_leaf > 0;
  if (with_sharing) {
    f.shared_relation = *f.catalog->CreateRelation(
        seg, "library",
        AttrSpec::Tuple("library", {
                                       AttrSpec::Key("lib_id"),
                                       AttrSpec::Int("lib_payload"),
                                   }));
  } else {
    f.shared_relation = nf2::kInvalidRelation;
  }

  f.main_relation = *f.catalog->CreateRelation(
      seg, "parts", SyntheticLevelSpec(params.depth, params.refs_per_leaf));

  f.store = std::make_unique<nf2::InstanceStore>(f.catalog.get());
  Rng rng(params.seed);

  std::vector<nf2::ObjectId> shared_ids;
  if (with_sharing) {
    for (int i = 1; i <= params.num_shared; ++i) {
      Value lib = Value::OfTuple({
          Value::OfString(std::string("lib").append(std::to_string(i))),
          Value::OfInt(i),
      });
      shared_ids.push_back(*f.store->Insert(f.shared_relation, std::move(lib)));
    }
  }

  int counter = 0;
  for (int i = 0; i < params.num_objects; ++i) {
    Value obj = SyntheticLevelValue(params.depth, params, shared_ids,
                                    f.shared_relation, &rng, &counter);
    Result<nf2::ObjectId> inserted =
        f.store->Insert(f.main_relation, std::move(obj));
    assert(inserted.ok());
    (void)inserted;
  }
  return f;
}

}  // namespace codlock::sim
