#include "logra/prove.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "authz/authz.h"
#include "util/json.h"

namespace codlock::logra {

using lock::LockMode;

namespace {

constexpr LockMode kNL = LockMode::kNL;
constexpr LockMode kIS = LockMode::kIS;
constexpr LockMode kIX = LockMode::kIX;
constexpr LockMode kS = LockMode::kS;
constexpr LockMode kSIX = LockMode::kSIX;
constexpr LockMode kX = LockMode::kX;

constexpr std::array<LockMode, lock::kNumModes> kAllModes = {
    kNL, kIS, kIX, kS, kSIX, kX};

std::string ModePair(LockMode a, LockMode b) {
  std::string out;
  out += lock::LockModeName(a);
  out += ", ";
  out += lock::LockModeName(b);
  return out;
}

// ---------------------------------------------------------------------------
// (a) Mode-algebra laws.
// ---------------------------------------------------------------------------

/// Collects at most one violation per law.
class LawChecker {
 public:
  explicit LawChecker(const ModeAlgebra& alg) : alg_(alg) {}

  ProverReport Run() {
    CompatLaws();
    SupLaws();
    IntentionLaws();
    report_.laws_checked = laws_checked_;
    return std::move(report_);
  }

 private:
  void Fail(const char* law, std::string message) {
    ProverFinding f;
    f.check = ProofCheck::kModeAlgebra;
    f.law = law;
    f.message = std::move(message);
    report_.findings.push_back(std::move(f));
  }

  /// Runs one universally quantified law: \p body returns an empty string
  /// when the law holds and the counterexample text otherwise.
  template <typename Fn>
  void Law(const char* law, Fn&& body) {
    ++laws_checked_;
    std::string counterexample = body();
    if (!counterexample.empty()) Fail(law, std::move(counterexample));
  }

  void CompatLaws() {
    Law("compat-nl", [&]() -> std::string {
      for (LockMode m : kAllModes) {
        if (!alg_.Compatible(kNL, m) || !alg_.Compatible(m, kNL)) {
          return std::string("NL must be compatible with ") +
                 std::string(lock::LockModeName(m));
        }
      }
      return {};
    });
    Law("compat-symmetry", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          if (alg_.Compatible(a, b) != alg_.Compatible(b, a)) {
            return "Compat(" + ModePair(a, b) + ") != Compat(" +
                   ModePair(b, a) + ")";
          }
        }
      }
      return {};
    });
    Law("compat-x-exclusive", [&]() -> std::string {
      for (LockMode m : kAllModes) {
        if (m != kNL && alg_.Compatible(kX, m)) {
          return std::string("X must conflict with ") +
                 std::string(lock::LockModeName(m));
        }
      }
      return {};
    });
    // The granting rule the whole hierarchy rests on: a weaker mode can
    // never see conflicts a stronger one does not (so `Covers` implies
    // the held lock is at least as restrictive to others).
    Law("compat-downward-closed", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          if (!alg_.Leq(a, b)) continue;
          for (LockMode c : kAllModes) {
            if (alg_.Compatible(b, c) && !alg_.Compatible(a, c)) {
              return std::string(lock::LockModeName(a)) + " <= " +
                     std::string(lock::LockModeName(b)) + " but Compat(" +
                     ModePair(b, c) + ") and !Compat(" + ModePair(a, c) + ")";
            }
          }
        }
      }
      return {};
    });
  }

  void SupLaws() {
    Law("sup-identity", [&]() -> std::string {
      for (LockMode m : kAllModes) {
        if (alg_.Sup(kNL, m) != m || alg_.Sup(m, kNL) != m) {
          return std::string("Sup(NL, ") +
                 std::string(lock::LockModeName(m)) + ") != " +
                 std::string(lock::LockModeName(m));
        }
      }
      return {};
    });
    Law("sup-commutative", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          if (alg_.Sup(a, b) != alg_.Sup(b, a)) {
            return "Sup(" + ModePair(a, b) + ") != Sup(" + ModePair(b, a) +
                   ")";
          }
        }
      }
      return {};
    });
    Law("sup-idempotent", [&]() -> std::string {
      for (LockMode m : kAllModes) {
        if (alg_.Sup(m, m) != m) {
          return std::string("Sup(m, m) != m for m = ") +
                 std::string(lock::LockModeName(m));
        }
      }
      return {};
    });
    Law("sup-associative", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          for (LockMode c : kAllModes) {
            if (alg_.Sup(alg_.Sup(a, b), c) != alg_.Sup(a, alg_.Sup(b, c))) {
              return "Sup not associative at (" + ModePair(a, b) + ", " +
                     std::string(lock::LockModeName(c)) + ")";
            }
          }
        }
      }
      return {};
    });
    Law("sup-upper-bound", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          LockMode s = alg_.Sup(a, b);
          if (!alg_.Leq(a, s) || !alg_.Leq(b, s)) {
            return "Sup(" + ModePair(a, b) + ") = " +
                   std::string(lock::LockModeName(s)) +
                   " is not an upper bound";
          }
        }
      }
      return {};
    });
    Law("sup-least", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          LockMode s = alg_.Sup(a, b);
          for (LockMode c : kAllModes) {
            if (alg_.Leq(a, c) && alg_.Leq(b, c) && !alg_.Leq(s, c)) {
              return std::string(lock::LockModeName(c)) +
                     " is an upper bound of {" + ModePair(a, b) +
                     "} below Sup = " + std::string(lock::LockModeName(s));
            }
          }
        }
      }
      return {};
    });
    Law("sup-top-x", [&]() -> std::string {
      for (LockMode m : kAllModes) {
        if (alg_.Sup(kX, m) != kX || alg_.Sup(m, kX) != kX) {
          return std::string("Sup(X, ") +
                 std::string(lock::LockModeName(m)) + ") != X";
        }
      }
      return {};
    });
    Law("sup-six", [&]() -> std::string {
      if (alg_.Sup(kS, kIX) != kSIX || alg_.Sup(kIX, kS) != kSIX) {
        return std::string("SIX != Sup(S, IX) (got ") +
               std::string(lock::LockModeName(alg_.Sup(kS, kIX))) + ")";
      }
      return {};
    });
  }

  void IntentionLaws() {
    Law("intention-nl", [&]() -> std::string {
      if (alg_.IntentionFor(kNL) != kNL) return "IntentionOf(NL) != NL";
      return {};
    });
    Law("intention-pure", [&]() -> std::string {
      for (LockMode m : kAllModes) {
        LockMode i = alg_.IntentionFor(m);
        if (m != kNL && i != kIS && i != kIX) {
          return std::string("IntentionOf(") +
                 std::string(lock::LockModeName(m)) + ") = " +
                 std::string(lock::LockModeName(i)) +
                 " is not a pure intention mode";
        }
      }
      return {};
    });
    Law("intention-idempotent", [&]() -> std::string {
      for (LockMode m : kAllModes) {
        LockMode i = alg_.IntentionFor(m);
        if (alg_.IntentionFor(i) != i) {
          return std::string("IntentionOf not idempotent at ") +
                 std::string(lock::LockModeName(m));
        }
      }
      return {};
    });
    Law("intention-monotone", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          if (alg_.Leq(a, b) &&
              !alg_.Leq(alg_.IntentionFor(a), alg_.IntentionFor(b))) {
            return "IntentionOf not monotone over " + ModePair(a, b);
          }
        }
      }
      return {};
    });
    Law("intention-below", [&]() -> std::string {
      for (LockMode m : kAllModes) {
        if (!alg_.Leq(alg_.IntentionFor(m), m)) {
          return std::string("IntentionOf(") +
                 std::string(lock::LockModeName(m)) + ") above its argument";
        }
      }
      return {};
    });
    // The DAG-protocol linchpin: two conflicting accesses must be able to
    // *descend* to their conflict — the conflict is re-detected at the
    // deeper node, so the intention announcements themselves must not
    // block each other.
    Law("intention-conflict-compat", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          if (!alg_.Compatible(a, b) &&
              !alg_.Compatible(alg_.IntentionFor(a), alg_.IntentionFor(b))) {
            return "conflicting modes (" + ModePair(a, b) +
                   ") have conflicting intention modes";
          }
        }
      }
      return {};
    });
    // A writer's intention must still exclude whole-subtree access modes
    // that the write conflicts with — otherwise an S holder on an ancestor
    // can't see a descendant write coming (IntentionOf(X) = IS breaks
    // exactly this).
    Law("intention-write-preserved", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode acc : {kS, kX}) {
          if (!alg_.Compatible(a, acc) &&
              alg_.Compatible(alg_.IntentionFor(a), acc)) {
            return std::string(lock::LockModeName(a)) + " conflicts with " +
                   std::string(lock::LockModeName(acc)) +
                   " but IntentionOf(a) = " +
                   std::string(lock::LockModeName(alg_.IntentionFor(a))) +
                   " does not";
          }
        }
      }
      return {};
    });
    // An intention announcement can never conflict where its access mode
    // does not.
    Law("intention-compat-weaker", [&]() -> std::string {
      for (LockMode a : kAllModes) {
        for (LockMode b : kAllModes) {
          if (alg_.Compatible(a, b) &&
              !alg_.Compatible(alg_.IntentionFor(a), b)) {
            return "Compat(" + ModePair(a, b) + ") but IntentionOf(" +
                   std::string(lock::LockModeName(a)) + ") conflicts";
          }
        }
      }
      return {};
    });
  }

  const ModeAlgebra& alg_;
  ProverReport report_;
  size_t laws_checked_ = 0;
};

std::string WitnessJson(const AccessWitness& w) {
  std::ostringstream os;
  os << "{\"access\":\"" << JsonEscape(w.description) << "\",\"locks\":[";
  for (size_t i = 0; i < w.locks.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"node\":" << w.locks[i].first << ",\"mode\":\""
       << lock::LockModeName(w.locks[i].second) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string FindingJson(const ProverFinding& f) {
  std::ostringstream os;
  os << "{\"check\":\"" << ProofCheckName(f.check) << "\"";
  if (!f.law.empty()) os << ",\"law\":\"" << f.law << "\"";
  os << ",\"node\":";
  if (f.node == kInvalidNode) {
    os << "null";
  } else {
    os << f.node;
  }
  os << ",\"message\":\"" << JsonEscape(f.message) << "\"";
  if (!f.left.description.empty()) {
    os << ",\"left\":" << WitnessJson(f.left)
       << ",\"right\":" << WitnessJson(f.right);
  }
  if (!f.cycle.empty()) {
    os << ",\"cycle\":[";
    for (size_t i = 0; i < f.cycle.size(); ++i) {
      if (i > 0) os << ',';
      os << f.cycle[i];
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

// ---------------------------------------------------------------------------
// (b)/(c) Symbolic access enumeration.
// ---------------------------------------------------------------------------

/// How rule 4′'s modifiability predicate is instantiated for one access.
enum class AuthzProfile : uint8_t {
  kFull,         ///< may modify every relation (rule 4 everywhere)
  kPrimaryOnly,  ///< may modify only the access's own relation (4′ fires
                 ///< on every referenced unit)
  kConcrete,     ///< evaluate a real AuthorizationManager for one user
};

std::string_view ProfileName(AuthzProfile p) {
  switch (p) {
    case AuthzProfile::kFull:
      return "authz=full";
    case AuthzProfile::kPrimaryOnly:
      return "authz=primary-only";
    case AuthzProfile::kConcrete:
      return "authz=user";
  }
  return "?";
}

/// One symbolic access: the locks the protocol-under-test lands (per
/// schema node, joined), the acquisition sequence, and the *semantic*
/// read/write footprint under the true paper semantics (independent of
/// the model under test — this is what keeps a mutated model from
/// redefining the theorem it is checked against).
struct Access {
  std::string description;
  std::vector<std::pair<NodeId, LockMode>> seq;
  std::vector<std::pair<NodeId, LockMode>> landed;  // sorted by node
  std::vector<uint64_t> reads, writes;              // bitsets over NodeId
  std::vector<bool> via_ref;  // node touched through a dashed edge
  bool any_write = false;
};

void SetBit(std::vector<uint64_t>& bits, NodeId n) {
  bits[n >> 6] |= uint64_t{1} << (n & 63);
}

bool IsSingletonLevel(const Node& n) {
  return n.level == NodeLevel::kDatabase || n.level == NodeLevel::kSegment ||
         n.level == NodeLevel::kRelation || n.level == NodeLevel::kIndex;
}

using Route = std::vector<NodeId>;  // ref BLUs, outermost first

class Prover {
 public:
  Prover(const LockGraph& graph, const nf2::Catalog& catalog,
         const ModeAlgebra& alg, const ProtocolModel& model,
         const ProverOptions& opts, const authz::AuthorizationManager* authz,
         uint64_t user)
      : graph_(graph),
        catalog_(catalog),
        alg_(alg),
        model_(model),
        opts_(opts),
        authz_(authz),
        user_(user),
        words_((graph.num_nodes() + 63) / 64) {}

  ProverReport Run() {
    if (opts_.check_mode_algebra) {
      ProverReport laws = LawChecker(alg_).Run();
      report_.laws_checked = laws.laws_checked;
      for (ProverFinding& f : laws.findings) {
        if (!AddFinding(std::move(f))) break;
      }
    }
    for (const Node& n : graph_.nodes()) {
      if (graph_.IsEntryPoint(n.id)) ++report_.entry_points;
    }
    if (opts_.check_side_entry) CheckSideEntry();
    if (opts_.check_visibility || opts_.check_order) {
      BuildRefsInto();
      EnumerateAccesses();
    }
    if (opts_.check_visibility) CheckVisibility();
    if (opts_.check_order) CheckOrder();
    return std::move(report_);
  }

 private:
  // -- findings ------------------------------------------------------------

  bool AddFinding(ProverFinding f) {
    if (report_.findings.size() >= opts_.max_findings) return false;
    report_.findings.push_back(std::move(f));
    return report_.findings.size() < opts_.max_findings;
  }

  // -- structural precondition --------------------------------------------

  void CheckSideEntry() {
    for (const Node& n : graph_.nodes()) {
      if (n.dashed_target == kInvalidNode) continue;
      const Node& target = graph_.node(n.dashed_target);
      if (target.level == NodeLevel::kComplexObject) continue;
      ProverFinding f;
      f.check = ProofCheck::kSideEntry;
      f.node = n.id;
      f.message = "reference " + graph_.NodeName(n.id) +
                  " enters its target unit at interior node " +
                  graph_.NodeName(target.id) +
                  "; propagation rules require entry at the unit root";
      if (!AddFinding(std::move(f))) return;
    }
  }

  // -- route enumeration ---------------------------------------------------

  void BuildRefsInto() {
    for (const Node& n : graph_.nodes()) {
      if (n.dashed_target == kInvalidNode) continue;
      refs_into_[graph_.node(n.dashed_target).relation].push_back(n.id);
    }
    for (auto& [rel, refs] : refs_into_) std::sort(refs.begin(), refs.end());
  }

  /// All reference routes (outermost ref first) whose last ref enters
  /// \p rel.  Memoized; an on-stack guard keeps reference cycles (the
  /// kCyclicReference mutant) from recursing forever.
  const std::vector<Route>& Routes(nf2::RelationId rel) {
    static const std::vector<Route> kEmpty;
    auto it = route_memo_.find(rel);
    if (it != route_memo_.end()) return it->second;
    if (route_stack_.count(rel)) return kEmpty;
    route_stack_.insert(rel);
    std::vector<Route> out;
    auto refs = refs_into_.find(rel);
    if (refs != refs_into_.end()) {
      for (NodeId b : refs->second) {
        if (out.size() >= opts_.max_routes_per_unit) break;
        out.push_back(Route{b});
        for (const Route& prefix : Routes(graph_.node(b).relation)) {
          if (out.size() >= opts_.max_routes_per_unit) break;
          Route r = prefix;
          r.push_back(b);
          out.push_back(std::move(r));
        }
      }
    }
    route_stack_.erase(rel);
    report_.routes_enumerated += out.size();
    return route_memo_.emplace(rel, std::move(out)).first->second;
  }

  // -- per-access lock-set computation (the model under test) --------------

  struct BuildCtx {
    Access a;
    /// Entry points already implicitly propagated into → strongest mode.
    std::unordered_map<NodeId, LockMode> visited;
    std::unordered_map<NodeId, LockMode> landed;
    bool in_ref = false;
    AuthzProfile profile = AuthzProfile::kFull;
    nf2::RelationId primary_rel = nf2::kInvalidRelation;
  };

  bool CanModify(const BuildCtx& ctx, nf2::RelationId rel) const {
    switch (ctx.profile) {
      case AuthzProfile::kFull:
        return true;
      case AuthzProfile::kPrimaryOnly:
        return rel == ctx.primary_rel;
      case AuthzProfile::kConcrete:
        return authz_ != nullptr && rel != nf2::kInvalidRelation &&
               authz_->CanModify(user_, rel);
    }
    return false;
  }

  LockMode Weaken(const BuildCtx& ctx, LockMode m, nf2::RelationId rel) const {
    if (m != kX) return m;
    return CanModify(ctx, rel) ? model_.x_on_modifiable
                               : model_.x_on_nonmodifiable;
  }

  void Add(BuildCtx& ctx, NodeId n, LockMode m) const {
    if (m == kNL) return;
    ctx.a.seq.emplace_back(n, m);
    auto [it, fresh] = ctx.landed.emplace(n, m);
    if (!fresh) it->second = alg_.Sup(it->second, m);
    if (ctx.in_ref) ctx.a.via_ref[n] = true;
  }

  /// Rules 1/2: implicit locks on the superunit chain, outermost first.
  void ChainUp(BuildCtx& ctx, NodeId n, LockMode intent) const {
    if (!model_.upward_propagation) return;
    const std::vector<NodeId>& chain = graph_.SuperunitChain(n);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      Add(ctx, *it, intent);
    }
  }

  /// The basic root-to-leaf protocol (always in force: this is explicit
  /// locking, not propagation).
  void ExplicitPath(BuildCtx& ctx, NodeId target, LockMode m) const {
    const std::vector<NodeId>& chain = graph_.SuperunitChain(target);
    LockMode intent = alg_.IntentionFor(m);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      Add(ctx, *it, intent);
    }
    Add(ctx, target, m);
  }

  /// Ref BLUs under \p n ordered by (target relation DESCENDING, node
  /// id) — the deterministic global propagation order co_protocol.cc
  /// uses.  Descending relation id is a topological order of the
  /// reference DAG (targets are created before referencers), so implicit
  /// propagation enters units outermost-first, exactly like explicit
  /// traversals through reference chains — which is what keeps the
  /// acquisition-order graph acyclic across units.
  std::vector<NodeId> SortedRefsUnder(NodeId n) const {
    std::vector<NodeId> refs = graph_.RefBlusUnder(n);
    std::sort(refs.begin(), refs.end(), [&](NodeId a, NodeId b) {
      nf2::RelationId ra = graph_.node(graph_.node(a).dashed_target).relation;
      nf2::RelationId rb = graph_.node(graph_.node(b).dashed_target).relation;
      return ra != rb ? ra > rb : a < b;
    });
    return refs;
  }

  /// Rules 3/4/4′: implicit downward propagation into referenced units.
  void Downward(BuildCtx& ctx, NodeId target, LockMode m) const {
    if (!model_.downward_propagation) return;
    if (m != kS && m != kX) return;
    for (NodeId b : SortedRefsUnder(target)) {
      Propagate(ctx, graph_.node(b).dashed_target, m);
    }
  }

  void Propagate(BuildCtx& ctx, NodeId ep, LockMode m) const {
    LockMode epm = Weaken(ctx, m, graph_.node(ep).relation);
    if (epm == kNL) return;
    auto it = ctx.visited.find(ep);
    if (it != ctx.visited.end()) {
      if (alg_.Leq(epm, it->second)) return;
      it->second = alg_.Sup(it->second, epm);
    } else {
      ctx.visited.emplace(ep, epm);
    }
    ChainUp(ctx, ep, alg_.IntentionFor(epm));
    Add(ctx, ep, epm);
    if (epm == kS || epm == kX) {
      for (NodeId b : SortedRefsUnder(ep)) {
        Propagate(ctx, graph_.node(b).dashed_target, epm);
      }
    }
  }

  /// Locks the solid path \p ep (exclusive) → \p target: intermediate
  /// nodes at \p intent, the target at \p final_mode.
  void WithinPath(BuildCtx& ctx, NodeId ep, NodeId target, LockMode intent,
                  LockMode final_mode) const {
    std::vector<NodeId> path;
    NodeId cur = graph_.node(target).solid_parent;
    while (cur != kInvalidNode && cur != ep &&
           !IsSingletonLevel(graph_.node(cur))) {
      path.push_back(cur);
      cur = graph_.node(cur).solid_parent;
    }
    if (cur == ep) {
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        Add(ctx, *it, intent);
      }
    }
    Add(ctx, target, final_mode);
  }

  // -- semantic footprint (true paper semantics, model-independent) --------

  void SemSubtree(BuildCtx& ctx, NodeId root, bool write,
                  std::vector<NodeId>* refs) const {
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      SetBit(ctx.a.reads, n);
      if (write) SetBit(ctx.a.writes, n);
      if (ctx.in_ref) ctx.a.via_ref[n] = true;
      const Node& node = graph_.node(n);
      if (node.is_ref_blu() && refs) refs->push_back(n);
      for (NodeId c : node.solid_children) stack.push_back(c);
    }
  }

  void SemEnter(BuildCtx& ctx, NodeId ep, LockMode m,
                std::unordered_map<NodeId, LockMode>& visited) const {
    LockMode eff = m;
    if (m == kX && !CanModify(ctx, graph_.node(ep).relation)) eff = kS;
    auto it = visited.find(ep);
    if (it != visited.end() && !(eff == kX && it->second == kS)) return;
    visited[ep] = eff;
    std::vector<NodeId> refs;
    SemSubtree(ctx, ep, eff == kX, &refs);
    for (NodeId b : refs) {
      SemEnter(ctx, graph_.node(b).dashed_target, eff, visited);
    }
  }

  /// Reads/writes of "access target in mode m" under the *paper's*
  /// semantics: S/X cover the solid subtree; references are followed with
  /// X truly weakened to S on units the access may not modify (a
  /// transaction without the right never writes them, whatever the
  /// model-under-test locks).
  void Semantics(BuildCtx& ctx, NodeId target, LockMode m) const {
    bool saved = ctx.in_ref;
    ctx.in_ref = saved;  // target subtree keeps the caller's context
    std::vector<NodeId> refs;
    SemSubtree(ctx, target, m == kX, &refs);
    ctx.in_ref = true;
    std::unordered_map<NodeId, LockMode> visited;
    for (NodeId b : refs) {
      SemEnter(ctx, graph_.node(b).dashed_target, m, visited);
    }
    ctx.in_ref = saved;
  }

  // -- access construction -------------------------------------------------

  BuildCtx NewCtx(AuthzProfile profile, nf2::RelationId primary) const {
    BuildCtx ctx;
    ctx.profile = profile;
    ctx.primary_rel = primary;
    ctx.a.reads.assign(words_, 0);
    ctx.a.writes.assign(words_, 0);
    ctx.a.via_ref.assign(graph_.num_nodes(), false);
    return ctx;
  }

  void Finish(BuildCtx& ctx) {
    ctx.a.landed.assign(ctx.landed.begin(), ctx.landed.end());
    std::sort(ctx.a.landed.begin(), ctx.a.landed.end());
    for (uint64_t w : ctx.a.writes) {
      if (w) ctx.a.any_write = true;
    }
    accesses_.push_back(std::move(ctx.a));
    ++report_.accesses_enumerated;
  }

  void BuildDirect(NodeId target, LockMode m, AuthzProfile profile) {
    nf2::RelationId primary = graph_.node(target).relation;
    if (m == kX && !CanModify(NewCtx(profile, primary), primary) &&
        profile == AuthzProfile::kConcrete) {
      return;  // not an authorized access; nothing to enumerate
    }
    BuildCtx ctx = NewCtx(profile, primary);
    ctx.a.description = std::string(lock::LockModeName(m)) + " on " +
                        graph_.NodeName(target) + " (direct, " +
                        std::string(ProfileName(profile)) + ")";
    ExplicitPath(ctx, target, m);
    ctx.in_ref = true;
    Downward(ctx, target, m);
    ctx.in_ref = false;
    Semantics(ctx, target, m);
    Finish(ctx);
  }

  void BuildThrough(const Route& route, NodeId target, LockMode m,
                    AuthzProfile profile) {
    nf2::RelationId primary = graph_.node(target).relation;
    BuildCtx ctx = NewCtx(profile, primary);
    if (m == kX && !CanModify(ctx, primary)) return;
    LockMode intent = alg_.IntentionFor(m);
    std::string via;
    for (NodeId b : route) {
      if (!via.empty()) via += " -> ";
      via += graph_.NodeName(b);
    }
    ctx.a.description = std::string(lock::LockModeName(m)) + " on " +
                        graph_.NodeName(target) + " through " + via + " (" +
                        std::string(ProfileName(profile)) + ")";
    ExplicitPath(ctx, route[0], intent);
    ctx.in_ref = true;
    for (size_t i = 0; i < route.size(); ++i) {
      NodeId ep = graph_.node(route[i]).dashed_target;
      if (ep == kInvalidNode) return;
      bool last = i + 1 == route.size();
      if (!last) {
        ChainUp(ctx, ep, intent);
        Add(ctx, ep, intent);
        WithinPath(ctx, ep, route[i + 1], intent, intent);
        continue;
      }
      if (target == ep) {
        // Explicit LockEntryPoint: 4′ weakening applies to the requested
        // mode itself (the implementation weakens explicit entry X too).
        LockMode epm = Weaken(ctx, m, graph_.node(ep).relation);
        if (epm != kNL) {
          ChainUp(ctx, ep, alg_.IntentionFor(epm));
          Add(ctx, ep, epm);
          if (epm == kS || epm == kX) {
            for (NodeId b : SortedRefsUnder(ep)) {
              Propagate(ctx, graph_.node(b).dashed_target, epm);
            }
          }
        }
      } else {
        ChainUp(ctx, ep, intent);
        Add(ctx, ep, intent);
        WithinPath(ctx, ep, target, intent, m);
        Downward(ctx, target, m);
      }
    }
    Semantics(ctx, target, m);
    ctx.in_ref = false;
    Finish(ctx);
  }

  // -- enumeration ---------------------------------------------------------

  std::vector<NodeId> TargetsOf(nf2::RelationId rel) const {
    std::vector<NodeId> targets;
    NodeId co = graph_.ComplexObjectNode(rel);
    targets.push_back(co);
    const Node& co_node = graph_.node(co);
    if (!co_node.solid_children.empty()) {
      targets.push_back(co_node.solid_children[0]);
    }
    NodeId leaf = co;
    while (!graph_.node(leaf).solid_children.empty()) {
      leaf = graph_.node(leaf).solid_children[0];
    }
    targets.push_back(leaf);
    for (NodeId b : graph_.RefBlusUnder(co)) {
      targets.push_back(b);
      NodeId parent = graph_.node(b).solid_parent;
      if (parent != kInvalidNode && !IsSingletonLevel(graph_.node(parent))) {
        targets.push_back(parent);
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    return targets;
  }

  void ForEachModeProfile(const std::function<void(LockMode, AuthzProfile)>& fn)
      const {
    if (authz_ != nullptr) {
      fn(kS, AuthzProfile::kConcrete);
      fn(kX, AuthzProfile::kConcrete);
      return;
    }
    fn(kS, AuthzProfile::kFull);
    fn(kX, AuthzProfile::kFull);
    fn(kX, AuthzProfile::kPrimaryOnly);
  }

  void EnumerateAccesses() {
    std::vector<NodeId> hierarchy;
    for (const Node& n : graph_.nodes()) {
      if (n.level == NodeLevel::kDatabase || n.level == NodeLevel::kSegment) {
        hierarchy.push_back(n.id);
      }
    }
    for (NodeId t : hierarchy) {
      ForEachModeProfile(
          [&](LockMode m, AuthzProfile p) { BuildDirect(t, m, p); });
    }
    for (nf2::RelationId rel = 0; rel < catalog_.num_relations(); ++rel) {
      std::vector<NodeId> targets = TargetsOf(rel);
      targets.push_back(graph_.RelationNode(rel));
      for (NodeId t : targets) {
        ForEachModeProfile(
            [&](LockMode m, AuthzProfile p) { BuildDirect(t, m, p); });
      }
      NodeId co = graph_.ComplexObjectNode(rel);
      if (!graph_.IsEntryPoint(co)) continue;
      // Through-targets: the entry point itself plus interior nodes a
      // navigational access can land on.
      std::vector<NodeId> through = TargetsOf(rel);
      for (const Route& route : Routes(rel)) {
        for (NodeId t : through) {
          ForEachModeProfile(
              [&](LockMode m, AuthzProfile p) { BuildThrough(route, t, m, p); });
        }
      }
    }
  }

  // -- (b) visibility ------------------------------------------------------

  void CheckVisibility() {
    std::vector<uint64_t> conflict(words_);
    for (size_t i = 0; i < accesses_.size(); ++i) {
      for (size_t j = i; j < accesses_.size(); ++j) {
        const Access& a = accesses_[i];
        const Access& b = accesses_[j];
        if (!a.any_write && !b.any_write) continue;
        bool any = false;
        for (size_t w = 0; w < words_; ++w) {
          conflict[w] = (a.writes[w] & (b.reads[w] | b.writes[w])) |
                        (b.writes[w] & a.reads[w]);
          any |= conflict[w] != 0;
        }
        if (!any) continue;
        ++report_.pairs_checked;
        if (!CheckPair(a, b, conflict)) return;
      }
    }
  }

  /// Returns false when the finding budget is exhausted.
  bool CheckPair(const Access& a, const Access& b,
                 const std::vector<uint64_t>& conflict) {
    // Incompatible landed collisions, classified by instance validity:
    // singleton-level nodes always denote the same instance; a collision
    // inside a unit protects exactly the conflicts in that unit (the
    // conflicting instance is the one both accesses entered).
    bool singleton_hit = false;
    std::unordered_set<nf2::RelationId> unit_hit;
    size_t ia = 0, ib = 0;
    while (ia < a.landed.size() && ib < b.landed.size()) {
      if (a.landed[ia].first < b.landed[ib].first) {
        ++ia;
      } else if (b.landed[ib].first < a.landed[ia].first) {
        ++ib;
      } else {
        NodeId n = a.landed[ia].first;
        if (!alg_.Compatible(a.landed[ia].second, b.landed[ib].second)) {
          const Node& node = graph_.node(n);
          if (IsSingletonLevel(node)) {
            singleton_hit = true;
          } else {
            unit_hit.insert(node.relation);
          }
        }
        ++ia;
        ++ib;
      }
    }
    if (singleton_hit) return true;
    for (size_t w = 0; w < words_; ++w) {
      uint64_t bits = conflict[w];
      while (bits) {
        NodeId n = static_cast<NodeId>(w * 64 +
                                       __builtin_ctzll(bits));
        bits &= bits - 1;
        const Node& node = graph_.node(n);
        nf2::RelationId rel = node.relation;
        if (unit_hit.count(rel)) continue;
        // In the conflicting instantiation both accesses touch the same
        // instance at n, yet no lock they hold collides on any node of
        // that instance's unit (nor on a singleton): invisible conflict.
        ProverFinding f;
        f.check = ProofCheck::kVisibility;
        f.node = n;
        f.message = "conflicting accesses never collide: both touch " +
                    graph_.NodeName(n) +
                    " (one writing) but no common node is locked in "
                    "incompatible modes";
        f.left.description = a.description;
        f.left.locks = a.seq;
        f.right.description = b.description;
        f.right.locks = b.seq;
        return AddFinding(std::move(f));
      }
    }
    return true;
  }

  // -- (c) acquisition order ----------------------------------------------

  /// Per-access acquisition history at event granularity.
  struct OrderInfo {
    struct Ev {
      NodeId node;
      LockMode req;  ///< cumulative mode requested at this event
    };
    std::vector<Ev> events;  ///< first acquisitions + strict upgrades
    std::unordered_map<NodeId, size_t> pos;    ///< node -> first event idx
    std::unordered_map<NodeId, LockMode> first;  ///< first requested mode
    std::unordered_map<NodeId, LockMode> joined;
  };

  /// Deadlock analysis over lock contention, not raw acquisition order.
  ///
  /// A transaction can only wait at a node both it and another access
  /// lock in incompatible modes, and such a wait is impossible when an
  /// earlier common node *shields* it: if both accesses acquire node s
  /// before the wait point and their first-acquisition modes at s are
  /// incompatible, they can never both be past s concurrently (modes
  /// only ever strengthen), so the deeper wait can never arise.  The
  /// root-to-leaf rule makes this powerful: accesses that conflict at
  /// the database or segment node serialize right there and contribute
  /// no deeper wait edges.  Unshielded waits become hold-and-wait edges
  /// (held contended node -> wait node); a cycle is a potential deadlock
  /// and is reported with a per-edge access witness.
  void CheckOrder() {
    std::vector<OrderInfo> info(accesses_.size());
    for (size_t idx = 0; idx < accesses_.size(); ++idx) {
      OrderInfo& oi = info[idx];
      for (const auto& [n, m] : accesses_[idx].seq) {
        auto it = oi.joined.find(n);
        if (it == oi.joined.end()) {
          oi.joined.emplace(n, m);
          oi.pos.emplace(n, oi.events.size());
          oi.first.emplace(n, m);
          oi.events.push_back({n, m});
        } else if (!alg_.Leq(m, it->second)) {
          // A strict upgrade is a fresh wait point: it re-enters the
          // queue for the stronger mode.
          it->second = alg_.Sup(it->second, m);
          oi.events.push_back({n, it->second});
        }
      }
    }

    // Live (unshielded) waits per access and the nodes at which each
    // access can block somebody else.
    std::vector<std::vector<std::pair<size_t, NodeId>>> waits(info.size());
    std::vector<std::unordered_set<NodeId>> blocks(info.size());
    auto collect = [&](size_t i, size_t j,
                       const std::vector<NodeId>& shield) {
      const OrderInfo& a = info[i];
      const OrderInfo& b = info[j];
      for (size_t k = 0; k < a.events.size(); ++k) {
        const OrderInfo::Ev& e = a.events[k];
        auto bj = b.joined.find(e.node);
        if (bj == b.joined.end()) continue;
        if (alg_.Compatible(e.req, bj->second)) continue;
        size_t bpos = b.pos.at(e.node);
        bool shielded = false;
        for (NodeId s : shield) {
          if (s != e.node && a.pos.at(s) < k && b.pos.at(s) < bpos) {
            shielded = true;
            break;
          }
        }
        if (!shielded) {
          waits[i].emplace_back(k, e.node);
          blocks[j].insert(e.node);
        }
      }
    };
    for (size_t i = 0; i < info.size(); ++i) {
      for (size_t j = i + 1; j < info.size(); ++j) {
        // Common nodes whose first-acquisition modes are incompatible:
        // the two accesses are never concurrently past any of them.
        std::vector<NodeId> shield;
        const Access& la = accesses_[i];
        const Access& lb = accesses_[j];
        size_t ia = 0, ib = 0;
        while (ia < la.landed.size() && ib < lb.landed.size()) {
          if (la.landed[ia].first < lb.landed[ib].first) {
            ++ia;
          } else if (lb.landed[ib].first < la.landed[ia].first) {
            ++ib;
          } else {
            NodeId n = la.landed[ia].first;
            if (!alg_.Compatible(info[i].first.at(n), info[j].first.at(n))) {
              shield.push_back(n);
            }
            ++ia;
            ++ib;
          }
        }
        collect(i, j, shield);
        collect(j, i, shield);
      }
    }

    std::unordered_map<uint64_t, size_t> edge_sample;  // edge -> access idx
    std::unordered_map<NodeId, std::vector<NodeId>> adj;
    std::unordered_set<uint64_t> edges;
    for (size_t i = 0; i < info.size(); ++i) {
      for (const auto& [k, v] : waits[i]) {
        for (NodeId u : blocks[i]) {
          if (u == v) continue;
          auto up = info[i].pos.find(u);
          if (up == info[i].pos.end() || up->second >= k) continue;
          uint64_t key = (uint64_t{u} << 32) | v;
          if (edges.insert(key).second) {
            adj[u].push_back(v);
            edge_sample.emplace(key, i);
          }
        }
      }
    }
    report_.order_nodes = adj.size();
    report_.order_edges = edges.size();

    // Iterative 3-color DFS; on a back edge, the stack segment from the
    // back-edge target is the witness cycle.
    std::unordered_map<NodeId, int> color;  // 0 white, 1 grey, 2 black
    std::vector<NodeId> stack;
    std::function<bool(NodeId)> dfs = [&](NodeId u) -> bool {
      color[u] = 1;
      stack.push_back(u);
      auto it = adj.find(u);
      if (it != adj.end()) {
        for (NodeId v : it->second) {
          int c = color[v];
          if (c == 1) {
            ProverFinding f;
            f.check = ProofCheck::kAcquisitionOrder;
            f.node = v;
            auto pos = std::find(stack.begin(), stack.end(), v);
            f.cycle.assign(pos, stack.end());
            f.cycle.push_back(v);
            std::string names;
            for (NodeId n : f.cycle) {
              if (!names.empty()) names += " -> ";
              names += graph_.NodeName(n);
            }
            f.message = "acquisition order cycle: " + names;
            // Witness: one access per edge that acquires in that order.
            for (size_t k = 1; k < f.cycle.size(); ++k) {
              uint64_t ek =
                  (uint64_t{f.cycle[k - 1]} << 32) | f.cycle[k];
              auto sample = edge_sample.find(ek);
              if (sample == edge_sample.end()) continue;
              f.message += "; edge " + graph_.NodeName(f.cycle[k - 1]) +
                           " -> " + graph_.NodeName(f.cycle[k]) +
                           " from access \"" +
                           accesses_[sample->second].description + "\"";
            }
            AddFinding(std::move(f));
            return true;
          }
          if (c == 0 && dfs(v)) return true;
        }
      }
      stack.pop_back();
      color[u] = 2;
      return false;
    };
    std::vector<NodeId> roots;
    for (const auto& [u, _] : adj) roots.push_back(u);
    std::sort(roots.begin(), roots.end());
    for (NodeId u : roots) {
      if (color[u] == 0 && dfs(u)) return;
    }
  }

  const LockGraph& graph_;
  const nf2::Catalog& catalog_;
  const ModeAlgebra& alg_;
  const ProtocolModel& model_;
  const ProverOptions& opts_;
  const authz::AuthorizationManager* authz_;
  uint64_t user_;
  size_t words_;
  ProverReport report_;
  std::vector<Access> accesses_;
  std::unordered_map<nf2::RelationId, std::vector<NodeId>> refs_into_;
  std::unordered_map<nf2::RelationId, std::vector<Route>> route_memo_;
  std::unordered_set<nf2::RelationId> route_stack_;
};

}  // namespace

ModeAlgebra ModeAlgebra::Shipped() {
  ModeAlgebra alg;
  for (LockMode a : kAllModes) {
    alg.intention[static_cast<int>(a)] = lock::IntentionFor(a);
    for (LockMode b : kAllModes) {
      alg.compat[static_cast<int>(a)][static_cast<int>(b)] =
          lock::Compatible(a, b);
      alg.sup[static_cast<int>(a)][static_cast<int>(b)] =
          lock::Supremum(a, b);
    }
  }
  return alg;
}

ProverReport CheckModeAlgebra(const ModeAlgebra& algebra) {
  return LawChecker(algebra).Run();
}

std::string_view ProofCheckName(ProofCheck check) {
  switch (check) {
    case ProofCheck::kModeAlgebra:
      return "mode-algebra";
    case ProofCheck::kSideEntry:
      return "side-entry";
    case ProofCheck::kVisibility:
      return "visibility";
    case ProofCheck::kAcquisitionOrder:
      return "acquisition-order";
  }
  return "?";
}

std::string_view ProverMutantName(ProverMutant m) {
  switch (m) {
    case ProverMutant::kCompatSX:
      return "compat-sx";
    case ProverMutant::kCompatAsymmetric:
      return "compat-asymmetric";
    case ProverMutant::kSupremumSIX:
      return "supremum-six";
    case ProverMutant::kIntentionXToIS:
      return "intention-x-to-is";
    case ProverMutant::kSkipUpwardPropagation:
      return "skip-upward-propagation";
    case ProverMutant::kSkipDownwardPropagation:
      return "skip-downward-propagation";
    case ProverMutant::kRule4PrimeNoLock:
      return "rule4prime-no-lock";
    case ProverMutant::kRule4PrimeIntentOnly:
      return "rule4prime-intent-only";
    case ProverMutant::kRule4PrimeOverWeaken:
      return "rule4prime-over-weaken";
    case ProverMutant::kDashedIntoInterior:
      return "dashed-into-interior";
    case ProverMutant::kCyclicReference:
      return "cyclic-reference";
    case ProverMutant::kNumProverMutants:
      break;
  }
  return "?";
}

std::string ProverReport::ToJson() const {
  std::ostringstream os;
  os << "{\"ok\":" << (ok() ? "true" : "false")
     << ",\"laws_checked\":" << laws_checked
     << ",\"entry_points\":" << entry_points
     << ",\"routes\":" << routes_enumerated
     << ",\"accesses\":" << accesses_enumerated
     << ",\"pairs\":" << pairs_checked << ",\"order_nodes\":" << order_nodes
     << ",\"order_edges\":" << order_edges << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) os << ',';
    os << FindingJson(findings[i]);
  }
  os << "]}";
  return os.str();
}

std::string ProverReport::ToString() const {
  std::ostringstream os;
  if (ok()) {
    os << "protocol proof OK (" << laws_checked << " laws, " << entry_points
       << " entry points, " << routes_enumerated << " routes, "
       << accesses_enumerated << " accesses, " << pairs_checked
       << " conflicting pairs, order graph " << order_nodes << " nodes/"
       << order_edges << " edges)\n";
    return os.str();
  }
  os << findings.size() << " refuted theorem(s):\n";
  for (const ProverFinding& f : findings) {
    os << "  [" << ProofCheckName(f.check);
    if (!f.law.empty()) os << '/' << f.law;
    os << "] " << f.message << '\n';
    if (!f.left.description.empty()) {
      os << "    left:  " << f.left.description << '\n';
      os << "    right: " << f.right.description << '\n';
    }
  }
  return os.str();
}

ProverReport ProveProtocol(const LockGraph& graph, const nf2::Catalog& catalog,
                           const ModeAlgebra& algebra,
                           const ProtocolModel& model,
                           const ProverOptions& options) {
  return Prover(graph, catalog, algebra, model, options, nullptr, 0).Run();
}

ProverReport ProveProtocol(const LockGraph& graph, const nf2::Catalog& catalog,
                           const ProverOptions& options) {
  return ProveProtocol(graph, catalog, ModeAlgebra::Shipped(),
                       ProtocolModel::Paper(), options);
}

ProverReport ProveProtocolForUser(const LockGraph& graph,
                                  const nf2::Catalog& catalog,
                                  const authz::AuthorizationManager& authz,
                                  uint64_t user,
                                  const ProverOptions& options) {
  return Prover(graph, catalog, ModeAlgebra::Shipped(),
                ProtocolModel::Paper(), options, &authz, user)
      .Run();
}

namespace {

/// Rewires one reference into an interior node of its target unit.
bool MutateDashedIntoInterior(LockGraph& g) {
  for (const Node& n : g.nodes()) {
    if (!n.is_ref_blu()) continue;
    const Node& ep = g.node(n.dashed_target);
    if (ep.solid_children.empty()) continue;
    NodeId interior = ep.solid_children[0];
    Node& mep = g.MutableNodeForTest(ep.id);
    mep.dashed_in.erase(
        std::remove(mep.dashed_in.begin(), mep.dashed_in.end(), n.id),
        mep.dashed_in.end());
    g.MutableNodeForTest(n.id).dashed_target = interior;
    g.MutableNodeForTest(interior).dashed_in.push_back(n.id);
    return true;
  }
  return false;
}

/// Turns an atomic BLU of a shared relation into a reference back to the
/// unit that references it: a schema-level reference cycle.
bool MutateCyclicReference(LockGraph& g) {
  for (const Node& ep : g.nodes()) {
    if (ep.level != NodeLevel::kComplexObject || ep.dashed_in.empty()) {
      continue;
    }
    NodeId outer_co =
        g.ComplexObjectNode(g.node(ep.dashed_in[0]).relation);
    if (outer_co == ep.id) continue;
    // Find an atomic (non-ref) BLU leaf inside the shared unit.
    std::vector<NodeId> stack{ep.id};
    while (!stack.empty()) {
      NodeId id = stack.back();
      stack.pop_back();
      const Node& node = g.node(id);
      for (NodeId c : node.solid_children) stack.push_back(c);
      if (id != ep.id && node.kind == NodeKind::kBLU && !node.is_ref_blu()) {
        g.MutableNodeForTest(id).dashed_target = outer_co;
        g.MutableNodeForTest(outer_co).dashed_in.push_back(id);
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<ProverKillResult> RunProverKillSuite(
    const LockGraph& graph, const nf2::Catalog& catalog,
    const ProverOptions& options) {
  const ModeAlgebra shipped = ModeAlgebra::Shipped();
  const ProtocolModel paper = ProtocolModel::Paper();
  const bool base_ok =
      ProveProtocol(graph, catalog, shipped, paper, options).ok();

  constexpr int iS = static_cast<int>(lock::LockMode::kS);
  constexpr int iIX = static_cast<int>(lock::LockMode::kIX);
  constexpr int iX = static_cast<int>(lock::LockMode::kX);

  std::vector<ProverKillResult> out;
  for (size_t i = 0; i < kNumProverMutants; ++i) {
    ProverMutant mutant = static_cast<ProverMutant>(i);
    ProverKillResult res;
    res.mutant = mutant;

    ModeAlgebra alg = shipped;
    ProtocolModel model = paper;
    bool applicable = true;
    ProverReport report;
    switch (mutant) {
      case ProverMutant::kCompatSX:
        alg.compat[iS][iX] = alg.compat[iX][iS] = true;
        break;
      case ProverMutant::kCompatAsymmetric:
        alg.compat[iX][iS] = true;
        break;
      case ProverMutant::kSupremumSIX:
        alg.sup[iS][iIX] = alg.sup[iIX][iS] = lock::LockMode::kX;
        break;
      case ProverMutant::kIntentionXToIS:
        alg.intention[iX] = lock::LockMode::kIS;
        break;
      case ProverMutant::kSkipUpwardPropagation:
        model.upward_propagation = false;
        break;
      case ProverMutant::kSkipDownwardPropagation:
        model.downward_propagation = false;
        break;
      case ProverMutant::kRule4PrimeNoLock:
        model.x_on_nonmodifiable = lock::LockMode::kNL;
        break;
      case ProverMutant::kRule4PrimeIntentOnly:
        model.x_on_nonmodifiable = lock::LockMode::kIS;
        break;
      case ProverMutant::kRule4PrimeOverWeaken:
        model.x_on_modifiable = lock::LockMode::kS;
        break;
      case ProverMutant::kDashedIntoInterior:
      case ProverMutant::kCyclicReference: {
        LockGraph mutated = graph;
        applicable = mutant == ProverMutant::kDashedIntoInterior
                         ? MutateDashedIntoInterior(mutated)
                         : MutateCyclicReference(mutated);
        if (applicable) {
          mutated.RederiveForTest();
          report = ProveProtocol(mutated, catalog, shipped, paper, options);
        }
        break;
      }
      case ProverMutant::kNumProverMutants:
        applicable = false;
        break;
    }
    if (mutant != ProverMutant::kDashedIntoInterior &&
        mutant != ProverMutant::kCyclicReference && applicable) {
      report = ProveProtocol(graph, catalog, alg, model, options);
    }

    if (!applicable) {
      res.caught_by = "mutation-not-applicable";
    } else {
      res.killed = base_ok && !report.ok();
      res.findings = report.findings.size();
      if (!report.findings.empty()) {
        const ProverFinding& f = report.findings.front();
        res.caught_by = std::string(ProofCheckName(f.check));
        if (!f.law.empty()) res.caught_by += "/" + f.law;
        res.witness_json = FindingJson(f);
      }
    }
    out.push_back(std::move(res));
  }
  return out;
}

}  // namespace codlock::logra
