/// \file checker.h
/// \brief Exhaustive C++-memory-model explorer for bounded litmus
/// harnesses.
///
/// `Checker` runs a small fixed set of thread bodies over shared
/// `wm::Atomic` / `wm::Var` state and enumerates the *consistent
/// executions* of the C++ memory model by depth-first replay over two
/// kinds of choice points:
///
///  * **schedule** — which ready thread executes its next access, and
///  * **reads-from** — which visible store an atomic load (or failed CAS)
///    returns.
///
/// The model implemented (see DESIGN.md §12 for the full statement and
/// its deliberate approximations):
///
///  * sb is program order within a body; each thread carries a vector
///    clock advanced per access.
///  * mo (modification order) per location is the order stores execute
///    in; RMWs read the mo tail, keeping them mo-adjacent to the store
///    they read (C++ atomicity).
///  * rf candidates for a load exclude stores hidden by coherence (the
///    reader's per-location floor from its own prior reads/writes) and by
///    happens-before (a store with an mo-successor already visible to the
///    reader cannot be read).
///  * sw: an acquire load that reads from a release sequence joins the
///    sequence head's clock; release sequences are C++20-style (only RMWs
///    extend them — an intervening plain store breaks the chain).
///  * seq_cst accesses additionally respect a total S order which the
///    checker equates with execution order: an sc load never reads a
///    store with an mo-later sc store.  This is a sound restriction (every
///    enumerated execution is consistent) that can under-enumerate some
///    exotic mixed-order behaviors; the weak behaviors a kernel must find
///    involve relaxed accesses, which S does not constrain.
///  * Plain (`wm::Var`) accesses are race-checked with vector clocks and
///    never value-branched: a race is itself the reported bug.
///
/// Violations — data races, failed end-of-execution invariants, and
/// wedges (every unfinished thread stuck in an unsatisfiable `Await`) —
/// are reported with the full event trace of the offending execution.
///
/// Thread bodies run on real worker threads parked/resumed through
/// `util::Mutex`/`CondVar` handshakes; all model logic runs on the
/// controller (the thread that called `Run()`), so the checker itself
/// needs no atomics — which keeps src/wm inside the atomics-discipline
/// lint's vocabulary.

#ifndef CODLOCK_WM_CHECKER_H_
#define CODLOCK_WM_CHECKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace codlock::wm {

struct Violation {
  enum class Kind { kDataRace, kInvariant, kWedge };
  Kind kind;
  std::string message;
  /// Human-readable event log of the execution that exhibited it, one
  /// line per access in execution order.
  std::vector<std::string> trace;
};

const char* ViolationKindName(Violation::Kind kind);

struct Result {
  /// Executions fully explored (or aborted by a violation/wedge).
  uint64_t executions = 0;
  /// True iff the choice tree was exhausted within the budget (always
  /// false when `stop_on_violation` ended the run early).
  bool complete = false;
  std::vector<Violation> violations;
  /// True if more violations occurred than were recorded.
  bool violations_capped = false;

  bool clean() const { return violations.empty() && !violations_capped; }
};

class Checker {
 public:
  struct Options {
    /// Hard cap on executions explored; exceeding it yields
    /// `complete == false`, never an error.
    uint64_t max_executions = 100000;
    /// Recorded-violation cap (exploration keeps counting via
    /// `violations_capped` unless `stop_on_violation`).
    size_t max_violations = 4;
    /// Stop at the first violating execution (when only a counterexample
    /// is needed, not the census).
    bool stop_on_violation = false;
  };

  Checker();
  explicit Checker(Options opts);
  ~Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Runs on the controller before every execution; must (re)initialize
  /// every location the bodies touch — accesses here are direct writes,
  /// treated as the initial store of each location.
  void OnReset(std::function<void()> reset);

  /// Adds a worker body.  Bodies must be deterministic given the values
  /// the checker feeds their loads, must terminate, and must express spin
  /// loops via `Await*` (a native spin would never converge).  At most
  /// `kMaxThreads` bodies.
  void AddThread(std::string name, std::function<void()> body);

  /// Predicate evaluated on the controller after each complete execution
  /// (reading mo-tail values); `false` records a violation.
  void AddInvariant(std::string name, std::function<bool()> pred);

  /// Explores the choice tree.  Call at most once per Checker.
  Result Run();

  static constexpr int kMaxThreads = 8;

  /// Opaque engine state; public only so checker.cc's file-scope worker
  /// machinery can name it.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace codlock::wm

#endif  // CODLOCK_WM_CHECKER_H_
