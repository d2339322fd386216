#include "wm/litmus.h"

#include <algorithm>

#include "util/wm_atomic.h"

namespace codlock::wm::litmus {
namespace {

// ---- mp_publish -----------------------------------------------------------
// Baseline message passing: the sw machinery itself.  A release store of
// the flag must make the plain payload visible to an acquire reader.

Result RunMpPublish(Checker::Options opts) {
  struct State {
    Var<uint64_t> data;
    Atomic<uint64_t> flag;
    Var<uint64_t> saw;
    Var<uint64_t> got;
  } s;
  s.data.SetName("data");
  s.flag.SetName("flag");

  Checker chk(opts);
  chk.OnReset([&] {
    s.data.Set(0);
    s.flag.store(0, relaxed);
    s.saw.Set(0);
    s.got.Set(0);
  });
  chk.AddThread("writer", [&] {
    s.data.Set(1);
    s.flag.store(1, release);
  });
  chk.AddThread("reader", [&] {
    if (s.flag.load(acquire) == 1) {
      s.saw.Set(1);
      s.got.Set(s.data.Get());
    }
  });
  chk.AddInvariant("flag implies payload",
                   [&] { return s.saw.Get() == 0 || s.got.Get() == 1; });
  return chk.Run();
}

// ---- mp_relaxed_selfcheck -------------------------------------------------
// Negative control: the same kernel over relaxed accesses must be caught —
// either as a data race (reader reached the payload without
// synchronization) or as the invariant failing (stale payload).

Result RunMpRelaxedSelfcheck(Checker::Options opts) {
  struct State {
    Var<uint64_t> data;
    Atomic<uint64_t> flag;
    Var<uint64_t> saw;
    Var<uint64_t> got;
  } s;
  s.data.SetName("data");
  s.flag.SetName("flag");

  Checker chk(opts);
  chk.OnReset([&] {
    s.data.Set(0);
    s.flag.store(0, relaxed);
    s.saw.Set(0);
    s.got.Set(0);
  });
  chk.AddThread("writer", [&] {
    s.data.Set(1);
    s.flag.store(1, relaxed);
  });
  chk.AddThread("reader", [&] {
    if (s.flag.load(relaxed) == 1) {
      s.saw.Set(1);
      s.got.Set(s.data.Get());
    }
  });
  chk.AddInvariant("flag implies payload",
                   [&] { return s.saw.Get() == 0 || s.got.Get() == 1; });
  return chk.Run();
}

// ---- sb_dekker ------------------------------------------------------------
// Store buffering: both threads publish then read the other side.  Under
// seq_cst at least one must see the other's store — the Dekker-style
// argument any publish-then-check handshake rests on.

Result RunSbDekker(Checker::Options opts) {
  struct State {
    Atomic<uint64_t> x;
    Atomic<uint64_t> y;
    Var<uint64_t> r1;  // 1 + value read, so 0 = "did not run"
    Var<uint64_t> r2;
  } s;
  s.x.SetName("x");
  s.y.SetName("y");

  Checker chk(opts);
  chk.OnReset([&] {
    s.x.store(0, relaxed);
    s.y.store(0, relaxed);
    s.r1.Set(0);
    s.r2.Set(0);
  });
  chk.AddThread("t1", [&] {
    s.x.store(1, seq_cst);
    s.r1.Set(1 + s.y.load(seq_cst));
  });
  chk.AddThread("t2", [&] {
    s.y.store(1, seq_cst);
    s.r2.Set(1 + s.x.load(seq_cst));
  });
  chk.AddInvariant("not both stale", [&] {
    return !(s.r1.Get() == 1 && s.r2.Get() == 1);
  });
  return chk.Run();
}

const std::vector<Harness> kHarnesses = {
    {"mp_publish", "release/acquire message passing (sw baseline)", 20000,
     false, RunMpPublish},
    {"mp_relaxed_selfcheck",
     "negative control: relaxed message passing must be flagged", 20000,
     true, RunMpRelaxedSelfcheck},
    {"sb_dekker", "store buffering: seq_cst forbids both-stale", 20000,
     false, RunSbDekker},
};

}  // namespace

const std::vector<Harness>& AllHarnesses() { return kHarnesses; }

const Harness* FindHarness(std::string_view name) {
  auto it = std::find_if(kHarnesses.begin(), kHarnesses.end(),
                         [&](const Harness& h) { return name == h.name; });
  return it == kHarnesses.end() ? nullptr : &*it;
}

}  // namespace codlock::wm::litmus
