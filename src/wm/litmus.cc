#include "wm/litmus.h"

#include <algorithm>

#include "util/mutation_points.h"
#include "util/wm_atomic.h"

namespace codlock::wm::litmus {
namespace {

using mutation::Mutant;
using mutation::WeakenedOrder;

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
// argument the fast path's claim/revalidate pair rests on.

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

// ---- summary_publish_validate ---------------------------------------------
// The optimistic fast path against a mutex-side mutation window, distilled
// from `TryFastpathAcquire` and `EntryMutation`/`TryGrantLocked`:
//
//   fastpath (S):  s1 = summary          (premise: even, no X bit)
//                  CAS slot.txn 0 -> 7   (claim)
//                  slot.word = S|1
//                  s2 = summary          (revalidate: s2 == s1)
//   mutator (X):   summary = odd         (EntryMutation ctor)
//                  scan slot.txn         (grant decision)
//                  if free: grant X      (holder vector write)
//                  summary = even [+X]   (EntryMutation dtor)
//
// The seq_cst total order makes "mutator misses the claim AND fastpath
// misses the bump" impossible; the invariant is the §3 compatibility
// matrix itself (S and X never both granted).  `wm.summary-load-relaxed`
// weakens s1/s2 exactly as the production mutant does (stale even summary
// validates), `wm.slot-cas-relaxed` weakens the claim (the mutex-side scan
// may legally read the stale empty slot).

constexpr uint64_t kSummarySeq = 0xff;  // low bits: seqlock sequence
constexpr uint64_t kSummaryX = 0x100;   // mode-mask bit: X held

Result RunSummaryPublishValidate(Checker::Options opts) {
  struct State {
    Atomic<uint64_t> summary;
    Atomic<uint64_t> slot_txn;
    Atomic<uint64_t> slot_word;
    Var<uint64_t> granted_s;
    Var<uint64_t> granted_x;
  } s;
  s.summary.SetName("summary");
  s.slot_txn.SetName("slot.txn");
  s.slot_word.SetName("slot.word");

  Checker chk(opts);
  chk.OnReset([&] {
    s.summary.store(0, relaxed);
    s.slot_txn.store(0, relaxed);
    s.slot_word.store(0, relaxed);
    s.granted_s.Set(0);
    s.granted_x.Set(0);
  });
  chk.AddThread("fastpath", [&] {
    const MemoryOrder summary_mo =
        WeakenedOrder(Mutant::kWmSummaryLoadRelaxed, seq_cst);
    const uint64_t s1 = s.summary.load(summary_mo);
    if ((s1 & 1) != 0 || (s1 & kSummaryX) != 0) return;  // premise failed
    uint64_t expected = 0;
    if (!s.slot_txn.compare_exchange_strong(
            expected, 7, WeakenedOrder(Mutant::kWmSlotCasRelaxed, seq_cst))) {
      return;  // lost the slot race
    }
    s.slot_word.store(0x11, seq_cst);
    const uint64_t s2 = s.summary.load(summary_mo);
    if (s2 != s1) {  // revalidation failed: undo the claim
      s.slot_word.store(0, seq_cst);
      s.slot_txn.store(0, seq_cst);
      return;
    }
    s.granted_s.Set(1);
  });
  chk.AddThread("mutator", [&] {
    const uint64_t seq = s.summary.load(relaxed);
    s.summary.store(seq + 1, seq_cst);  // odd: mutation window open
    const uint64_t claim = s.slot_txn.load(seq_cst);
    uint64_t flags = 0;
    if (claim == 0) {  // slot free: X is compatible with nothing else here
      s.granted_x.Set(1);
      flags = kSummaryX;
    }
    s.summary.store(((seq + 2) & kSummarySeq) | flags, seq_cst);
  });
  chk.AddInvariant("S and X never both granted", [&] {
    return !(s.granted_s.Get() == 1 && s.granted_x.Get() == 1);
  });
  return chk.Run();
}

// ---- slot_claim_race ------------------------------------------------------
// Two fast-path transactions race one free FpSlot: CAS atomicity must
// admit exactly one owner, and the loser must observe the winner (no lost
// claim) — distilled from the `free_slot->txn.compare_exchange_strong`
// site of `TryFastpathAcquire`.

Result RunSlotClaimRace(Checker::Options opts) {
  struct State {
    Atomic<uint64_t> slot_txn;
    Atomic<uint64_t> slot_word;
    Var<uint64_t> ok7;
    Var<uint64_t> ok9;
  } s;
  s.slot_txn.SetName("slot.txn");
  s.slot_word.SetName("slot.word");

  auto claim = [&s](uint64_t txn, Var<uint64_t>& ok) {
    uint64_t expected = 0;
    if (s.slot_txn.compare_exchange_strong(expected, txn, seq_cst)) {
      s.slot_word.store(0x11, seq_cst);
      ok.Set(1);
    }
  };

  Checker chk(opts);
  chk.OnReset([&] {
    s.slot_txn.store(0, relaxed);
    s.slot_word.store(0, relaxed);
    s.ok7.Set(0);
    s.ok9.Set(0);
  });
  chk.AddThread("txn7", [&] { claim(7, s.ok7); });
  chk.AddThread("txn9", [&] { claim(9, s.ok9); });
  chk.AddInvariant("exactly one owner", [&] {
    const bool a = s.ok7.Get() == 1;
    const bool b = s.ok9.Get() == 1;
    const uint64_t owner = s.slot_txn.load(relaxed);  // direct: mo tail
    return (a != b) && owner == (a ? uint64_t{7} : uint64_t{9});
  });
  return chk.Run();
}

// ---- ebr_pin_vs_stamp -----------------------------------------------------
// The EBR pin/validate protocol against unlink/stamp/scan/reuse, distilled
// from `ebr::Reclaimer::Guard`, `Stamp`, `MinActive`, and the entry-pool
// reuse in `EntryFor`:
//
//   reader:     e = global; rec = e;                 (pin)
//               while ((g = global) != e) rec = e = g;  (validate)
//               if (head != 0) read node.key         (FindEntry deref)
//               rec = kIdle (release)                (unpin)
//   reclaimer:  head = 0                             (unlink, under mutex)
//               stamp = ++global                     (Stamp)
//               ep = rec                             (MinActive scan)
//               if (ep == kIdle || ep >= stamp)      (SafeToReclaim)
//                 node.key = 2                       (reuse: key rewrite)
//
// Unmutated, a reader that can still reach the node is either pinned below
// the stamp (scan sees it: unsafe) or re-pins at the new epoch, where the
// seq_cst unlink is visible and the deref never happens.  The reuse write
// racing the reader's key read is the bug `wm.ebr-epoch-relaxed` must
// expose: with the pin/validate accesses relaxed, the scan may legally
// read the stale idle record.

constexpr uint64_t kEbrIdle = ~uint64_t{0};

Result RunEbrPinVsStamp(Checker::Options opts) {
  struct State {
    Atomic<uint64_t> global;
    Atomic<uint64_t> rec;
    Atomic<uint64_t> head;
    Var<uint64_t> key;
    Var<uint64_t> got;
    Var<uint64_t> reclaimed;
  } s;
  s.global.SetName("ebr.global");
  s.rec.SetName("ebr.rec");
  s.head.SetName("bucket.head");
  s.key.SetName("entry.key");

  Checker chk(opts);
  chk.OnReset([&] {
    s.global.store(1, relaxed);
    s.rec.store(kEbrIdle, relaxed);
    s.head.store(1, relaxed);
    s.key.Set(1);
    s.got.Set(0);
    s.reclaimed.Set(0);
  });
  chk.AddThread("reader", [&] {
    const MemoryOrder pin_mo =
        WeakenedOrder(Mutant::kWmEbrEpochRelaxed, seq_cst);
    uint64_t e = s.global.load(pin_mo);
    s.rec.store(e, pin_mo);
    uint64_t g;
    while ((g = s.global.load(pin_mo)) != e) {  // bounded: coherence floor
      e = g;
      s.rec.store(e, pin_mo);
    }
    if (s.head.load(seq_cst) != 0) {  // FindEntry chain walk
      s.got.Set(s.key.Get());
    }
    s.rec.store(kEbrIdle, release);
  });
  chk.AddThread("reclaimer", [&] {
    s.head.store(0, seq_cst);  // unlink (mutex-side, before Stamp)
    const uint64_t stamp = s.global.fetch_add(1, seq_cst) + 1;
    const uint64_t ep = s.rec.load(seq_cst);  // MinActive scan
    if (ep == kEbrIdle || ep >= stamp) {      // SafeToReclaim
      s.key.Set(2);                           // reuse: rewrite the key
      s.reclaimed.Set(1);
    }
  });
  chk.AddInvariant("reader never sees a rewritten key", [&] {
    return s.got.Get() != 2;
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
    {"summary_publish_validate",
     "fast-path premise/claim/revalidate vs the seqlock mutation window",
     60000, false, RunSummaryPublishValidate},
    {"slot_claim_race", "two txns race one FpSlot claim CAS", 20000, false,
     RunSlotClaimRace},
    {"ebr_pin_vs_stamp", "EBR pin/validate vs unlink/stamp/scan/reuse",
     60000, false, RunEbrPinVsStamp},
};

const std::vector<KillCase> kKillSuite = {
    {Mutant::kWmSummaryLoadRelaxed, "summary_publish_validate"},
    {Mutant::kWmSlotCasRelaxed, "summary_publish_validate"},
    {Mutant::kWmEbrEpochRelaxed, "ebr_pin_vs_stamp"},
};

}  // namespace

const std::vector<Harness>& AllHarnesses() { return kHarnesses; }

const Harness* FindHarness(std::string_view name) {
  auto it = std::find_if(kHarnesses.begin(), kHarnesses.end(),
                         [&](const Harness& h) { return name == h.name; });
  return it == kHarnesses.end() ? nullptr : &*it;
}

const std::vector<KillCase>& KillSuite() { return kKillSuite; }

}  // namespace codlock::wm::litmus
