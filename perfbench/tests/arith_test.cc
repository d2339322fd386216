// Tests of the benchmark's own arithmetic: span self time, the "at least
// 10 samples beyond" percentile rule, and the seeded input generators.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "gen.h"
#include "trace.h"

namespace perfbench {
namespace {

Span MakeSpan(uint32_t id, uint32_t parent, uint64_t start, uint64_t end) {
  Span s;
  s.name = "s";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // 1 [0,100) has children 2 [10,30) and 3 [50,60); 3 has child 4 [52,58).
  std::vector<Span> spans = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30),
                             MakeSpan(3, 1, 50, 60), MakeSpan(4, 3, 52, 58)};
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 70u);  // 100 - 20 - 10
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 4u);   // 10 - 6
  EXPECT_EQ(self[3], 6u);
}

TEST(SelfTime, MergesOverlapAndClipsToParent) {
  // Children [10,40) and [30,50) overlap; [90,120) sticks out of [0,100).
  std::vector<Span> spans = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40),
                             MakeSpan(3, 1, 30, 50), MakeSpan(4, 1, 90, 120)};
  EXPECT_EQ(SelfTimes(spans)[0], 100u - 40u - 10u);
}

TEST(SelfTime, ChildCoveringParentLeavesZero) {
  std::vector<Span> spans = {MakeSpan(1, 0, 10, 20), MakeSpan(2, 1, 0, 30)};
  EXPECT_EQ(SelfTimes(spans)[0], 0u);
}

TEST(Tracer, RecordsParentsAndRequests) {
  Tracer t(true, 16);
  SetCurrentTracer(&t);
  t.BeginRequest(7);
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  SetCurrentTracer(nullptr);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, 0u);
  EXPECT_EQ(t.spans()[1].parent, t.spans()[0].id);
  EXPECT_EQ(t.spans()[1].request, 7u);
  EXPECT_LE(t.spans()[0].start_ns, t.spans()[1].start_ns);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[1].end_ns);
}

TEST(Tracer, DisabledOrFullRecordsNothing) {
  Tracer off(false, 16);
  EXPECT_EQ(off.Open("x"), 0u);
  EXPECT_TRUE(off.spans().empty());
  Tracer full(true, 1);
  full.Close(full.Open("a"));
  EXPECT_EQ(full.Open("b"), 0u);
  EXPECT_EQ(full.spans().size(), 1u);
  EXPECT_EQ(full.dropped(), 1u);
}

Histogram Iota(int n) {
  Histogram h;
  for (int i = 1; i <= n; ++i) h.Add(static_cast<uint64_t>(i));
  return h;
}

TEST(Histogram, TenSamplesBeyondRule) {
  // Nearest rank: n = 21 -> rank 11 with 10 beyond; n = 20 -> rank 10,
  // 10 beyond; n = 19 -> rank 10, only 9 beyond.  Exact below 128 ns.
  EXPECT_EQ(Iota(21).Quantile(0.5).value_or(-1), 11);
  EXPECT_EQ(Iota(20).Quantile(0.5).value_or(-1), 10);
  EXPECT_FALSE(Iota(19).Quantile(0.5).has_value());
  EXPECT_FALSE(Histogram().Quantile(0.5).has_value());
  // p99 needs n >= 1000.
  EXPECT_FALSE(Iota(999).Quantile(0.99).has_value());
  EXPECT_TRUE(Iota(1000).Quantile(0.99).has_value());
}

TEST(Histogram, WithinOnePercentOfExact) {
  const Histogram h = Iota(100'000);
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = q * 100'000;
    std::optional<double> x = h.Quantile(q);
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR(*x, exact, exact * 0.01) << q;
  }
}

TEST(Histogram, ExactBelow128AndMerge) {
  Histogram a, b;
  for (int i = 0; i < 30; ++i) a.Add(7);
  for (int i = 0; i < 30; ++i) b.Add(100);
  a.Merge(b);
  EXPECT_EQ(a.count(), 60u);
  EXPECT_EQ(a.Quantile(0.5).value_or(-1), 7);
  EXPECT_EQ(a.Quantile(0.51).value_or(-1), 100);
  Histogram big;
  for (int i = 0; i < 40; ++i) big.Add(uint64_t{1} << 62);
  EXPECT_NEAR(*big.Quantile(0.5), std::ldexp(1.0, 62), std::ldexp(1.0, 55));
}

TEST(Quantile, MedianOfEvenAndOdd) {
  std::vector<double> odd = {3, 1, 2};
  EXPECT_EQ(Median(odd), 2);
  std::vector<double> even = {4, 1, 3, 2};
  EXPECT_EQ(Median(even), 2.5);
}

TEST(Generator, SameSeedSameInputs) {
  const std::vector<TxnInput> a = GenShortMix(42, 2000, ShortMixShape());
  const std::vector<TxnInput> b = GenShortMix(42, 2000, ShortMixShape());
  const std::vector<TxnInput> c = GenShortMix(43, 2000, ShortMixShape());
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].user, b[i].user);
    differs |= a[i].text != c[i].text;
  }
  EXPECT_TRUE(differs);
  RingShape shape;
  const std::vector<SessionInput> s1 = GenSessions(5, 500, 1, shape);
  const std::vector<SessionInput> s2 = GenSessions(5, 500, 1, shape);
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i].text, s2[i].text);
}

TEST(Generator, ShortMixRatiosHold) {
  const size_t n = 50'000;
  const std::vector<TxnInput> in = GenShortMix(7, n, ShortMixShape());
  std::map<MixKind, double> share;
  double by_effector_user = 0, writes = 0, hottest = 0;
  for (const TxnInput& t : in) {
    share[t.kind] += 1.0 / n;
    if (t.write) {
      writes += 1;
      by_effector_user += t.user == kCellsAndEffectors;
    }
    hottest += t.text.find("cell_id = 'c1'") != std::string::npos;
  }
  EXPECT_NEAR(share[MixKind::kReadRobot], 0.6, 0.01);
  EXPECT_NEAR(share[MixKind::kUpdateRobot], 0.2, 0.01);
  EXPECT_NEAR(share[MixKind::kReadCell], 0.1, 0.01);
  EXPECT_NEAR(share[MixKind::kUpdateCell], 0.1, 0.01);
  EXPECT_NEAR(by_effector_user / writes, 0.5, 0.02);
  // Zipf(0.9) over 1000 cells: the hottest cell draws 1/H(1000, 0.9).
  double h = 0;
  for (int k = 1; k <= 1000; ++k) h += 1.0 / std::pow(k, 0.9);
  EXPECT_NEAR(hottest / n, 1.0 / h, 0.01);
}

TEST(Generator, SessionsStayInTheirCells) {
  RingShape shape;
  const std::vector<SessionInput> in = GenSessions(9, 20'000, 1, shape);
  double shared = 0;
  const int lo = shape.parked + shape.shared_pool + 1 + shape.private_per_thread;
  const int hi = lo + shape.private_per_thread - 1;
  for (const SessionInput& s : in) {
    const size_t at = s.text.find("cell_id = 'c") + 12;
    const int cell = std::stoi(s.text.substr(at));
    if (s.shared) {
      shared += 1;
      EXPECT_GT(cell, shape.parked);
      EXPECT_LE(cell, shape.parked + shape.shared_pool);
      EXPECT_NE(s.text.find("FOR READ"), std::string::npos);
    } else {
      EXPECT_GE(cell, lo);
      EXPECT_LE(cell, hi);
      EXPECT_NE(s.text.find("FOR UPDATE"), std::string::npos);
    }
  }
  EXPECT_NEAR(shared / in.size(), shape.shared_share, 0.01);
}

}  // namespace
}  // namespace perfbench
