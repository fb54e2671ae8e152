#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"

namespace mpic {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowCoversRangeWithoutBias) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMomentsSane) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) {
    stat.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stat.mean(), 0.0, 0.02);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStat, SingleSampleVarianceZero) {
  RunningStat s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, RelMaxError) {
  EXPECT_DOUBLE_EQ(RelMaxError({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_NEAR(RelMaxError({0.0, 10.0}, {0.1, 10.0}), 0.01, 1e-12);
  // All-zero reference falls back to absolute error.
  EXPECT_DOUBLE_EQ(RelMaxError({0.0, 0.0}, {0.5, 0.0}), 0.5);
}

TEST(Stats, KahanSumExactOnHardCase) {
  std::vector<double> v;
  v.push_back(1e16);
  for (int i = 0; i < 10; ++i) {
    v.push_back(1.0);
  }
  v.push_back(-1e16);
  EXPECT_DOUBLE_EQ(Sum(v), 10.0);
}

TEST(ConsoleTable, RendersAlignedColumns) {
  ConsoleTable t({"Config", "Total (s)"});
  t.AddRow({"Baseline", "74.13"});
  t.AddRow({"MatrixPIC", "24.90"});
  const std::string out = t.Render("Table 1");
  EXPECT_NE(out.find("Table 1"), std::string::npos);
  EXPECT_NE(out.find("Baseline"), std::string::npos);
  EXPECT_NE(out.find("24.90"), std::string::npos);
}

TEST(ConsoleTable, ShortRowsPadded) {
  ConsoleTable t({"A", "B", "C"});
  t.AddRow({"x"});
  const std::string out = t.Render("pad");
  EXPECT_NE(out.find('x'), std::string::npos);
}

TEST(Format, FixedAndScientific) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-1.0, 0), "-1");
  EXPECT_EQ(FormatSci(461000000.0, 2), "4.61e+08");
}

}  // namespace
}  // namespace mpic
