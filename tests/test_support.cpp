// Unit tests for the support layer: RNG, math helpers, statistics, tables,
// flag parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "support/mathutil.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace drrg {
namespace {

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicFromSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{123}, b{124};
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, UnitIntervalRange) {
  Rng r{7};
  for (int i = 0; i < 100000; ++i) {
    const double u = r.next_unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UnitIntervalMean) {
  Rng r{7};
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(r.next_unit());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, NextBelowInRangeAndUnbiased) {
  Rng r{11};
  std::vector<std::uint64_t> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Chi-square with 9 dof: 99.99th percentile is ~33.7.
  EXPECT_LT(chi_square_uniform(counts), 40.0);
}

TEST(Rng, NextBelowOneIsZero) {
  Rng r{3};
  for (int i = 0; i < 100; ++i) ASSERT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextRangeInclusive) {
  Rng r{5};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng r{17};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.next_bernoulli(0.125);
  EXPECT_NEAR(hits / 100000.0, 0.125, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng r{29};
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(r.next_normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(RngFactory, NodeStreamsIndependent) {
  RngFactory f{99};
  Rng a = f.node_stream(1), b = f.node_stream(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(RngFactory, PurposeTagSeparatesStreams) {
  RngFactory f{99};
  Rng a = f.node_stream(1, 0), b = f.node_stream(1, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(RngFactory, Reproducible) {
  RngFactory f1{42}, f2{42};
  Rng a = f1.node_stream(5, 7), b = f2.node_stream(5, 7);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a(), b());
}

TEST(DeriveSeed, SensitiveToAllArguments) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 8; ++a)
    for (std::uint64_t b = 0; b < 8; ++b)
      for (std::uint64_t c = 0; c < 8; ++c) seen.insert(derive_seed(a, b, c));
  EXPECT_EQ(seen.size(), 8u * 8 * 8);
}

// ---------------------------------------------------------------------------
// mathutil

TEST(MathUtil, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(MathUtil, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(MathUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(MathUtil, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(MathUtil, ClampedLogsAtLeastOne) {
  EXPECT_DOUBLE_EQ(log2_clamped(2.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_clamped(1.0), 1.0);
  EXPECT_NEAR(log2_clamped(1024.0), 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(loglog2_clamped(4.0), 1.0);
  EXPECT_NEAR(loglog2_clamped(65536.0), 4.0, 1e-12);
  EXPECT_GE(ln_clamped(1.5), 1.0);
}

TEST(MathUtil, HarmonicSmall) {
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_NEAR(harmonic(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
}

TEST(MathUtil, HarmonicAsymptotic) {
  // H_n ~ ln n + gamma.
  EXPECT_NEAR(harmonic(10'000'000), std::log(1e7) + 0.5772156649, 1e-6);
}

TEST(MathUtil, DrrProbeBudget) {
  EXPECT_EQ(drr_probe_budget(2), 1u);     // log2(2)-1 = 0 -> clamped to 1
  EXPECT_EQ(drr_probe_budget(1024), 9u);  // log2-1
  EXPECT_EQ(drr_probe_budget(1 << 16), 15u);
}

TEST(MathUtil, AddressBits) {
  EXPECT_EQ(address_bits(2), 1u);
  EXPECT_EQ(address_bits(1024), 10u);
  EXPECT_EQ(address_bits(1025), 11u);
}

// ---------------------------------------------------------------------------
// stats

TEST(RunningStat, MatchesClosedForm) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Summarize, Quantiles) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.q25, 26.0);
  EXPECT_DOUBLE_EQ(s.q75, 76.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
}

TEST(QuantileSorted, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 10.0);
}

TEST(FitLinear, ExactLine) {
  std::vector<double> xs{1, 2, 3, 4}, ys{3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(FitPowerLaw, RecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {10.0, 100.0, 1000.0, 10000.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 1.5));
  }
  const LinearFit f = fit_power_law(xs, ys);
  EXPECT_NEAR(f.slope, 1.5, 1e-9);  // exponent
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h{0.0, 10.0, 5};
  h.add(-1.0);  // clamps into first
  h.add(0.5);
  h.add(9.9);
  h.add(42.0);  // clamps into last
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(4), 10.0);
  EXPECT_FALSE(h.render().empty());
}

TEST(ChiSquareUniform, ZeroForPerfectlyUniform) {
  std::vector<std::uint64_t> counts(10, 100);
  EXPECT_DOUBLE_EQ(chi_square_uniform(counts), 0.0);
}

TEST(ChiSquareUniform, LargeForSkewed) {
  std::vector<std::uint64_t> counts(10, 0);
  counts[0] = 1000;
  EXPECT_GT(chi_square_uniform(counts), 1000.0);
}

// ---------------------------------------------------------------------------
// table

TEST(Table, AlignedRendering) {
  Table t{{"n", "messages"}};
  t.row().add_int(1024).add_real(3.14159, 2);
  t.row().add_int(65536).add_int(42);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("messages"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("65536"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, AddRowInitializer) {
  Table t{{"a", "b"}};
  t.add_row({"x", "y"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.to_string().find('x'), std::string::npos);
}

// ---------------------------------------------------------------------------
// parse_number

TEST(ParseNumber, AcceptsWholeInRangeNumbers) {
  using support::parse_number;
  constexpr auto kU32Max = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(parse_number<std::uint32_t>("4096", 0, kU32Max), 4096u);
  EXPECT_EQ(parse_number<std::uint32_t>("4294967295", 0, kU32Max), kU32Max);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", 0,
                                        std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<std::int64_t>("-7", -10, 10), -7);
  EXPECT_EQ(parse_number<double>("0.25", 0.0, 1.0), 0.25);
  EXPECT_EQ(parse_number<double>("1e-3", 0.0, 1.0), 1e-3);
  EXPECT_EQ(parse_number<double>("1", 0.0, 1.0), 1.0);
}

TEST(ParseNumber, RejectsGarbageOverflowAndOutOfRange) {
  using support::parse_number;
  constexpr auto kU32Max = std::numeric_limits<std::uint32_t>::max();
  // atoll would have wrapped this to 705032704.
  EXPECT_FALSE(parse_number<std::uint32_t>("5000000000", 0, kU32Max).has_value());
  EXPECT_FALSE(parse_number<std::uint32_t>("-1", 0, kU32Max).has_value());
  EXPECT_FALSE(parse_number<std::uint32_t>("", 0, kU32Max).has_value());
  EXPECT_FALSE(parse_number<std::uint32_t>("12abc", 0, kU32Max).has_value());
  EXPECT_FALSE(parse_number<std::uint32_t>(" 12", 0, kU32Max).has_value());
  EXPECT_FALSE(parse_number<std::uint16_t>("65536", 0, 65535).has_value());
  EXPECT_FALSE(parse_number<int>("11", 0, 10).has_value());
  // atof would have read these as 0.
  EXPECT_FALSE(parse_number<double>("abc", 0.0, 1.0).has_value());
  EXPECT_FALSE(parse_number<double>("0.5x", 0.0, 1.0).has_value());
  EXPECT_FALSE(parse_number<double>("1.5", 0.0, 1.0).has_value());
  EXPECT_FALSE(parse_number<double>("nan", 0.0, 1.0).has_value());
  EXPECT_FALSE(parse_number<double>("inf", std::numeric_limits<double>::lowest(),
                                    std::numeric_limits<double>::max())
                   .has_value());
  EXPECT_FALSE(parse_number<double>("1e999", 0.0, std::numeric_limits<double>::max())
                   .has_value());
}

}  // namespace
}  // namespace drrg
