/**
 * @file
 * Unit tests for src/common: types, RNG, histograms and the table
 * printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace shotgun
{
namespace
{

TEST(TypesTest, BlockHelpers)
{
    EXPECT_EQ(blockAlign(0x1000), 0x1000u);
    EXPECT_EQ(blockAlign(0x103f), 0x1000u);
    EXPECT_EQ(blockAlign(0x1040), 0x1040u);
    EXPECT_EQ(blockNumber(0x1000), 0x40u);
    EXPECT_EQ(blockNumber(0x103f), 0x40u);
    EXPECT_EQ(blockToAddr(blockNumber(0x1234)), 0x1200u);
    EXPECT_EQ(kInstrsPerBlock, 16u);
}

TEST(TypesTest, BranchTypePredicates)
{
    EXPECT_FALSE(isBranch(BranchType::None));
    EXPECT_TRUE(isBranch(BranchType::Conditional));
    EXPECT_TRUE(isBranch(BranchType::Return));

    EXPECT_FALSE(isUnconditional(BranchType::None));
    EXPECT_FALSE(isUnconditional(BranchType::Conditional));
    EXPECT_TRUE(isUnconditional(BranchType::Jump));
    EXPECT_TRUE(isUnconditional(BranchType::Call));
    EXPECT_TRUE(isUnconditional(BranchType::Return));
    EXPECT_TRUE(isUnconditional(BranchType::Trap));
    EXPECT_TRUE(isUnconditional(BranchType::TrapReturn));

    EXPECT_TRUE(isCallType(BranchType::Call));
    EXPECT_TRUE(isCallType(BranchType::Trap));
    EXPECT_FALSE(isCallType(BranchType::Return));

    EXPECT_TRUE(isReturnType(BranchType::Return));
    EXPECT_TRUE(isReturnType(BranchType::TrapReturn));
    EXPECT_FALSE(isReturnType(BranchType::Call));

    // Regions span two unconditional branches: all unconditional
    // types close a region, conditionals do not (Sec 3.1).
    EXPECT_TRUE(endsRegion(BranchType::Call));
    EXPECT_TRUE(endsRegion(BranchType::Return));
    EXPECT_TRUE(endsRegion(BranchType::Jump));
    EXPECT_FALSE(endsRegion(BranchType::Conditional));
    EXPECT_FALSE(endsRegion(BranchType::None));
}

TEST(TypesTest, BranchTypeNames)
{
    EXPECT_STREQ(branchTypeName(BranchType::Call), "call");
    EXPECT_STREQ(branchTypeName(BranchType::TrapReturn), "trap-return");
}

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += (a.next() == b.next());
    EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInRange)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 7);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 7u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 7);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceThresholdIsExactBoundary)
{
    // chance(p) succeeds for u = next() >> 11 exactly when
    // u * 2^-53 < p. The threshold T must be the first u that fails:
    // T - 1 succeeds and T fails (both products are exact doubles).
    // Random p plus the edges: 0, 1, NaN, tiny, just below 1, and
    // values where p * 2^53 is an integer.
    std::vector<double> ps = {0.0, 1.0, std::nan(""), -0.5, 2.0,
                              1e-300, 0x1p-53, 3 * 0x1p-53,
                              std::nextafter(1.0, 0.0), 0.5, 0.30, 0.02};
    Rng source(5);
    for (int i = 0; i < 2000; ++i)
        ps.push_back(source.uniform());
    for (const double p : ps) {
        const std::uint64_t t = Rng::chanceThreshold(p);
        ASSERT_LE(t, std::uint64_t(1) << 53) << p;
        if (t > 0) {
            EXPECT_TRUE(static_cast<double>(t - 1) * 0x1p-53 < p) << p;
        }
        if (t < (std::uint64_t(1) << 53)) {
            EXPECT_FALSE(static_cast<double>(t) * 0x1p-53 < p) << p;
        }
    }
}

TEST(RngTest, ChanceBelowDrawsLikeChance)
{
    // Same seed, same probabilities: the same outcomes draw for draw,
    // and the streams stay in step afterwards.
    for (const double p : {0.0, 0.02, 0.2, 0.30, 0.5, 1.0}) {
        Rng a(99), b(99);
        const std::uint64_t t = Rng::chanceThreshold(p);
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(a.chance(p), b.chanceBelow(t))
                << p << ", draw " << i;
        }
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(RngTest, GeometricBounds)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.geometric(0.8, 3, 16);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 16u);
    }
}

TEST(RngTest, GeometricMean)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(0.5, 0, 1000000));
    // Mean of trials-before-failure with p=0.5 is p/(1-p) = 1.
    EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(ZipfTest, UniformWhenAlphaZero)
{
    ZipfSampler z(10, 0.0);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_NEAR(z.mass(i), 0.1, 1e-9);
}

TEST(ZipfTest, MassDecreasesWithRank)
{
    ZipfSampler z(100, 1.0);
    for (std::size_t i = 1; i < 100; ++i)
        EXPECT_GT(z.mass(i - 1), z.mass(i));
}

TEST(ZipfTest, SampleMatchesMass)
{
    ZipfSampler z(50, 0.9);
    Rng rng(23);
    std::vector<int> counts(50, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    // Spot-check the head of the distribution.
    for (std::size_t i = 0; i < 5; ++i) {
        const double measured = static_cast<double>(counts[i]) / n;
        EXPECT_NEAR(measured, z.mass(i), 0.01) << "rank " << i;
    }
}

TEST(ZipfTest, SkewConcentratesMass)
{
    ZipfSampler flat(1000, 0.3), skewed(1000, 1.2);
    double flat_top = 0, skew_top = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        flat_top += flat.mass(i);
        skew_top += skewed.mass(i);
    }
    EXPECT_GT(skew_top, flat_top * 2);
}

TEST(SplitMixTest, MixIsStable)
{
    // mix64 must be a pure function: the workload generator relies on
    // it for reproducible seeding.
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(HistogramTest, BucketsAndOverflow)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1, 2);
    h.sample(3);
    h.sample(9); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(HistogramTest, CumulativeFraction)
{
    Histogram h(10);
    for (std::size_t i = 0; i < 10; ++i)
        h.sample(i, 10);
    EXPECT_NEAR(h.cumulativeFraction(4), 0.5, 1e-9);
    EXPECT_NEAR(h.cumulativeFraction(9), 1.0, 1e-9);
}

TEST(HistogramTest, PercentileBucket)
{
    Histogram h(10);
    for (std::size_t i = 0; i < 10; ++i)
        h.sample(i, 10);
    EXPECT_EQ(h.percentileBucket(0.5), 4u);
    EXPECT_EQ(h.percentileBucket(0.95), 9u);
}

TEST(TextTableTest, AlignsColumns)
{
    TextTable t("demo");
    t.row().cell("name").cell("value");
    t.row().cell("x").cell(1.5, 1);
    t.row().cell("longer").cell(std::uint64_t(42));
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(TextTableTest, PercentCell)
{
    TextTable t;
    t.row().cell("cov");
    t.row().percentCell(0.683, 1);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("68.3%"), std::string::npos);
}

} // namespace
} // namespace shotgun
