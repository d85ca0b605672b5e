/**
 * @file
 * Unit and property tests for the binomial number system (colex
 * ranking) that addresses the DATUM layout.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/binomial.hh"

namespace pddl {
namespace {

TEST(Binomial, SmallValues)
{
    EXPECT_EQ(binomial(0, 0), 1);
    EXPECT_EQ(binomial(5, 0), 1);
    EXPECT_EQ(binomial(5, 5), 1);
    EXPECT_EQ(binomial(5, 2), 10);
    EXPECT_EQ(binomial(13, 4), 715);
    EXPECT_EQ(binomial(12, 3), 220);
    EXPECT_EQ(binomial(52, 5), 2598960);
}

TEST(Binomial, OutOfRangeIsZero)
{
    EXPECT_EQ(binomial(5, -1), 0);
    EXPECT_EQ(binomial(5, 6), 0);
    EXPECT_EQ(binomial(0, 1), 0);
}

TEST(Binomial, PascalIdentity)
{
    for (int n = 1; n <= 30; ++n) {
        for (int k = 1; k < n; ++k) {
            EXPECT_EQ(binomial(n, k),
                      binomial(n - 1, k - 1) + binomial(n - 1, k));
        }
    }
}

TEST(Binomial, SaturatesInsteadOfOverflowing)
{
    EXPECT_EQ(binomial(300, 150), std::numeric_limits<int64_t>::max());
}

TEST(ColexUnrank, FirstAndLast)
{
    EXPECT_EQ(colexUnrank(0, 5, 3), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(colexUnrank(binomial(5, 3) - 1, 5, 3),
              (std::vector<int>{2, 3, 4}));
}

TEST(ColexUnrank, OrderIsColexicographic)
{
    // Colex: compare the largest differing element.
    std::vector<int> previous;
    for (int64_t r = 0; r < binomial(7, 3); ++r) {
        std::vector<int> subset = colexUnrank(r, 7, 3);
        if (!previous.empty()) {
            // previous <_colex subset.
            bool less = false;
            for (int i = 2; i >= 0; --i) {
                if (previous[i] != subset[i]) {
                    less = previous[i] < subset[i];
                    break;
                }
            }
            EXPECT_TRUE(less) << "rank " << r;
        }
        previous = subset;
    }
}

class ColexRoundTrip
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ColexRoundTrip, RankUnrankIdentity)
{
    auto [n, k] = GetParam();
    for (int64_t r = 0; r < binomial(n, k); ++r) {
        std::vector<int> subset = colexUnrank(r, n, k);
        ASSERT_EQ(static_cast<int>(subset.size()), k);
        for (size_t i = 1; i < subset.size(); ++i)
            ASSERT_LT(subset[i - 1], subset[i]);
        ASSERT_GE(subset.front(), 0);
        ASSERT_LT(subset.back(), n);
        EXPECT_EQ(colexRank(subset), r);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ColexRoundTrip,
    ::testing::Values(std::pair{5, 2}, std::pair{7, 3}, std::pair{9, 4},
                      std::pair{13, 4}, std::pair{10, 5},
                      std::pair{12, 2}, std::pair{8, 8},
                      std::pair{6, 1}));

class ColexCounting
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ColexCounting, MatchesBruteForce)
{
    auto [n, k] = GetParam();
    const int64_t total = binomial(n, k);
    // counts[d] = subsets with rank < r containing d, maintained
    // incrementally as the brute-force reference.
    std::vector<int64_t> counts(n, 0);
    for (int64_t r = 0; r < total; ++r) {
        for (int d = 0; d < n; ++d) {
            EXPECT_EQ(colexCountContaining(r, n, k, d), counts[d])
                << "rank " << r << " d " << d;
        }
        for (int d : colexUnrank(r, n, k))
            ++counts[d];
    }
    // After the whole period every disk appeared C(n-1, k-1) times.
    for (int d = 0; d < n; ++d)
        EXPECT_EQ(counts[d], binomial(n - 1, k - 1));
}

TEST_P(ColexCounting, TableOverloadsMatchTheDirectForms)
{
    auto [n, k] = GetParam();
    const BinomialTable choose(n, k);
    for (int c = 0; c <= n; ++c) {
        for (int j = 0; j <= k; ++j)
            ASSERT_EQ(choose(c, j), binomial(c, j)) << c << "," << j;
    }
    for (int64_t r = 0; r < binomial(n, k); ++r) {
        const std::vector<int> subset = colexUnrank(r, n, k, choose);
        ASSERT_EQ(subset, colexUnrank(r, n, k)) << "rank " << r;
        for (int d = 0; d < n; ++d) {
            EXPECT_EQ(colexCountContaining(subset, d, choose),
                      colexCountContaining(r, n, k, d))
                << "rank " << r << " d " << d;
        }
    }
}

TEST(BinomialTable, KeepsSaturation)
{
    const BinomialTable choose(300, 150);
    EXPECT_EQ(choose(300, 150), binomial(300, 150));
    EXPECT_EQ(choose(300, 150), std::numeric_limits<int64_t>::max());
    EXPECT_EQ(choose(3, 5), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ColexCounting,
    ::testing::Values(std::pair{5, 2}, std::pair{6, 3}, std::pair{7, 4},
                      std::pair{9, 3}, std::pair{13, 4},
                      std::pair{8, 5}));

} // namespace
} // namespace pddl
