/**
 * @file
 * Tests for multi-resolution weight groups (nesting, increments).
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/multires_group.hpp"

namespace mrq {
namespace {

std::vector<std::int64_t>
randomGroup(std::size_t g, Rng& rng, std::int64_t mag = 31)
{
    std::vector<std::int64_t> v(g);
    for (auto& x : v)
        x = static_cast<std::int64_t>(rng.uniformInt(2 * mag + 1)) - mag;
    return v;
}

TEST(MultiResGroup, FullBudgetReconstructsValues)
{
    Rng rng(1);
    for (int t = 0; t < 50; ++t) {
        const auto vals = randomGroup(16, rng);
        MultiResGroup g(vals, 1000);
        EXPECT_EQ(g.valuesAt(1000), vals);
    }
}

TEST(MultiResGroup, PrefixBudgetsMatchDirectTq)
{
    Rng rng(2);
    for (int t = 0; t < 50; ++t) {
        const auto vals = randomGroup(16, rng);
        MultiResGroup g(vals, 32);
        for (std::size_t alpha : {2u, 8u, 16u, 20u, 32u}) {
            const auto direct = termQuantizeGroup(vals, alpha).values;
            EXPECT_EQ(g.valuesAt(alpha), direct)
                << "alpha " << alpha << " trial " << t;
        }
    }
}

TEST(MultiResGroup, NestingHoldsAcrossLadder)
{
    Rng rng(3);
    const std::vector<std::size_t> ladder{2, 4, 6, 8, 12, 16, 20};
    for (int t = 0; t < 30; ++t) {
        const auto vals = randomGroup(16, rng);
        MultiResGroup g(vals, ladder.back());
        for (std::size_t i = 0; i < ladder.size(); ++i)
            for (std::size_t j = i; j < ladder.size(); ++j)
                EXPECT_TRUE(g.nested(ladder[i], ladder[j]));
    }
}

TEST(MultiResGroup, NestedRejectsReversedBudgets)
{
    MultiResGroup g({21, 6, 17, 11}, 10);
    EXPECT_FALSE(g.nested(8, 4));
}

TEST(MultiResGroup, IncrementsPartitionTheTermList)
{
    Rng rng(4);
    const std::vector<std::size_t> ladder{2, 4, 6, 8};
    const auto vals = randomGroup(4, rng, 31);
    MultiResGroup g(vals, ladder.back());
    std::vector<GroupTerm> rebuilt;
    std::size_t prev = 0;
    for (std::size_t alpha : ladder) {
        const auto inc = g.increment(prev, alpha);
        rebuilt.insert(rebuilt.end(), inc.begin(), inc.end());
        prev = alpha;
    }
    const std::size_t stored = std::min<std::size_t>(8, g.termCount());
    ASSERT_EQ(rebuilt.size(), stored);
    for (std::size_t i = 0; i < stored; ++i) {
        EXPECT_EQ(rebuilt[i].term, g.terms()[i].term);
        EXPECT_EQ(rebuilt[i].valueIndex, g.terms()[i].valueIndex);
    }
}

TEST(MultiResGroup, IncrementValuesAccumulate)
{
    // Applying increments on top of a lower resolution must equal the
    // higher resolution directly (Fig. 17 semantics).
    Rng rng(5);
    const auto vals = randomGroup(16, rng);
    MultiResGroup g(vals, 20);
    const auto at8 = g.valuesAt(8);
    auto accum = at8;
    for (const GroupTerm& gt : g.increment(8, 14))
        accum[gt.valueIndex] += gt.term.value();
    EXPECT_EQ(accum, g.valuesAt(14));
}

TEST(MultiResGroup, PaperFigure7Ladder)
{
    // Fig. 7: group (25, 4, 23, 13) under UBR with budgets 2/4/6/8.
    // Budget 2 keeps the two 2^4 terms -> (16, 0, 16, 0).
    MultiResGroup g({25, 4, 23, 13}, 16, TermEncoding::Ubr);
    const auto at2 = g.valuesAt(2);
    EXPECT_EQ(at2, (std::vector<std::int64_t>{16, 0, 16, 0}));
    // Full reconstruction at the top of the ladder.
    EXPECT_EQ(g.valuesAt(16), (std::vector<std::int64_t>{25, 4, 23, 13}));
}

TEST(MultiResGroup, TermCountCappedByMaxAlpha)
{
    MultiResGroup g({31, 31, 31, 31}, 5, TermEncoding::Ubr);
    EXPECT_EQ(g.termCount(), 5u);
}

TEST(MultiResGroup, UsageTableMatchesFigure18)
{
    // Fig. 18: a group whose 2^4 term is used by members 0 and 2,
    // 2^3 by member 3, 2^2 by member 0.
    // Values: member0 = 16+4 = 20, member2 = 16, member3 = 8 (UBR).
    MultiResGroup g({20, 0, 16, 8}, 16, TermEncoding::Ubr);
    const auto table = g.usageTable(16);
    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table[0].first, 4);
    EXPECT_EQ(table[0].second, (std::vector<std::uint32_t>{0, 2}));
    EXPECT_EQ(table[1].first, 3);
    EXPECT_EQ(table[1].second, (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(table[2].first, 2);
    EXPECT_EQ(table[2].second, (std::vector<std::uint32_t>{0}));
}

TEST(MultiResGroup, UsageTableRespectsBudget)
{
    MultiResGroup g({20, 0, 16, 8}, 16, TermEncoding::Ubr);
    const auto table = g.usageTable(2);
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table[0].second.size(), 2u);
}

TEST(MultiResGroup, UsageTableKeepsIndexesPastSixteenBits)
{
    // Members are indexed as wide as GroupTerm::valueIndex.
    std::vector<std::int64_t> values(65537, 0);
    values[65536] = 4;
    MultiResGroup g(values, 8, TermEncoding::Ubr);
    const auto table = g.usageTable(8);
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table[0].first, 2);
    EXPECT_EQ(table[0].second, (std::vector<std::uint32_t>{65536}));
}

TEST(MultiResGroup, IncrementRejectsReversedRange)
{
    MultiResGroup g({1, 2, 3, 4}, 8);
    EXPECT_THROW(g.increment(4, 2), FatalError);
}

} // namespace
} // namespace mrq
