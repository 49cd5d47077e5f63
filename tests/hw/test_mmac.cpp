/**
 * @file
 * Tests for the mMAC cell, the baseline MACs, and the Laconic PE.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hw/baseline_macs.hpp"
#include "hw/laconic.hpp"
#include "hw/mmac.hpp"

namespace mrq {
namespace {

std::vector<std::int64_t>
randomValues(std::size_t n, Rng& rng, std::int64_t mag = 31)
{
    std::vector<std::int64_t> v(n);
    for (auto& x : v)
        x = static_cast<std::int64_t>(rng.uniformInt(2 * mag + 1)) - mag;
    return v;
}

std::vector<std::vector<Term>>
dataTerms(const std::vector<std::int64_t>& values, std::size_t beta)
{
    std::vector<std::vector<Term>> out(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        auto terms = encodeNaf(values[i]);
        if (terms.size() > beta)
            terms.resize(beta);
        out[i] = std::move(terms);
    }
    return out;
}

std::int64_t
referenceDot(const std::vector<std::int64_t>& w,
             const std::vector<std::vector<Term>>& x_terms)
{
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < w.size(); ++i)
        acc += w[i] * termsToValue(x_terms[i]);
    return acc;
}

TEST(TermAccumulator, SplitsPositiveAndNegative)
{
    TermAccumulator acc;
    acc.reset();
    acc.add(3, 1);  // +8
    acc.add(1, -1); // -2
    acc.add(0, 1);  // +1
    EXPECT_EQ(acc.value(), 7);
    EXPECT_EQ(acc.incrementOps(), 3u);
}

TEST(TermAccumulator, RippleCountsTrailingOnes)
{
    TermAccumulator acc;
    acc.reset();
    acc.add(0, 1); // acc 0 -> 1: no trailing ones above bit 0: 1 HA
    EXPECT_EQ(acc.rippleBits(), 1u);
    acc.add(0, 1); // acc 1 -> 2: carry ripples through one 1: 2 HAs
    EXPECT_EQ(acc.rippleBits(), 3u);
    acc.add(0, 1); // acc 2 -> 3: bit 0 free again: 1 HA
    EXPECT_EQ(acc.rippleBits(), 4u);
    acc.add(0, 1); // acc 3 -> 4: ripples through two 1s: 3 HAs
    EXPECT_EQ(acc.rippleBits(), 7u);
    acc.add(2, 1); // acc 4 -> 8: shifted acc = 1, one trailing 1: 2 HAs
    EXPECT_EQ(acc.rippleBits(), 9u);
}

TEST(TermAccumulator, ResetClearsRipple)
{
    TermAccumulator acc;
    acc.reset();
    acc.add(3, 1);
    acc.reset(5);
    EXPECT_EQ(acc.rippleBits(), 0u);
    EXPECT_EQ(acc.incrementOps(), 0u);
}

TEST(TermAccumulator, CarryInHandlesBothSigns)
{
    TermAccumulator acc;
    acc.reset(-5);
    acc.add(2, 1); // +4
    EXPECT_EQ(acc.value(), -1);
    acc.reset(10);
    acc.add(0, -1);
    EXPECT_EQ(acc.value(), 9);
}

TEST(Mmac, PaperFigure6ExampleA)
{
    // W = [2, 5], X = [9, 3], alpha = 2, beta = 1 -> 24 (Sec. 3.3).
    MultiResGroup group({2, 5}, 2, TermEncoding::Ubr);
    Mmac cell(2, 2, 1);
    cell.loadWeights(MmacWeightQueues::fromGroup(group, 2));
    std::vector<std::vector<Term>> data{
        {Term{3, 1}}, // 9 -> top UBR term 8
        {Term{1, 1}}, // 3 -> top UBR term 2
    };
    const MmacResult r = cell.computeGroup(data, 0);
    EXPECT_EQ(r.value, 24);
    EXPECT_EQ(r.termPairs, 2u);
    EXPECT_EQ(r.cycles, 2u); // gamma = 2
}

TEST(Mmac, MatchesReferenceForFullBudgets)
{
    Rng rng(1);
    for (int trial = 0; trial < 100; ++trial) {
        const auto w = randomValues(16, rng);
        const auto x = randomValues(16, rng);
        // Full budgets: TQ is lossless, result equals the exact dot.
        MultiResGroup group(w, 1000);
        Mmac cell(16, 1000, 8);
        cell.loadWeights(MmacWeightQueues::fromGroup(group, 1000));
        const auto terms = dataTerms(x, 8);
        const MmacResult r = cell.computeGroup(terms, 0);
        std::int64_t expect = 0;
        for (std::size_t i = 0; i < 16; ++i)
            expect += w[i] * x[i];
        EXPECT_EQ(r.value, expect);
    }
}

TEST(Mmac, MatchesTqReferenceForTightBudgets)
{
    Rng rng(2);
    for (int trial = 0; trial < 100; ++trial) {
        const auto w = randomValues(16, rng);
        const auto x = randomValues(16, rng);
        for (std::size_t alpha : {8u, 12u, 20u}) {
            for (std::size_t beta : {1u, 2u, 3u}) {
                MultiResGroup group(w, alpha);
                Mmac cell(16, alpha, beta);
                cell.loadWeights(
                    MmacWeightQueues::fromGroup(group, alpha));
                const auto terms = dataTerms(x, beta);
                const MmacResult r = cell.computeGroup(terms, 0);
                // Reference: TQ'd weights dotted with TQ'd data.
                const auto wq = group.valuesAt(alpha);
                EXPECT_EQ(r.value, referenceDot(wq, terms))
                    << "alpha " << alpha << " beta " << beta;
                EXPECT_LE(r.termPairs, alpha * beta);
                EXPECT_EQ(r.cycles, alpha * beta);
            }
        }
    }
}

TEST(Mmac, AccumulationInputChains)
{
    MultiResGroup group({1, 1}, 10);
    Mmac cell(2, 10, 2);
    cell.loadWeights(MmacWeightQueues::fromGroup(group, 10));
    const auto terms = dataTerms({3, 4}, 2);
    const MmacResult r = cell.computeGroup(terms, 100);
    EXPECT_EQ(r.value, 107);
}

TEST(Mmac, RejectsOverBudgetData)
{
    Mmac cell(2, 10, 1);
    std::vector<std::vector<Term>> too_many{
        {Term{1, 1}, Term{0, 1}}, {}};
    EXPECT_THROW(cell.computeGroup(too_many, 0), FatalError);
}

TEST(Mmac, RejectsOversizedQueues)
{
    MultiResGroup group({31, 31, 31, 31}, 100, TermEncoding::Ubr);
    Mmac cell(4, 4, 2);
    EXPECT_THROW(
        cell.loadWeights(MmacWeightQueues::fromGroup(group, 100)),
        FatalError);
}

TEST(Mmac, RejectsGroupsBeyondEightBitIndexes)
{
    // The weight queue stores each term's member as 8 bits, so a cell
    // addresses at most 256 members and a wider group is refused
    // rather than charged to member index - 256.
    EXPECT_NO_THROW(Mmac(kMmacMaxGroupSize, 4, 2));
    EXPECT_THROW(Mmac(kMmacMaxGroupSize + 1, 4, 2), FatalError);

    std::vector<std::int64_t> values(300, 0);
    values[256] = 3;
    const MultiResGroup group(values, 8, TermEncoding::Naf);
    EXPECT_THROW(MmacWeightQueues::fromGroup(group, 8), FatalError);
}

TEST(PMac, ExactAndOneCyclePerPair)
{
    Rng rng(3);
    const auto w = randomValues(16, rng);
    const auto x = randomValues(16, rng);
    PMac mac;
    const auto r = mac.computeGroup(w, x, 5);
    std::int64_t expect = 5;
    for (std::size_t i = 0; i < 16; ++i)
        expect += w[i] * x[i];
    EXPECT_EQ(r.value, expect);
    EXPECT_EQ(r.cycles, 16u);
}

TEST(BMac, ExactAndSixteenCyclesPerPair)
{
    Rng rng(4);
    const auto w = randomValues(16, rng);
    const auto x = randomValues(16, rng);
    BMac mac;
    const auto r = mac.computeGroup(w, x, -7);
    std::int64_t expect = -7;
    for (std::size_t i = 0; i < 16; ++i)
        expect += w[i] * x[i];
    EXPECT_EQ(r.value, expect);
    EXPECT_EQ(r.cycles, 16u * 16u);
}

TEST(BMac, HandlesNegativeData)
{
    BMac mac;
    const auto r = mac.computeGroup({3}, {-5}, 0);
    EXPECT_EQ(r.value, -15);
}

TEST(LaconicPe, ExactForRandom5BitOperands)
{
    Rng rng(5);
    LaconicPe pe;
    for (int trial = 0; trial < 100; ++trial) {
        const auto w = randomValues(16, rng);
        const auto x = randomValues(16, rng);
        const auto r = pe.compute(w, x);
        std::int64_t expect = 0;
        for (std::size_t i = 0; i < 16; ++i)
            expect += w[i] * x[i];
        EXPECT_EQ(r.value, expect);
        EXPECT_EQ(r.cycles, 9u);
        EXPECT_EQ(r.termPairsBudgeted, 144u);
        EXPECT_LE(r.termPairsActive, r.termPairsBudgeted);
    }
}

TEST(LaconicPe, BudgetExceedsMmacGammaSixty)
{
    // The Sec. 7.2 argument: Laconic budgets 144 pairs where the
    // group-quantized mMAC budgets gamma = 60.
    EXPECT_GT(LaconicPe::kMaxTermsPerValue *
                  LaconicPe::kMaxTermsPerValue * LaconicPe::kLanes,
              60u);
}

} // namespace
} // namespace mrq
