#include "hw/mmac.hpp"

#include "kernels/kernels.hpp"
#include "kernels/roofline.hpp"

namespace mrq {

MmacWeightQueues
MmacWeightQueues::fromGroup(const MultiResGroup& group, std::size_t alpha)
{
    MmacWeightQueues q;
    const std::size_t n = std::min(alpha, group.termCount());
    q.exponents.reserve(n);
    q.signs.reserve(n);
    q.indexes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const GroupTerm& gt = group.terms()[i];
        require(gt.valueIndex < kMmacMaxGroupSize,
                "MmacWeightQueues::fromGroup: member index ", gt.valueIndex,
                " does not fit the 8-bit weight queue");
        q.exponents.push_back(gt.term.exponent);
        q.signs.push_back(gt.term.sign);
        q.indexes.push_back(static_cast<std::uint8_t>(gt.valueIndex));
    }
    return q;
}

Mmac::Mmac(std::size_t group_size, std::size_t alpha, std::size_t beta)
    : groupSize_(group_size), alpha_(alpha), beta_(beta)
{
    require(group_size > 0, "Mmac: group size must be positive");
    require(group_size <= kMmacMaxGroupSize, "Mmac: group size ",
            group_size, " exceeds the ", kMmacMaxGroupSize,
            " members an 8-bit weight index addresses");
    require(beta > 0, "Mmac: data term budget must be positive");
}

void
Mmac::loadWeights(const MmacWeightQueues& queues)
{
    require(queues.size() <= alpha_, "Mmac::loadWeights: queue of ",
            queues.size(), " terms exceeds alpha ", alpha_);
    for (std::uint8_t idx : queues.indexes)
        require(idx < groupSize_,
                "Mmac::loadWeights: weight index out of group range");
    weights_ = queues;
}

MmacResult
Mmac::computeGroup(const std::vector<std::vector<Term>>& data_terms,
                   std::int64_t y_in) const
{
    require(data_terms.size() == groupSize_,
            "Mmac::computeGroup: expected ", groupSize_,
            " data values, got ", data_terms.size());
    for (const auto& terms : data_terms)
        require(terms.size() <= beta_,
                "Mmac::computeGroup: data value exceeds beta ", beta_);

    MmacResult result;
    TermAccumulator acc;
    acc.reset(y_in);

    // One cycle per (weight term, data term) pair: the weight exponent
    // queue replays each weight term once per data term of its indexed
    // value (the LFSR-based queue of Sec. 5.2).
    for (std::size_t i = 0; i < weights_.size(); ++i) {
        const std::uint8_t idx = weights_.indexes[i];
        for (const Term& d : data_terms[idx]) {
            const int exponent = weights_.exponents[i] + d.exponent;
            const int sign = weights_.signs[i] * d.sign;
            acc.add(exponent, sign);
            ++result.termPairs;
        }
    }

    result.value = acc.value();
    result.incrementOps = acc.incrementOps();
    result.rippleBits = acc.rippleBits();
    // The cell is scheduled for its full term-pair budget: the systolic
    // beat is gamma cycles regardless of how many pairs were nonzero
    // (Sec. 5.1: latency directly proportional to gamma).
    result.cycles = gamma();
    return result;
}

MmacResult
Mmac::computeGroupFlat(const TermSpan* data_terms, std::int64_t y_in) const
{
    // Expand the (weight term, data term) pairs into flat exponent and
    // sign arrays, then hand the whole batch to the SIMD accumulate
    // kernel.  The split pos/neg accumulator of computeGroup satisfies
    // value == y_in + sum of signed magnitudes, which is exactly what
    // the kernel computes, and it issues one increment per pair, so
    // incrementOps == termPairs.
    thread_local std::vector<std::int16_t> exps;
    thread_local std::vector<std::int8_t> signs;
    exps.clear();
    signs.clear();

    for (std::size_t i = 0; i < weights_.size(); ++i) {
        const std::uint8_t idx = weights_.indexes[i];
        invariant(idx < groupSize_,
                  "Mmac::computeGroupFlat: weight index out of range");
        const TermSpan& span = data_terms[idx];
        invariant(span.count <= beta_,
                  "Mmac::computeGroupFlat: data value exceeds beta");
        for (std::size_t t = 0; t < span.count; ++t) {
            exps.push_back(static_cast<std::int16_t>(
                weights_.exponents[i] + span.exponents[t]));
            signs.push_back(static_cast<std::int8_t>(
                weights_.signs[i] * span.signs[t]));
        }
    }

    MmacResult result;
    result.value = kernels::kernels().termPairAccumulate(
        exps.data(), signs.data(), exps.size(), y_in);
    kernels::recordKernelElems(kernels::KernelId::TermPairs,
                               static_cast<std::int64_t>(exps.size()));
    result.termPairs = exps.size();
    result.incrementOps = exps.size();
    result.rippleBits = 0;
    result.cycles = gamma();
    return result;
}

} // namespace mrq
