/**
 * @file
 * Multi-resolution multiplier-accumulator cell (Sec. 5.2, Figs. 11-13).
 *
 * The mMAC multiplies by adding exponents: each cycle it pops one
 * weight term (exponent, sign, group index), selects the indexed data
 * value's current term, adds the exponents, and accumulates the
 * resulting signed power of two.  The term accumulator keeps separate
 * positive and negative running sums updated with a shift +
 * half-adder incrementer (Fig. 13); a single subtraction at the end
 * of a systolic row produces the final value.
 *
 * The model is cycle-accurate at term-pair granularity and counts the
 * half-adder increment activity the Fig. 13 design implies.
 */

#ifndef MRQ_HW_MMAC_HPP
#define MRQ_HW_MMAC_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "core/multires_group.hpp"
#include "core/term.hpp"

namespace mrq {

/** Largest group an mMAC cell addresses: its weight queue holds each
 *  term's owning member as an 8-bit index. */
constexpr std::size_t kMmacMaxGroupSize = 256;

/** Weight-side queues of an mMAC cell (loaded before compute). */
struct MmacWeightQueues
{
    /** Per kept weight term: exponent, sign, and owning group index. */
    std::vector<std::int8_t> exponents;
    std::vector<std::int8_t> signs;
    std::vector<std::uint8_t> indexes;

    /** Build the queues from a multi-resolution group at budget alpha;
     *  fails when a kept term's member index does not fit 8 bits. */
    static MmacWeightQueues fromGroup(const MultiResGroup& group,
                                      std::size_t alpha);

    std::size_t size() const { return exponents.size(); }
};

/** Split accumulator with shift + half-adder increment cost model. */
class TermAccumulator
{
  public:
    void
    reset(std::int64_t carry_in = 0)
    {
        pos_ = carry_in >= 0 ? carry_in : 0;
        neg_ = carry_in < 0 ? -carry_in : 0;
        incrementOps_ = 0;
        rippleBits_ = 0;
    }

    /** Add a signed power of two (one cycle of Fig. 13 activity). */
    void
    add(int exponent, int sign)
    {
        invariant(exponent >= 0, "TermAccumulator: negative exponent");
        const std::int64_t mag = std::int64_t{1} << exponent;
        std::int64_t& acc = sign >= 0 ? pos_ : neg_;
        // Fig. 13: shift the accumulator right by `exponent`, add 1
        // with the half-adder incrementer, shift back.  The carry
        // ripples through the trailing run of ones above the target
        // bit; we count those half-adder activations.
        const std::uint64_t shifted =
            static_cast<std::uint64_t>(acc) >> exponent;
        rippleBits_ += 1 + static_cast<std::size_t>(
                               std::countr_one(shifted));
        acc += mag;
        ++incrementOps_;
    }

    /** Final subtraction between the positive and negative sums. */
    std::int64_t value() const { return pos_ - neg_; }

    /** Increment operations (one per accumulated term). */
    std::size_t incrementOps() const { return incrementOps_; }

    /** Total half-adder activations across all increments. */
    std::size_t rippleBits() const { return rippleBits_; }

  private:
    std::int64_t pos_ = 0;
    std::int64_t neg_ = 0;
    std::size_t incrementOps_ = 0;
    std::size_t rippleBits_ = 0;
};

/** Result of one mMAC group computation. */
struct MmacResult
{
    std::int64_t value = 0;       ///< y_out = dot(group) + y_in.
    std::size_t cycles = 0;       ///< Budgeted cycles (gamma).
    std::size_t termPairs = 0;    ///< Term pairs actually processed.
    std::size_t incrementOps = 0; ///< Accumulator increment activity.
    std::size_t rippleBits = 0;   ///< Half-adder activations (Fig. 13).
};

/** Borrowed view of one data value's kept terms (flat encoding). */
struct TermSpan
{
    const std::int8_t* exponents = nullptr;
    const std::int8_t* signs = nullptr;
    std::size_t count = 0;
};

/** One mMAC systolic cell. */
class Mmac
{
  public:
    /**
     * @param group_size Group size g (multiplexer width), at most
     *                   kMmacMaxGroupSize.
     * @param alpha      Weight term budget the queues are sized for.
     * @param beta       Data term budget per value.
     */
    Mmac(std::size_t group_size, std::size_t alpha, std::size_t beta);

    /** Load a group's weight queues (memory -> cell). */
    void loadWeights(const MmacWeightQueues& queues);

    /**
     * Compute y_out = sum_i w_i * x_i + y_in for one data group.
     *
     * @param data_terms Per group member, its kept data terms
     *                   (at most beta each).
     * @param y_in       Accumulation input from the neighboring cell.
     */
    MmacResult computeGroup(
        const std::vector<std::vector<Term>>& data_terms,
        std::int64_t y_in) const;

    /**
     * Fast path over flat term spans (one per group member).  Bit- and
     * counter-identical to computeGroup for `value`, `termPairs`,
     * `incrementOps`, and `cycles`; the Fig. 13 ripple activity is not
     * modeled here (`rippleBits` is reported as 0) because the batched
     * accumulation kernel has no per-increment carry chain.
     */
    MmacResult computeGroupFlat(const TermSpan* data_terms,
                                std::int64_t y_in) const;

    std::size_t groupSize() const { return groupSize_; }
    std::size_t alpha() const { return alpha_; }
    std::size_t beta() const { return beta_; }

    /** Term-pair budget gamma = alpha * beta (the latency bound). */
    std::size_t gamma() const { return alpha_ * beta_; }

  private:
    std::size_t groupSize_;
    std::size_t alpha_;
    std::size_t beta_;
    MmacWeightQueues weights_;
};

} // namespace mrq

#endif // MRQ_HW_MMAC_HPP
