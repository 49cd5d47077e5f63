/**
 * @file
 * Cycle-accurate weight-stationary systolic array of mMAC cells
 * (Secs. 2.5 and 5, Figs. 3 and 9-12).
 *
 * The array multiplies a lattice weight matrix by lattice data,
 * tiling rows of W onto array rows and g-long weight groups onto
 * array columns.  Results are bit-exact with term-quantized reference
 * arithmetic: Y = TQ_alpha(W) x TQ_beta(X), the same projection the
 * training-side fake quantizer applies — asserted by the equivalence
 * tests in tests/hw.
 *
 * Cycle accounting matches the analytic model in hw/perf_model.hpp
 * (also asserted by tests), which the large-network benches rely on.
 */

#ifndef MRQ_HW_SYSTOLIC_HPP
#define MRQ_HW_SYSTOLIC_HPP

#include <cstdint>
#include <vector>

#include "core/quant_config.hpp"
#include "hw/mmac.hpp"

namespace mrq {

/** Aggregate activity counters of one array run. */
struct SystolicStats
{
    std::uint64_t cycles = 0;
    std::uint64_t termPairs = 0;     ///< Pairs actually processed.
    std::uint64_t incrementOps = 0;  ///< Accumulator activity.
    std::uint64_t tiles = 0;
};

/** Top-beta data terms of every value, in flat slots of beta. */
struct DataTermSlots
{
    std::vector<std::int8_t> exps;    ///< Value e's terms at e * beta.
    std::vector<std::int8_t> signs;   ///< Parallel to exps.
    std::vector<std::uint8_t> counts; ///< Terms kept per value.
};

/**
 * Data-term prep of the array: the top-beta terms of each lattice
 * value in @p x, highest exponent first — per value exactly
 * termQuantizeStream(encodeTerms(v, cfg.encoding), cfg.beta).  Every
 * value must lie in the cfg.bits signed lattice (FatalError
 * otherwise).
 */
DataTermSlots quantizeDataTerms(const std::vector<std::int64_t>& x,
                                const SubModelConfig& cfg);

/** Weight-stationary mMAC array. */
class MmacSystolicArray
{
  public:
    /**
     * @param rows Array height (output rows per tile).
     * @param cols Array width (weight groups per tile).
     * @param cfg  TQ sub-model configuration (g, alpha, beta, bits).
     */
    MmacSystolicArray(std::size_t rows, std::size_t cols,
                      const SubModelConfig& cfg);

    /**
     * Compute Y = TQ(W) x TQ(X) over integer lattice operands.
     *
     * @param w Row-major [m, k] weight lattice values.
     * @param m,k Weight matrix shape.
     * @param x Row-major [k, n] data lattice values (TQ applied
     *          internally with budget beta per value).
     * @param n Data columns.
     * @param stats Optional activity counters.
     * @return Row-major [m, n] products.
     */
    std::vector<std::int64_t>
    matmul(const std::vector<std::int64_t>& w, std::size_t m,
           std::size_t k, const std::vector<std::int64_t>& x,
           std::size_t n, SystolicStats* stats = nullptr) const;

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    const SubModelConfig& config() const { return cfg_; }

  private:
    std::size_t rows_;
    std::size_t cols_;
    SubModelConfig cfg_;
};

} // namespace mrq

#endif // MRQ_HW_SYSTOLIC_HPP
