/**
 * @file
 * Sub-model descriptors for multi-resolution training and inference.
 *
 * A sub-model (Sec. 4) is identified by its term-budget pair
 * (alpha, beta) on a fixed b-bit lattice with group size g.  The
 * QuantMode selects between the paper's TQ scheme, the UQ-sharing
 * baseline of Sec. 6.4, and unquantized (full precision) execution.
 */

#ifndef MRQ_CORE_QUANT_CONFIG_HPP
#define MRQ_CORE_QUANT_CONFIG_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "core/term_quant.hpp"

namespace mrq {

/** Quantization family applied during a forward pass. */
enum class QuantMode
{
    None,  ///< Full-precision forward (no projection).
    Uq,    ///< Uniform quantization only (bitwidth-varying baseline).
    Tq,    ///< UQ lattice + SDR + term quantization (the paper).
};

/** One sub-model's quantization setting. */
struct SubModelConfig
{
    QuantMode mode = QuantMode::Tq;

    /** Lattice magnitude bitwidth b (UQ step of Algorithm 1); TQ
     *  configs allow 1..16 (kernels::kTqMaxBits). */
    int bits = 5;

    /** Weight group size g. */
    std::size_t groupSize = 16;

    /** Weight term budget alpha (per group). Ignored for Uq/None. */
    std::size_t alpha = 20;

    /** Data term budget beta (per value). Ignored for Uq/None. */
    std::size_t beta = 3;

    /** Signed-digit decomposition. */
    TermEncoding encoding = TermEncoding::Naf;

    /** Term-pair budget gamma = alpha * beta (Sec. 3.3). */
    std::size_t gamma() const { return alpha * beta; }

    /** Short label like "a20b3" / "uq5" for reports. */
    std::string name() const;

    /** Exact equality of every field (used as a projection-cache key). */
    bool
    operator==(const SubModelConfig& o) const
    {
        return mode == o.mode && bits == o.bits &&
               groupSize == o.groupSize && alpha == o.alpha &&
               beta == o.beta && encoding == o.encoding;
    }
    bool operator!=(const SubModelConfig& o) const { return !(*this == o); }
};

/**
 * The ladder of sub-models a meta model is trained for, ascending in
 * resolution; back() is the teacher (largest budget).
 */
using SubModelLadder = std::vector<SubModelConfig>;

/**
 * Validate that a ladder is strictly ordered and nested: all entries
 * share one quantization family (and, for TQ, one lattice/group/
 * encoding), every entry's budgets are >= its predecessor's in every
 * component (nesting: the low-budget term set is a prefix of the
 * high-budget set), and consecutive entries are never equal —
 * duplicates would silently bias the trainer's uniform student draw.
 * TQ rungs must also keep bits <= kernels::kTqMaxBits (16), the
 * widest lattice the per-level term tables cover.  Throws
 * FatalError.
 */
void validateLadder(const SubModelLadder& ladder);

/**
 * Build the paper's standard TQ ladder: @p n sub-models with alpha
 * stepping down from @p alpha_max by @p alpha_step, all on the same
 * b-bit lattice / group size, with beta = @p beta_hi for the upper
 * half of the ladder and @p beta_lo for the lower half (mirroring the
 * Fig. 19 settings where aggressive sub-models also shrink beta).
 */
SubModelLadder makeTqLadder(std::size_t n, std::size_t alpha_max,
                            std::size_t alpha_step, std::size_t beta_hi,
                            std::size_t beta_lo, int bits,
                            std::size_t group_size);

/** Build a UQ-sharing ladder with bitwidths descending from bits_max. */
SubModelLadder makeUqLadder(int bits_max, int bits_min,
                            std::size_t group_size);

} // namespace mrq

#endif // MRQ_CORE_QUANT_CONFIG_HPP
