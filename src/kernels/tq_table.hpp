/**
 * @file
 * Exact per-level TQ tables: what term quantization does to each
 * lattice level, computed once per config and then read by lookup.
 *
 * A b-bit lattice has at most 2 * (2^b - 1) + 1 levels, and the kept
 * value, the kept-term count and the term set of a level are pure
 * functions of (level, beta, encoding).  So instead of walking every
 * value's terms per element, the hot paths index two tables:
 *
 *  - TqValueTable (per bits, encoding, beta): the top-beta value and
 *    kept count of every level — the data path (fakeQuantData).
 *  - TqMaskTable (per bits, encoding): each level's positive and
 *    negative term bitmasks, bit e set for a term at exponent e —
 *    the weight group projection (tqGroupProject) and the systolic
 *    array's data-term slots.  Every encoding puts at most one term
 *    at an exponent, so a level equals pos - neg and any kept subset
 *    of its terms equals (pos & keep) - (neg & keep).
 *
 * Both tables span the symmetric lattice [-qmax, qmax]; the unsigned
 * data lattice [0, qmax] is its upper half, so one table serves
 * both.  Each is built from the reference walkers (visitTerms via
 * tqValueKeepTop), so it is exact by construction; the Parity*
 * tests compare every level against termQuantizeValue / termCount /
 * encodeTerms.  Tables live in a never-evicted, lock-free-read cache:
 * the first use of a config builds it under a mutex, every later use
 * is one acquire load.  ISA-invariant integer code (not dispatched).
 */

#ifndef MRQ_KERNELS_TQ_TABLE_HPP
#define MRQ_KERNELS_TQ_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/term_quant.hpp"

namespace mrq {
namespace kernels {

/**
 * Largest lattice bitwidth of a TQ config.  A 16-bit signed table
 * holds 131071 levels (1 MiB of values); every in-tree ladder uses
 * at most 8 bits.  checkTqBits enforces it with a diagnostic.
 */
constexpr int kTqMaxBits = 16;

/** Width of a level's term masks.  Every term exponent of a level
 *  with |v| < 2^16 is below 32 in every encoding (checked when a
 *  mask table is built), so no level has more than 32 terms and any
 *  beta above that keeps all of them. */
constexpr std::size_t kTqMaskBits = 32;

/** Result of a single-value top-beta term projection. */
struct TqValueResult
{
    std::int64_t value = 0; ///< Sum of the kept terms.
    std::size_t kept = 0;   ///< Terms kept (<= beta).
};

/** Per-group accounting from tqGroupProject. */
struct TqGroupStats
{
    std::size_t kept = 0;  ///< Terms kept (min(budget, total)).
    std::size_t total = 0; ///< Terms before truncation.
};

/** Top-beta projection of one level. */
struct TqLevelValue
{
    std::int32_t value = 0; ///< Sum of the kept terms.
    std::uint32_t kept = 0; ///< Terms kept (<= min(beta, kTqMaskBits)).
};

/** Term masks of one level: bit e set for a +2^e / -2^e term. */
struct TqLevelMasks
{
    std::uint32_t pos = 0;
    std::uint32_t neg = 0;
};

/** One entry per level of the symmetric lattice [-qmax, qmax]. */
template <typename Entry>
struct TqLevelTable
{
    std::int32_t qmax = 0;
    std::vector<Entry> levels; ///< Index level + qmax.

    /** Entry of level 0, so at0()[q] is level q's entry. */
    const Entry* at0() const { return levels.data() + qmax; }
};

/** Top-beta value and kept count of every level. */
using TqValueTable = TqLevelTable<TqLevelValue>;

/** Term masks of every level. */
using TqMaskTable = TqLevelTable<TqLevelMasks>;

/** Require 1 <= @p bits <= kTqMaxBits for a TQ config; the
 *  diagnostic names @p where and the cap. */
void checkTqBits(int bits, const char* where);

/** The cached value table of (bits, encoding, beta); betas above
 *  kTqMaskBits share the kTqMaskBits table.  Checks bits. */
const TqValueTable& tqValueTable(int bits, TermEncoding encoding,
                                 std::size_t beta);

/** The cached mask table of (bits, encoding).  Checks bits. */
const TqMaskTable& tqMaskTable(int bits, TermEncoding encoding);

/**
 * Reference top-beta projection of one value by two term walks (the
 * streaming equivalent of termQuantizeValue + termCount).  Builds
 * the value tables; hot paths read the table instead.
 */
TqValueResult tqValueKeepTop(std::int64_t value, std::size_t beta,
                             TermEncoding encoding);

/**
 * Write the top-@p beta terms of a level with masks @p m into
 * @p exps / @p signs, descending exponent — the order encodeTerms
 * lists them and the hardware term quantizer passes them on.
 * @return The number written, min(beta, terms of the level).
 */
inline std::size_t
tqTopTerms(TqLevelMasks m, std::size_t beta, std::int8_t* exps,
           std::int8_t* signs)
{
    std::uint32_t all = m.pos | m.neg;
    std::size_t n = 0;
    for (; n < beta && all != 0; ++n) {
        const int e = 31 - __builtin_clz(all);
        const std::uint32_t bit = std::uint32_t{1} << e;
        exps[n] = static_cast<std::int8_t>(e);
        signs[n] = (m.pos & bit) != 0 ? 1 : -1;
        all &= ~bit;
    }
    return n;
}

/**
 * Group term projection: the streaming equivalent of
 * termQuantizeGroup restricted to what the fake-quantizer needs (the
 * quantized values and the kept/total counts, not the kept-term
 * list).  Selects the same multiset of terms as the stable sort —
 * all terms above a threshold exponent, then member-order terms at
 * the threshold until the budget runs out; within one member an
 * exponent appears at most once in every encoding, so member order
 * is term order.  Every q[i] must lie in [-masks.qmax, masks.qmax].
 * Writes the projected values to @p out (may alias @p q).
 */
TqGroupStats tqGroupProject(const std::int32_t* q, std::size_t len,
                            std::size_t budget, const TqMaskTable& masks,
                            std::int32_t* out);

} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_TQ_TABLE_HPP
