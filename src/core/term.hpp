/**
 * @file
 * Signed power-of-two terms, the basic currency of term quantization.
 *
 * A Term is one signed power-of-two contribution, sign * 2^exponent.
 * A value's term decomposition (Sec. 2.4 of the paper) is the list of
 * such contributions; the paper's notion of "resolution" is the number
 * of terms a value (or group of values) is allowed to keep.
 */

#ifndef MRQ_CORE_TERM_HPP
#define MRQ_CORE_TERM_HPP

#include <cstdint>
#include <vector>

#include "common/logging.hpp"

namespace mrq {

/** One signed power-of-two term: sign * 2^exponent. */
struct Term
{
    /** Power-of-two exponent (>= 0; we quantize to integer lattices). */
    std::int8_t exponent = 0;

    /** +1 or -1. */
    std::int8_t sign = 1;

    /** @return The integer value sign * 2^exponent. */
    std::int64_t
    value() const
    {
        const std::int64_t mag = std::int64_t{1} << exponent;
        return sign >= 0 ? mag : -mag;
    }

    bool
    operator==(const Term& other) const
    {
        return exponent == other.exponent && sign == other.sign;
    }
};

/** A term tagged with the index of the group member it belongs to. */
struct GroupTerm
{
    Term term;

    /** Index of the owning value within its group (0 .. g-1); 32
     *  bits so groups past 65535 members do not wrap. */
    std::uint32_t valueIndex = 0;
};

/** Sum a term list back into an integer value. */
inline std::int64_t
termsToValue(const std::vector<Term>& terms)
{
    std::int64_t v = 0;
    for (const Term& t : terms)
        v += t.value();
    return v;
}

} // namespace mrq

#endif // MRQ_CORE_TERM_HPP
