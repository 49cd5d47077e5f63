/**
 * @file
 * Multi-resolution weight groups with nested term budgets (Sec. 4.1).
 *
 * A MultiResGroup decomposes a group of g lattice values once into a
 * magnitude-sorted term list.  Every term budget alpha is then simply a
 * prefix of that list, which makes the paper's nesting property
 * (Fig. 7) hold *by construction*: the terms of any lower-resolution
 * sub-model are a subset of every higher-resolution sub-model's terms,
 * so only the largest sub-model ever needs to be stored.
 */

#ifndef MRQ_CORE_MULTIRES_GROUP_HPP
#define MRQ_CORE_MULTIRES_GROUP_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "core/term_quant.hpp"

namespace mrq {

/** A group of lattice values viewed at any term-budget resolution. */
class MultiResGroup
{
  public:
    /**
     * Build the sorted term decomposition of a value group.
     *
     * @param values    The g lattice values (e.g. 5-bit UQ weights).
     * @param max_alpha Largest budget the group must support; terms
     *                  beyond it are discarded at construction.
     * @param encoding  Signed-digit decomposition to use.
     */
    MultiResGroup(const std::vector<std::int64_t>& values,
                  std::size_t max_alpha,
                  TermEncoding encoding = TermEncoding::Naf);

    /** @return Group size g. */
    std::size_t groupSize() const { return groupSize_; }

    /** @return Number of terms retained (<= max_alpha). */
    std::size_t termCount() const { return terms_.size(); }

    /** @return The magnitude-ordered term list (largest first). */
    const std::vector<GroupTerm>& terms() const { return terms_; }

    /**
     * Materialize the group's values at budget @p alpha (prefix of the
     * term list).  alpha larger than termCount() yields the full group.
     */
    std::vector<std::int64_t> valuesAt(std::size_t alpha) const;

    /**
     * The terms added when moving from budget @p from to budget @p to
     * (the "increments" of the Sec. 5.4 memory layout).
     */
    std::vector<GroupTerm> increment(std::size_t from, std::size_t to) const;

    /**
     * Check the nesting property: every term used at @p small_alpha is
     * also used at @p large_alpha.  True by construction; exposed so
     * tests can assert it.
     */
    bool nested(std::size_t small_alpha, std::size_t large_alpha) const;

    /**
     * The Fig. 18 term usage table at budget @p alpha: for each
     * exponent (descending), the group-member indexes using a term at
     * that exponent (signed terms listed by their owner, duplicates
     * possible when a member repeats an exponent across signs).
     */
    std::vector<std::pair<int, std::vector<std::uint32_t>>>
    usageTable(std::size_t alpha) const;

  private:
    std::size_t groupSize_ = 0;
    std::vector<GroupTerm> terms_;
};

} // namespace mrq

#endif // MRQ_CORE_MULTIRES_GROUP_HPP
