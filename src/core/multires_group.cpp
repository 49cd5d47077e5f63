#include "core/multires_group.hpp"

#include <algorithm>

namespace mrq {

MultiResGroup::MultiResGroup(const std::vector<std::int64_t>& values,
                             std::size_t max_alpha, TermEncoding encoding)
    : groupSize_(values.size())
{
    const GroupQuantResult r = termQuantizeGroup(values, max_alpha, encoding);
    terms_ = r.keptTerms;
}

std::vector<std::int64_t>
MultiResGroup::valuesAt(std::size_t alpha) const
{
    std::vector<std::int64_t> out(groupSize_, 0);
    const std::size_t n = std::min(alpha, terms_.size());
    for (std::size_t i = 0; i < n; ++i)
        out[terms_[i].valueIndex] += terms_[i].term.value();
    return out;
}

std::vector<GroupTerm>
MultiResGroup::increment(std::size_t from, std::size_t to) const
{
    require(from <= to, "MultiResGroup::increment: from > to");
    const std::size_t lo = std::min(from, terms_.size());
    const std::size_t hi = std::min(to, terms_.size());
    return std::vector<GroupTerm>(terms_.begin() + lo, terms_.begin() + hi);
}

bool
MultiResGroup::nested(std::size_t small_alpha, std::size_t large_alpha) const
{
    if (small_alpha > large_alpha)
        return false;
    // Prefix structure: the first small_alpha terms are trivially a
    // subset of the first large_alpha terms.  We verify by re-deriving
    // the used-term multisets rather than assuming the prefix, so a
    // regression in the sort would be caught.
    const std::size_t lo = std::min(small_alpha, terms_.size());
    const std::size_t hi = std::min(large_alpha, terms_.size());
    for (std::size_t i = 0; i < lo; ++i) {
        bool found = false;
        for (std::size_t j = 0; j < hi && !found; ++j) {
            found = terms_[i].valueIndex == terms_[j].valueIndex &&
                    terms_[i].term == terms_[j].term;
        }
        if (!found)
            return false;
    }
    return true;
}

std::vector<std::pair<int, std::vector<std::uint32_t>>>
MultiResGroup::usageTable(std::size_t alpha) const
{
    std::vector<std::pair<int, std::vector<std::uint32_t>>> table;
    const std::size_t n = std::min(alpha, terms_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const int exp = terms_[i].term.exponent;
        if (table.empty() || table.back().first != exp)
            table.push_back({exp, {}});
        table.back().second.push_back(terms_[i].valueIndex);
    }
    return table;
}

} // namespace mrq
