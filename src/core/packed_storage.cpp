#include "core/packed_storage.hpp"

#include <algorithm>

namespace mrq {

PackedGroup::PackedGroup(const MultiResGroup& group,
                         const std::vector<std::size_t>& ladder,
                         const PackedTermFormat& fmt)
    : fmt_(fmt), groupSize_(group.groupSize()), ladder_(ladder)
{
    require(!ladder_.empty(), "PackedGroup: empty budget ladder");
    require(std::is_sorted(ladder_.begin(), ladder_.end()),
            "PackedGroup: ladder must be ascending");
    require(groupSize_ <= (std::size_t{1} << fmt_.indexBits),
            "PackedGroup: group size ", groupSize_,
            " exceeds index field capacity");

    const std::size_t stored =
        std::min(ladder_.back(), group.termCount());
    const std::vector<GroupTerm>& terms = group.terms();
    for (std::size_t i = 0; i < stored; ++i) {
        const GroupTerm& gt = terms[i];
        require(static_cast<unsigned>(gt.term.exponent) <
                    (1u << fmt_.exponentBits),
                "PackedGroup: exponent ", int{gt.term.exponent},
                " does not fit in ", fmt_.exponentBits, " bits");
        const std::uint8_t field = static_cast<std::uint8_t>(
            (static_cast<unsigned>(gt.term.exponent) << 1) |
            (gt.term.sign < 0 ? 1u : 0u));
        terms_.push_back(field);
        indexes_.push_back(static_cast<std::uint8_t>(gt.valueIndex));
    }
}

PackedGroup::PackedGroup(std::size_t group_size,
                         std::vector<std::size_t> ladder,
                         const PackedTermFormat& fmt,
                         std::vector<std::uint8_t> terms,
                         std::vector<std::uint8_t> indexes)
    : fmt_(fmt), groupSize_(group_size), ladder_(std::move(ladder)),
      terms_(std::move(terms)), indexes_(std::move(indexes))
{
    require(terms_.size() == indexes_.size(),
            "PackedGroup: term/index count mismatch");
    for (std::uint8_t idx : indexes_)
        require(idx < groupSize_,
                "PackedGroup: index field out of group range");
    // decode() shifts by the exponent field, so a field the format
    // cannot hold (a corrupt byte) must not reach it.
    for (std::uint8_t term : terms_)
        require((term >> 1) < (1u << fmt_.exponentBits),
                "PackedGroup: exponent field ", term >> 1,
                " does not fit in ", fmt_.exponentBits, " bits");
}

std::vector<std::int64_t>
PackedGroup::decode(std::size_t alpha) const
{
    std::vector<std::int64_t> out(groupSize_, 0);
    const std::size_t n = std::min(alpha, terms_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned exp = terms_[i] >> 1;
        const bool negative = terms_[i] & 1u;
        const std::int64_t mag = std::int64_t{1} << exp;
        out[indexes_[i]] += negative ? -mag : mag;
    }
    return out;
}

std::size_t
PackedGroup::termEntriesFor(std::size_t alpha) const
{
    const std::size_t n = std::min(alpha, terms_.size());
    const std::size_t per = fmt_.termsPerEntry();
    return (n + per - 1) / per;
}

std::size_t
PackedGroup::indexEntriesFor(std::size_t alpha) const
{
    const std::size_t n = std::min(alpha, indexes_.size());
    const std::size_t per = fmt_.indexesPerEntry();
    return (n + per - 1) / per;
}

std::size_t
PackedGroup::storageBits() const
{
    return terms_.size() * fmt_.termBits() +
           indexes_.size() * fmt_.indexBits;
}

double
storageBitsPerWeight(std::size_t alpha_max, std::size_t group_size,
                     const PackedTermFormat& fmt)
{
    require(group_size > 0, "storageBitsPerWeight: group size");
    const double bits = static_cast<double>(
        alpha_max * fmt.termBits() + alpha_max * fmt.indexBits);
    return bits / static_cast<double>(group_size);
}

} // namespace mrq
