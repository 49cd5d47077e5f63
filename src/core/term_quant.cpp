#include "core/term_quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/uniform_quant.hpp"

namespace mrq {

std::vector<Term>
encodeTerms(std::int64_t value, TermEncoding encoding)
{
    switch (encoding) {
      case TermEncoding::Naf:
        return encodeNaf(value);
      case TermEncoding::Ubr:
        return encodeUbr(value);
      case TermEncoding::Booth:
        return encodeBooth(value);
    }
    panic("encodeTerms: unknown encoding");
}

GroupQuantResult
termQuantizeGroup(const std::vector<std::int64_t>& values, std::size_t alpha,
                  TermEncoding encoding)
{
    GroupQuantResult result;
    result.values.assign(values.size(), 0);

    std::vector<GroupTerm> all;
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (const Term& t : encodeTerms(values[i], encoding))
            all.push_back(GroupTerm{t, static_cast<std::uint32_t>(i)});
    }
    result.totalTerms = all.size();

    // Sort by descending exponent; stable sort keeps ties in member
    // order so the kept prefix is deterministic.
    std::stable_sort(all.begin(), all.end(),
                     [](const GroupTerm& a, const GroupTerm& b) {
                         return a.term.exponent > b.term.exponent;
                     });

    if (all.size() > alpha)
        all.resize(alpha);

    for (const GroupTerm& gt : all)
        result.values[gt.valueIndex] += gt.term.value();
    result.keptTerms = std::move(all);
    return result;
}

std::int64_t
termQuantizeValue(std::int64_t value, std::size_t beta,
                  TermEncoding encoding)
{
    const std::vector<Term> terms = encodeTerms(value, encoding);
    std::int64_t out = 0;
    for (std::size_t i = 0; i < terms.size() && i < beta; ++i)
        out += terms[i].value();
    return out;
}

std::size_t
termCount(std::int64_t value, TermEncoding encoding)
{
    return encodeTerms(value, encoding).size();
}

double
tqGroupError(double sigma, std::size_t group_size, double avg_terms,
             std::size_t samples, std::uint64_t seed)
{
    require(group_size > 0, "tqGroupError: group size must be positive");
    Rng rng(seed);

    UniformQuantizer uq;
    uq.bits = 8;
    // Clip at 4 sigma; wider clips waste lattice range, tighter clips
    // saturate the tails.  The choice only shifts the curve, not its
    // shape, which is what Fig. 5(b) reports.
    uq.clip = static_cast<float>(4.0 * sigma);
    uq.isSigned = true;

    const std::size_t alpha = static_cast<std::size_t>(
        std::llround(avg_terms * static_cast<double>(group_size)));

    double sq_err = 0.0;
    std::size_t count = 0;
    std::vector<std::int64_t> group(group_size);
    std::vector<double> originals(group_size);
    while (count < samples) {
        for (std::size_t i = 0; i < group_size; ++i) {
            originals[i] = rng.normal(0.0, sigma);
            group[i] = uq.quantize(static_cast<float>(originals[i]));
        }
        const GroupQuantResult r = termQuantizeGroup(group, alpha);
        for (std::size_t i = 0; i < group_size; ++i) {
            const double back = uq.dequantize(r.values[i]);
            const double err = back - originals[i];
            sq_err += err * err;
        }
        count += group_size;
    }
    return sq_err / static_cast<double>(count);
}

} // namespace mrq
