#include "kernels/tq_table.hpp"

#include <atomic>
#include <mutex>

#include "common/logging.hpp"

namespace mrq {
namespace kernels {

namespace {

constexpr std::size_t kEncodings = 3; // Naf, Ubr, Booth.

/** Builds serialize here; reads never take it. */
std::mutex g_build_mutex;

/** Published tables, never freed: the cache lives as long as the
 *  process, so a reference handed out stays valid. */
std::atomic<const TqMaskTable*> g_masks[kTqMaxBits][kEncodings];
std::atomic<const TqValueTable*> g_values[kTqMaxBits][kEncodings]
                                         [kTqMaskBits + 1];

std::size_t
encodingIndex(TermEncoding encoding)
{
    const auto e = static_cast<std::size_t>(encoding);
    invariant(e < kEncodings, "tq_table: unknown encoding");
    return e;
}

/** Return the slot's table, building it with @p build on first use. */
template <typename T, typename Build>
const T&
cached(std::atomic<const T*>& slot, Build&& build)
{
    const T* table = slot.load(std::memory_order_acquire);
    if (table != nullptr)
        return *table;
    std::lock_guard<std::mutex> lock(g_build_mutex);
    table = slot.load(std::memory_order_relaxed);
    if (table == nullptr) {
        table = new T(build());
        slot.store(table, std::memory_order_release);
    }
    return *table;
}

/** A table of every level of the @p bits lattice, entry by @p fill. */
template <typename Entry, typename Fill>
TqLevelTable<Entry>
buildTable(int bits, Fill&& fill)
{
    TqLevelTable<Entry> t;
    t.qmax = (std::int32_t{1} << bits) - 1;
    t.levels.resize(2 * static_cast<std::size_t>(t.qmax) + 1);
    for (std::int32_t v = -t.qmax; v <= t.qmax; ++v)
        fill(v, t.levels[static_cast<std::size_t>(v + t.qmax)]);
    return t;
}

TqMaskTable
buildMaskTable(int bits, TermEncoding encoding)
{
    return buildTable<TqLevelMasks>(bits, [&](std::int32_t v,
                                              TqLevelMasks& m) {
        visitTerms(v, encoding, [&](std::int8_t exp, std::int8_t sign) {
            invariant(exp >= 0 &&
                          static_cast<std::size_t>(exp) < kTqMaskBits,
                      "tq_table: term exponent ", int{exp},
                      " outside the mask width");
            const std::uint32_t bit = std::uint32_t{1} << exp;
            invariant(((m.pos | m.neg) & bit) == 0,
                      "tq_table: two terms at exponent ", int{exp});
            (sign >= 0 ? m.pos : m.neg) |= bit;
        });
    });
}

TqValueTable
buildValueTable(int bits, TermEncoding encoding, std::size_t beta)
{
    return buildTable<TqLevelValue>(bits, [&](std::int32_t v,
                                              TqLevelValue& e) {
        const TqValueResult r = tqValueKeepTop(v, beta, encoding);
        e.value = static_cast<std::int32_t>(r.value);
        e.kept = static_cast<std::uint32_t>(r.kept);
    });
}

} // namespace

void
checkTqBits(int bits, const char* where)
{
    require(bits >= 1 && bits <= kTqMaxBits, where, ": TQ lattice bits ",
            bits, " outside [1, ", kTqMaxBits,
            "] (per-level term tables cover at most ", kTqMaxBits,
            "-bit lattices)");
}

const TqValueTable&
tqValueTable(int bits, TermEncoding encoding, std::size_t beta)
{
    checkTqBits(bits, "tqValueTable");
    const std::size_t b = beta < kTqMaskBits ? beta : kTqMaskBits;
    return cached(
        g_values[bits - 1][encodingIndex(encoding)][b],
        [&] { return buildValueTable(bits, encoding, b); });
}

const TqMaskTable&
tqMaskTable(int bits, TermEncoding encoding)
{
    checkTqBits(bits, "tqMaskTable");
    return cached(g_masks[bits - 1][encodingIndex(encoding)],
                  [&] { return buildMaskTable(bits, encoding); });
}

TqValueResult
tqValueKeepTop(std::int64_t value, std::size_t beta,
               TermEncoding encoding)
{
    std::size_t total = 0;
    visitTerms(value, encoding,
               [&](std::int8_t, std::int8_t) { ++total; });
    TqValueResult r;
    r.kept = total < beta ? total : beta;
    // Emission is ascending-exponent; keeping the top `kept` means
    // skipping the lowest total - kept terms.
    const std::size_t skip = total - r.kept;
    std::size_t seen = 0;
    std::int64_t v = 0;
    visitTerms(value, encoding, [&](std::int8_t exp, std::int8_t sign) {
        if (seen++ < skip)
            return;
        const std::int64_t mag = std::int64_t{1} << exp;
        v += sign >= 0 ? mag : -mag;
    });
    r.value = v;
    return r;
}

TqGroupStats
tqGroupProject(const std::int32_t* q, std::size_t len, std::size_t budget,
               const TqMaskTable& masks, std::int32_t* out)
{
    const TqLevelMasks* m0 = masks.at0();

    // Pass 1: exponent histogram across the group.  Selecting by
    // exponent buckets reproduces termQuantizeGroup's stable sort
    // exactly: the flatten order is member-major and no member holds
    // two terms at one exponent, so within a bucket member order is
    // the stable tie order.  Counters are size_t: a group may hold
    // more members than any narrower type counts.
    std::size_t counts[kTqMaskBits] = {};
    std::size_t total = 0;
    for (std::size_t i = 0; i < len; ++i) {
        std::uint32_t all = m0[q[i]].pos | m0[q[i]].neg;
        total += static_cast<std::size_t>(__builtin_popcount(all));
        for (; all != 0; all &= all - 1)
            ++counts[__builtin_ctz(all)];
    }
    TqGroupStats stats;
    stats.total = total;
    stats.kept = total < budget ? total : budget;

    if (total <= budget) {
        // Everything kept: the projection is the identity.
        for (std::size_t i = 0; i < len; ++i)
            out[i] = q[i];
        return stats;
    }

    // Threshold: walking exponents downward, full buckets are kept
    // until one no longer fits; there the first at_cut members (in
    // member order) keep their term.  total > budget guarantees the
    // walk stops at some bucket.
    int cut = 0;
    std::size_t at_cut = 0;
    std::size_t remaining = budget;
    for (int e = static_cast<int>(kTqMaskBits) - 1; e >= 0; --e) {
        const std::size_t c = counts[e];
        if (c <= remaining) {
            remaining -= c;
            continue;
        }
        cut = e;
        at_cut = remaining;
        break;
    }

    // Pass 2: rebuild each member from its kept terms, (pos & keep)
    // - (neg & keep), where keep holds every exponent above the cut
    // plus the cut itself for the first at_cut members holding it.
    const std::uint32_t cut_bit = std::uint32_t{1} << cut;
    const auto above =
        static_cast<std::uint32_t>(~((std::uint64_t{cut_bit} << 1) - 1));
    std::size_t used_at_cut = 0;
    for (std::size_t i = 0; i < len; ++i) {
        const TqLevelMasks m = m0[q[i]];
        std::uint32_t keep = above;
        if (((m.pos | m.neg) & cut_bit) != 0 && used_at_cut < at_cut) {
            keep |= cut_bit;
            ++used_at_cut;
        }
        out[i] = static_cast<std::int32_t>(m.pos & keep) -
                 static_cast<std::int32_t>(m.neg & keep);
    }
    return stats;
}

} // namespace kernels
} // namespace mrq
