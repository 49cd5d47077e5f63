#include "hw/systolic.hpp"

#include <algorithm>

#include "core/fake_quant.hpp"
#include "hw/perf_model.hpp"
#include "kernels/blocking.hpp"
#include "kernels/tq_table.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {

using kernels::ceilDiv;

DataTermSlots
quantizeDataTerms(const std::vector<std::int64_t>& x,
                  const SubModelConfig& cfg)
{
    // The slots come from the per-level term masks: the top-beta
    // bits of a level's masks, highest first, are exactly the terms
    // the SDR encoder + term quantizer units deliver (Fig. 9).
    const kernels::TqMaskTable& masks =
        kernels::tqMaskTable(cfg.bits, cfg.encoding);
    if (!x.empty()) {
        const auto [lo, hi] = std::minmax_element(x.begin(), x.end());
        require(*lo >= -masks.qmax && *hi <= masks.qmax,
                "quantizeDataTerms: data value outside the ", cfg.bits,
                "-bit lattice [", -masks.qmax, ", ", masks.qmax, "]");
    }
    const std::size_t beta = cfg.beta;
    DataTermSlots d;
    d.exps.resize(x.size() * beta);
    d.signs.resize(x.size() * beta);
    d.counts.resize(x.size());
    const kernels::TqLevelMasks* m0 = masks.at0();
    parallelFor(x.size(), parallelGrain(64),
                [&](std::size_t e0, std::size_t e1) {
        for (std::size_t e = e0; e < e1; ++e) {
            d.counts[e] = static_cast<std::uint8_t>(kernels::tqTopTerms(
                m0[x[e]], beta, d.exps.data() + e * beta,
                d.signs.data() + e * beta));
        }
    });
    return d;
}

MmacSystolicArray::MmacSystolicArray(std::size_t rows, std::size_t cols,
                                     const SubModelConfig& cfg)
    : rows_(rows), cols_(cols), cfg_(cfg)
{
    require(rows > 0 && cols > 0, "MmacSystolicArray: empty array");
    require(cfg.mode == QuantMode::Tq,
            "MmacSystolicArray: the array runs TQ sub-models");
    require(cfg.groupSize <= kMmacMaxGroupSize,
            "MmacSystolicArray: group size ", cfg.groupSize,
            " exceeds the ", kMmacMaxGroupSize,
            " members an mMAC cell addresses");
    kernels::checkTqBits(cfg.bits, "MmacSystolicArray");
}

std::vector<std::int64_t>
MmacSystolicArray::matmul(const std::vector<std::int64_t>& w, std::size_t m,
                          std::size_t k,
                          const std::vector<std::int64_t>& x, std::size_t n,
                          SystolicStats* stats) const
{
    require(w.size() == m * k, "MmacSystolicArray::matmul: W size");
    require(x.size() == k * n, "MmacSystolicArray::matmul: X size");
    const std::size_t g = cfg_.groupSize;
    const std::size_t groups_per_row = ceilDiv(k, g);

    const DataTermSlots d = quantizeDataTerms(x, cfg_);

    std::vector<std::int64_t> y(m * n, 0);
    SystolicStats local;
    const std::size_t tile_rows = ceilDiv(m, rows_);
    const std::size_t tile_cols = ceilDiv(groups_per_row, cols_);
    local.tiles = tile_rows * tile_cols;
    // Cycle accounting is shared with the analytic model (including
    // the idle-cell replication rule), so the two never diverge.
    local.cycles = layerCycles(LayerGeometry{"", m, k, n}, cfg_, rows_,
                               cols_);

    // Output rows are independent: each chunk simulates its own Mmac
    // cell over a disjoint band of y, and the term-pair / increment
    // counters are integers, so the totals are exact regardless of
    // thread count.
    struct OpCounts
    {
        std::uint64_t termPairs = 0;
        std::uint64_t incrementOps = 0;
    };
    const OpCounts counts = parallelReduce(
        m, parallelGrain(groups_per_row * n * g),
        OpCounts{},
        [&](std::size_t i0, std::size_t i1) {
            OpCounts part;
            Mmac cell(g, cfg_.alpha, cfg_.beta);
            std::vector<TermSpan> slice(g);
            std::vector<std::int64_t> group_vals;
            for (std::size_t i = i0; i < i1; ++i) {
                for (std::size_t q = 0; q < groups_per_row; ++q) {
                    const std::size_t base = q * g;
                    const std::size_t len = std::min(g, k - base);
                    group_vals.assign(w.begin() + i * k + base,
                                      w.begin() + i * k + base + len);
                    const std::size_t budget =
                        scaledGroupBudget(cfg_.alpha, g, len);
                    MultiResGroup group(group_vals, budget, cfg_.encoding);
                    cell.loadWeights(
                        MmacWeightQueues::fromGroup(group, budget));

                    for (std::size_t j = 0; j < n; ++j) {
                        for (std::size_t s = 0; s < g; ++s) {
                            if (s < len) {
                                const std::size_t e = (base + s) * n + j;
                                slice[s] = TermSpan{
                                    d.exps.data() + e * cfg_.beta,
                                    d.signs.data() + e * cfg_.beta,
                                    d.counts[e]};
                            } else {
                                slice[s] = TermSpan{};
                            }
                        }
                        const MmacResult r = cell.computeGroupFlat(
                            slice.data(), y[i * n + j]);
                        y[i * n + j] = r.value;
                        part.termPairs += r.termPairs;
                        part.incrementOps += r.incrementOps;
                    }
                }
            }
            return part;
        },
        [](OpCounts acc, const OpCounts& part) {
            acc.termPairs += part.termPairs;
            acc.incrementOps += part.incrementOps;
            return acc;
        });
    local.termPairs += counts.termPairs;
    local.incrementOps += counts.incrementOps;
    if (stats)
        *stats = local;
    return y;
}

} // namespace mrq
