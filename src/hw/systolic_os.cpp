#include "hw/systolic_os.hpp"

#include "core/fake_quant.hpp"
#include "kernels/blocking.hpp"

namespace mrq {

using kernels::ceilDiv;

OsMmacSystolicArray::OsMmacSystolicArray(std::size_t rows,
                                         std::size_t cols,
                                         const SubModelConfig& cfg)
    : rows_(rows), cols_(cols), cfg_(cfg)
{
    require(rows > 0 && cols > 0, "OsMmacSystolicArray: empty array");
    require(cfg.mode == QuantMode::Tq,
            "OsMmacSystolicArray: the array runs TQ sub-models");
    require(cfg.groupSize <= kMmacMaxGroupSize,
            "OsMmacSystolicArray: group size ", cfg.groupSize,
            " exceeds the ", kMmacMaxGroupSize,
            " members an mMAC cell addresses");
}

std::vector<std::int64_t>
OsMmacSystolicArray::matmul(const std::vector<std::int64_t>& w,
                            std::size_t m, std::size_t k,
                            const std::vector<std::int64_t>& x,
                            std::size_t n, SystolicStats* stats) const
{
    require(w.size() == m * k, "OsMmacSystolicArray::matmul: W size");
    require(x.size() == k * n, "OsMmacSystolicArray::matmul: X size");
    const std::size_t g = cfg_.groupSize;
    const std::size_t groups_per_row = ceilDiv(k, g);

    // Pre-quantize data terms exactly as the WS array does.
    std::vector<std::vector<Term>> data_terms(k * n);
    for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < n; ++j) {
            auto terms = encodeTerms(x[kk * n + j], cfg_.encoding);
            if (terms.size() > cfg_.beta)
                terms.resize(cfg_.beta);
            data_terms[kk * n + j] = std::move(terms);
        }
    }

    std::vector<std::int64_t> y(m * n, 0);
    SystolicStats local;
    local.tiles = ceilDiv(m, rows_) * ceilDiv(n, cols_);
    local.cycles =
        osLayerCycles(LayerGeometry{"", m, k, n}, cfg_, rows_, cols_);

    Mmac cell(g, cfg_.alpha, cfg_.beta);
    std::vector<std::vector<Term>> slice(g);
    std::vector<std::int64_t> group_vals;
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
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
                for (std::size_t s = 0; s < g; ++s) {
                    if (s < len)
                        slice[s] = data_terms[(base + s) * n + j];
                    else
                        slice[s].clear();
                }
                const MmacResult r = cell.computeGroup(slice, acc);
                acc = r.value;
                local.termPairs += r.termPairs;
                local.incrementOps += r.incrementOps;
            }
            y[i * n + j] = acc;
        }
    }
    if (stats)
        *stats = local;
    return y;
}

std::uint64_t
osLayerCycles(const LayerGeometry& layer, const SubModelConfig& cfg,
              std::size_t rows, std::size_t cols)
{
    const std::uint64_t groups_per_row =
        ceilDiv(layer.inner, cfg.groupSize);
    const std::uint64_t tiles =
        ceilDiv(layer.outputs, rows) * ceilDiv(layer.positions, cols);
    // Each tile streams every group beat through its cells once.
    const std::uint64_t per_tile =
        rows + cols + groups_per_row * cfg.gamma();
    return tiles * per_tile;
}

LayerPerf
osLayerPerformance(const LayerGeometry& layer, const SubModelConfig& cfg,
                   const SystolicArrayConfig& array,
                   const PackedTermFormat& fmt)
{
    require(cfg.mode == QuantMode::Tq,
            "osLayerPerformance: the mMAC system runs TQ sub-models");
    const std::uint64_t g = cfg.groupSize;
    const std::uint64_t m = layer.outputs;
    const std::uint64_t k = layer.inner;
    const std::uint64_t n = layer.positions;
    const std::uint64_t groups_per_row = ceilDiv(k, g);
    const std::uint64_t tile_rows = ceilDiv(m, array.rows);
    const std::uint64_t tile_cols = ceilDiv(n, array.cols);

    LayerPerf perf;
    perf.cycles = osLayerCycles(layer, cfg, array.rows, array.cols);
    perf.termPairs = m * groups_per_row * n * cfg.gamma();

    // OS traffic: weights re-streamed once per output-column tile,
    // data re-streamed once per output-row tile.
    const std::uint64_t total_groups = m * groups_per_row;
    perf.termMemEntries = tile_cols * total_groups *
                          ceilDiv(cfg.alpha, fmt.termsPerEntry());
    perf.indexMemEntries = tile_cols * total_groups *
                           ceilDiv(cfg.alpha, fmt.indexesPerEntry());
    const std::uint64_t data_bits =
        tile_rows * k * n * cfg.beta * fmt.termBits();
    perf.dataMemEntries = ceilDiv(data_bits, fmt.entryBits);
    return perf;
}

} // namespace mrq
