/**
 * @file
 * Tests for the systolic array simulator and the analytic performance
 * model, including cross-validation between the two.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "core/uniform_quant.hpp"
#include "hw/perf_model.hpp"
#include "hw/systolic.hpp"
#include "hw/systolic_os.hpp"

namespace mrq {
namespace {

SubModelConfig
tqConfig(std::size_t alpha, std::size_t beta, std::size_t g = 16)
{
    SubModelConfig cfg;
    cfg.mode = QuantMode::Tq;
    cfg.bits = 5;
    cfg.groupSize = g;
    cfg.alpha = alpha;
    cfg.beta = beta;
    return cfg;
}

std::vector<std::int64_t>
randomValues(std::size_t n, Rng& rng, std::int64_t lo, std::int64_t hi)
{
    std::vector<std::int64_t> v(n);
    for (auto& x : v)
        x = lo + static_cast<std::int64_t>(
                     rng.uniformInt(static_cast<std::uint64_t>(hi - lo)));
    return v;
}

/** Reference: TQ weights per row-group, TQ data per value, multiply. */
std::vector<std::int64_t>
referenceTqMatmul(const std::vector<std::int64_t>& w, std::size_t m,
                  std::size_t k, const std::vector<std::int64_t>& x,
                  std::size_t n, const SubModelConfig& cfg)
{
    std::vector<std::int64_t> wq(w.size());
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t base = 0; base < k; base += cfg.groupSize) {
            const std::size_t len = std::min(cfg.groupSize, k - base);
            std::vector<std::int64_t> group(
                w.begin() + i * k + base, w.begin() + i * k + base + len);
            const auto r = termQuantizeGroup(
                group, scaledGroupBudget(cfg.alpha, cfg.groupSize, len),
                cfg.encoding);
            for (std::size_t j = 0; j < len; ++j)
                wq[i * k + base + j] = r.values[j];
        }
    }
    std::vector<std::int64_t> xq(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        xq[i] = termQuantizeValue(x[i], cfg.beta, cfg.encoding);

    std::vector<std::int64_t> y(m * n, 0);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t kk = 0; kk < k; ++kk)
                y[i * n + j] += wq[i * k + kk] * xq[kk * n + j];
    return y;
}

TEST(Systolic, MatchesTqReferenceExactly)
{
    Rng rng(1);
    const SubModelConfig cfg = tqConfig(12, 2);
    MmacSystolicArray array(4, 4, cfg);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t m = 6, k = 40, n = 5;
        const auto w = randomValues(m * k, rng, -31, 32);
        const auto x = randomValues(k * n, rng, 0, 32);
        const auto got = array.matmul(w, m, k, x, n);
        const auto want = referenceTqMatmul(w, m, k, x, n, cfg);
        EXPECT_EQ(got, want) << "trial " << trial;
    }
}

TEST(Systolic, LosslessAtFullBudgets)
{
    Rng rng(2);
    const SubModelConfig cfg = tqConfig(16 * 6, 6);
    MmacSystolicArray array(8, 8, cfg);
    const std::size_t m = 4, k = 16, n = 3;
    const auto w = randomValues(m * k, rng, -31, 32);
    const auto x = randomValues(k * n, rng, 0, 32);
    const auto got = array.matmul(w, m, k, x, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            std::int64_t expect = 0;
            for (std::size_t kk = 0; kk < k; ++kk)
                expect += w[i * k + kk] * x[kk * n + j];
            EXPECT_EQ(got[i * n + j], expect);
        }
}

TEST(Systolic, AgreesWithFakeQuantProjection)
{
    // The hardware path and the training-side fake quantizer must
    // implement the same projection: dequantized hardware products
    // equal the float product of fake-quantized tensors.
    Rng rng(3);
    const SubModelConfig cfg = tqConfig(10, 2);
    const std::size_t m = 3, k = 32, n = 4;

    Tensor w({m, k});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<float>(rng.normal()) * 0.4f;
    const float w_clip = 1.0f;

    Tensor x({k, n});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform());
    const float x_clip = 1.0f;

    // Training-side: fake quantize both, multiply in float.
    Tensor wq = fakeQuantWeights(w, w_clip, cfg);
    Tensor xq = fakeQuantData(x, x_clip, cfg);

    // Hardware-side: integer lattice through the array.
    UniformQuantizer uw;
    uw.bits = cfg.bits;
    uw.clip = w_clip;
    uw.isSigned = true;
    UniformQuantizer ux;
    ux.bits = cfg.bits;
    ux.clip = x_clip;
    ux.isSigned = false;
    std::vector<std::int64_t> wi(w.size()), xi(x.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        wi[i] = uw.quantize(w[i]);
    for (std::size_t i = 0; i < x.size(); ++i)
        xi[i] = ux.quantize(x[i]);

    MmacSystolicArray array(4, 4, cfg);
    const auto prod = array.matmul(wi, m, k, xi, n);

    const float scale = uw.scale() * ux.scale();
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            float expect = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                expect += wq(i, kk) * xq(kk, j);
            const float got =
                static_cast<float>(prod[i * n + j]) * scale;
            EXPECT_NEAR(got, expect, 1e-4f) << i << "," << j;
        }
}

TEST(Systolic, CycleCountMatchesAnalyticModel)
{
    Rng rng(4);
    const SubModelConfig cfg = tqConfig(12, 2);
    const SystolicArrayConfig geo{4, 4, 150.0};
    MmacSystolicArray array(geo.rows, geo.cols, cfg);
    const std::size_t m = 10, k = 100, n = 7;
    const auto w = randomValues(m * k, rng, -31, 32);
    const auto x = randomValues(k * n, rng, 0, 32);
    SystolicStats stats;
    array.matmul(w, m, k, x, n, &stats);

    const LayerPerf perf = layerPerformance(
        LayerGeometry{"t", m, k, n}, cfg, geo, PackedTermFormat{});
    EXPECT_EQ(stats.cycles, perf.cycles);
    // The analytic model budgets gamma pairs per beat; the functional
    // simulation processes at most that many.
    EXPECT_LE(stats.termPairs, perf.termPairs);
    EXPECT_GT(stats.termPairs, 0u);
}

TEST(Systolic, TilesGrowWithProblemSize)
{
    const SubModelConfig cfg = tqConfig(8, 2);
    MmacSystolicArray array(2, 2, cfg);
    Rng rng(5);
    const auto w = randomValues(8 * 64, rng, -31, 32);
    const auto x = randomValues(64 * 2, rng, 0, 32);
    SystolicStats stats;
    array.matmul(w, 8, 64, x, 2, &stats);
    // 8 rows / 2 = 4 row tiles; 4 groups / 2 = 2 col tiles.
    EXPECT_EQ(stats.tiles, 8u);
}

TEST(Systolic, RejectsBadShapes)
{
    const SubModelConfig cfg = tqConfig(8, 2);
    MmacSystolicArray array(2, 2, cfg);
    EXPECT_THROW(array.matmul({1, 2, 3}, 2, 2, {1, 2}, 1), FatalError);
}

TEST(Systolic, RejectsGroupsBeyondEightBitIndexes)
{
    // Group size 300 with w[0] = x[0] = 1 and w[256] = 3, x[256] = 0:
    // y is 1, but an 8-bit member index would charge w[256] to x[0]
    // and give 4.  The array refuses the group size instead.
    const SubModelConfig cfg = tqConfig(16, 2, 300);
    const auto run = [&] {
        MmacSystolicArray array(1, 1, cfg);
        std::vector<std::int64_t> w(300, 0), x(300, 0);
        w[0] = 1;
        x[0] = 1;
        w[256] = 3;
        return array.matmul(w, 1, 300, x, 1);
    };
    EXPECT_THROW(run(), FatalError);
    EXPECT_THROW(OsMmacSystolicArray(1, 1, cfg), FatalError);

    // 256 members is the widest group the array accepts.
    const SubModelConfig widest = tqConfig(16, 2, kMmacMaxGroupSize);
    MmacSystolicArray array(1, 1, widest);
    std::vector<std::int64_t> w(256, 0), x(256, 0);
    w[0] = x[0] = 1;
    w[255] = 3;
    EXPECT_EQ(array.matmul(w, 1, 256, x, 1),
              std::vector<std::int64_t>{1});
}

TEST(PerfModel, LatencyScalesWithGamma)
{
    const SystolicArrayConfig array{128, 128, 150.0};
    const auto layers = referenceNetwork("resnet18");
    const SystemEnergyModel energy;
    const auto lo = networkPerformance(layers, tqConfig(8, 2), array,
                                       PackedTermFormat{}, energy);
    const auto hi = networkPerformance(layers, tqConfig(20, 3), array,
                                       PackedTermFormat{}, energy);
    // gamma 16 -> 60: latency should grow, but sublinearly vs the
    // 3.75x budget ratio because of fill/load overheads (Fig. 26).
    const double ratio = hi.latencyMs / lo.latencyMs;
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 3.75);
}

TEST(PerfModel, ResNet18LatencyNearPaperTable4)
{
    // Table 4: ours at (alpha, beta) = (20, 3), g = 16, 128x128 array,
    // 150 MHz -> 3.98 ms.  The analytic model should land in the same
    // regime (a loose 2x band: it is a model, not a synthesis run).
    const SystolicArrayConfig array{128, 128, 150.0};
    const auto net =
        networkPerformance(referenceNetwork("resnet18"), tqConfig(20, 3),
                           array, PackedTermFormat{}, SystemEnergyModel{});
    EXPECT_GT(net.latencyMs, 2.0);
    EXPECT_LT(net.latencyMs, 8.0);
}

TEST(PerfModel, EnergyEfficiencyNearPaperTable4)
{
    const SystolicArrayConfig array{128, 128, 150.0};
    const auto net =
        networkPerformance(referenceNetwork("resnet18"), tqConfig(20, 3),
                           array, PackedTermFormat{}, SystemEnergyModel{});
    // Paper: 71.48 frames/J.  Calibrated band: 35 - 140.
    EXPECT_GT(net.samplesPerJoule, 35.0);
    EXPECT_LT(net.samplesPerJoule, 140.0);
}

TEST(PerfModel, AllReferenceNetworksResolve)
{
    for (const char* name : {"resnet18", "resnet50", "mobilenet-v2",
                             "lstm", "yolo-v5s"}) {
        const auto layers = referenceNetwork(name);
        EXPECT_FALSE(layers.empty()) << name;
        for (const auto& layer : layers) {
            EXPECT_GT(layer.outputs, 0u);
            EXPECT_GT(layer.inner, 0u);
            EXPECT_GT(layer.positions, 0u);
        }
    }
    EXPECT_THROW(referenceNetwork("vgg"), FatalError);
}

} // namespace
} // namespace mrq
