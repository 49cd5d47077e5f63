#include "core/fake_quant.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/uniform_quant.hpp"
#include "kernels/kernels.hpp"
#include "kernels/roofline.hpp"
#include "kernels/tq_table.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {

namespace {

/** Projections actually executed (not served from a cache); test hook. */
std::atomic<std::uint64_t> g_weight_projections{0};

// Per-group/per-value term accounting histograms (Fig. 20's lattice
// view aggregated the hardware way).  Recorded from parallelReduce
// bodies into per-thread shards; the bucket counts are integers, so
// the aggregate is thread-count independent.  Bucket i counts exactly
// i terms; the last bucket collects everything >= 32 (weight budgets
// in the paper's ladders top out at alpha = 20).
obs::IntHistogram h_w_kept("core.tq.weight_kept_terms_per_group", 33);
obs::IntHistogram h_w_dropped("core.tq.weight_dropped_terms_per_group",
                              33);
obs::IntHistogram h_x_kept("core.tq.data_kept_terms_per_value", 9);
obs::Counter c_w_projections("core.fake_quant.weight_projections");
obs::Counter c_x_projections("core.fake_quant.data_projections");

/** Lattice values per stack block in fakeQuantData's chunk loop. */
constexpr std::size_t kDataBlock = 256;

/** Magnitude mass (sum of 2^exponent) and term count of a lattice
 *  value under the rung's encoding. */
void
termMass(std::int64_t value, TermEncoding encoding, std::int64_t* mass,
         std::int64_t* terms)
{
    for (const Term& t : encodeTerms(value, encoding)) {
        *mass += std::int64_t{1} << t.exponent;
        *terms += 1;
    }
}

/**
 * Introspect one weight projection (sampled steps only; serial, after
 * the parallel region, so the accumulation order is fixed).  SQNR of
 * @p out against @p w; for TQ additionally the magnitude mass and
 * term counts kept vs dropped at the rung's budget.  @p out lies on
 * the UQ lattice, so quantize() recovers the exact kept level and the
 * residual q_full - q_kept is the sum of the dropped terms.
 */
void
inspectWeightProjection(const Tensor& w, const Tensor& out,
                        const UniformQuantizer& uq,
                        const SubModelConfig& cfg)
{
    const std::size_t n = w.size();
    double signal = 0.0;
    double noise = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double v = w[i];
        const double d = v - static_cast<double>(out[i]);
        signal += v * v;
        noise += d * d;
    }
    obs::QuantInspector& inspector = obs::QuantInspector::instance();
    const int layer = obs::currentInspectLayer();
    inspector.recordWeightSqnr(layer, cfg.name(),
                               obs::sqnrDb(signal, noise),
                               static_cast<std::int64_t>(n));
    if (cfg.mode != QuantMode::Tq)
        return;
    std::int64_t kept_mass = 0;
    std::int64_t dropped_mass = 0;
    std::int64_t kept_terms = 0;
    std::int64_t dropped_terms = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t q_full = uq.quantize(w[i]);
        const std::int64_t q_kept = uq.quantize(out[i]);
        termMass(q_kept, cfg.encoding, &kept_mass, &kept_terms);
        termMass(q_full - q_kept, cfg.encoding, &dropped_mass,
                 &dropped_terms);
    }
    inspector.recordTermEnergy(layer, cfg.name(), kept_mass,
                               dropped_mass, kept_terms, dropped_terms,
                               static_cast<std::int64_t>(n));
}

/** Introspect one data projection: SQNR of @p out against the
 *  clamped input @p x (sampled steps only; serial). */
void
inspectDataProjection(const Tensor& x, const Tensor& out,
                      const SubModelConfig& cfg)
{
    const std::size_t n = x.size();
    double signal = 0.0;
    double noise = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double v = x[i];
        const double d = v - static_cast<double>(out[i]);
        signal += v * v;
        noise += d * d;
    }
    obs::QuantInspector::instance().recordActSqnr(
        obs::currentInspectLayer(), cfg.name(),
        obs::sqnrDb(signal, noise), static_cast<std::int64_t>(n));
}

} // namespace

std::uint64_t
fakeQuantWeightsCallCount()
{
    return g_weight_projections.load(std::memory_order_relaxed);
}

std::size_t
scaledGroupBudget(std::size_t alpha, std::size_t group_size,
                  std::size_t actual_size)
{
    if (actual_size == group_size)
        return alpha;
    const double frac = static_cast<double>(actual_size) /
                        static_cast<double>(group_size);
    const auto scaled = static_cast<std::size_t>(
        std::llround(frac * static_cast<double>(alpha)));
    return std::max<std::size_t>(1, scaled);
}

Tensor
fakeQuantWeights(const Tensor& w, float clip, const SubModelConfig& cfg,
                 QuantStats* stats)
{
    if (cfg.mode == QuantMode::None)
        return w;
    require(clip > 0.0f, "fakeQuantWeights: clip must be positive");
    if (cfg.mode == QuantMode::Tq)
        kernels::checkTqBits(cfg.bits, "fakeQuantWeights");
    MRQ_TRACE_SPAN("core.fake_quant_weights");
    g_weight_projections.fetch_add(1, std::memory_order_relaxed);
    c_w_projections.add(1);

    UniformQuantizer uq;
    uq.bits = cfg.bits;
    uq.clip = clip;
    uq.isSigned = true;

    Tensor out = w;
    const std::size_t n = w.size();
    const kernels::KernelTable& kt = kernels::kernels();
    const kernels::LatticeParams lp =
        kernels::makeLatticeParams(cfg.bits, uq.scale(), uq.isSigned);

    if (cfg.mode == QuantMode::Uq) {
        kernels::KernelRegion kr(kernels::KernelId::LatticeRoundTrip,
                                 static_cast<std::int64_t>(n));
        parallelFor(n, parallelGrain(8), [&](std::size_t b, std::size_t e) {
            kt.latticeRoundTrip(w.data() + b, out.data() + b, e - b, lp);
        });
        if (stats) {
            stats->units += n;
        }
        if (obs::inspectSampling())
            inspectWeightProjection(w, out, uq, cfg);
        return out;
    }

    // QuantMode::Tq: lattice projection, then group-wise TQ within
    // each output row (never across dot-product boundaries).  Rows are
    // independent, so they parallelize; per-row kept-term counts are
    // integers, so the chunked reduction is order-insensitive.  The
    // whole row quantizes through the lattice kernel in one call, the
    // groups project in place with the counting selection over the
    // per-level term masks (kernels::tqGroupProject, equivalent to
    // termQuantizeGroup), and the row dequantizes in one call.
    const std::size_t g = cfg.groupSize;
    require(g > 0, "fakeQuantWeights: group size must be positive");
    const kernels::TqMaskTable& masks =
        kernels::tqMaskTable(cfg.bits, cfg.encoding);
    const std::size_t row_len =
        w.rank() >= 2 && w.dim(0) > 0 ? n / w.dim(0) : n;
    const std::size_t rows = row_len > 0 ? n / row_len : 0;
    // Region covers the fused quantize + group-project + dequant row
    // pass; attributed to the quantize family (nominal).
    kernels::KernelRegion kr(kernels::KernelId::LatticeQuantize,
                             static_cast<std::int64_t>(n));
    const QuantStats partial = parallelReduce(
        rows, parallelGrain(row_len * 16), QuantStats{},
        [&](std::size_t r0, std::size_t r1) {
            QuantStats local;
            std::vector<std::int32_t> qrow(row_len);
            for (std::size_t row = r0; row < r1; ++row) {
                const std::size_t row_base = row * row_len;
                kt.latticeQuantize(w.data() + row_base, qrow.data(),
                                   row_len, lp);
                for (std::size_t off = 0; off < row_len; off += g) {
                    const std::size_t len = std::min(g, row_len - off);
                    const std::size_t budget =
                        scaledGroupBudget(cfg.alpha, g, len);
                    const kernels::TqGroupStats tg =
                        kernels::tqGroupProject(qrow.data() + off, len,
                                                budget, masks,
                                                qrow.data() + off);
                    h_w_kept.record(tg.kept);
                    h_w_dropped.record(tg.total - tg.kept);
                    local.keptTerms += tg.kept;
                    local.units += 1;
                }
                kt.latticeDequant(qrow.data(), out.data() + row_base,
                                  row_len, lp.scale);
            }
            return local;
        },
        [](QuantStats acc, const QuantStats& part) {
            acc.keptTerms += part.keptTerms;
            acc.units += part.units;
            return acc;
        });
    if (stats) {
        stats->keptTerms += partial.keptTerms;
        stats->units += partial.units;
    }
    if (obs::inspectSampling())
        inspectWeightProjection(w, out, uq, cfg);
    return out;
}

Tensor
fakeQuantData(const Tensor& x, float clip, const SubModelConfig& cfg,
              QuantStats* stats, bool is_signed)
{
    if (cfg.mode == QuantMode::None)
        return x;
    require(clip > 0.0f, "fakeQuantData: clip must be positive");
    if (cfg.mode == QuantMode::Tq)
        kernels::checkTqBits(cfg.bits, "fakeQuantData");
    MRQ_TRACE_SPAN("core.fake_quant_data");

    UniformQuantizer uq;
    uq.bits = cfg.bits;
    uq.clip = clip;
    uq.isSigned = is_signed;

    Tensor out = x;
    const std::size_t n = x.size();
    c_x_projections.add(1);
    const bool tq = cfg.mode == QuantMode::Tq;
    const bool record_hist = obs::metricsEnabled() && tq;
    const kernels::KernelTable& kt = kernels::kernels();
    const kernels::LatticeParams lp =
        kernels::makeLatticeParams(cfg.bits, uq.scale(), uq.isSigned);
    // TQ: every lattice level's top-beta value and kept count, read
    // by level (the lattice clamp keeps q inside the table).
    const kernels::TqLevelValue* level0 =
        tq ? kernels::tqValueTable(cfg.bits, cfg.encoding, cfg.beta).at0()
           : nullptr;
    kernels::KernelRegion kr(kernels::KernelId::LatticeRoundTrip,
                             static_cast<std::int64_t>(n));
    const std::size_t kept = parallelReduce(
        n, parallelGrain(16), std::size_t{0},
        [&](std::size_t b, std::size_t e) {
            // Kept-count histogram of the chunk: it yields the kept
            // total and is folded into h_x_kept once per chunk, so
            // the per-value loop carries no telemetry.
            std::size_t hist[kernels::kTqMaskBits + 1] = {};
            std::int32_t q[kDataBlock];
            for (std::size_t s = b; s < e; s += kDataBlock) {
                const std::size_t len = std::min(kDataBlock, e - s);
                kt.latticeQuantize(x.data() + s, q, len, lp);
                if (tq) {
                    for (std::size_t i = 0; i < len; ++i) {
                        const kernels::TqLevelValue t = level0[q[i]];
                        q[i] = t.value;
                        ++hist[t.kept];
                    }
                }
                kt.latticeDequant(q, out.data() + s, len, lp.scale);
            }
            std::size_t local = 0;
            for (std::size_t k = 0; k <= kernels::kTqMaskBits; ++k) {
                if (hist[k] == 0)
                    continue;
                local += k * hist[k];
                if (record_hist)
                    h_x_kept.record(k, hist[k]);
            }
            return local;
        },
        [](std::size_t acc, std::size_t part) { return acc + part; });
    if (stats) {
        if (tq)
            stats->keptTerms += kept;
        stats->units += n;
    }
    if (obs::inspectSampling())
        inspectDataProjection(x, out, cfg);
    return out;
}

Tensor
steBackward(const Tensor& x, const Tensor& dy, float clip, bool is_signed,
            float* clip_grad)
{
    require(x.sameShape(dy), "steBackward: shape mismatch");
    Tensor dx = dy;
    const std::size_t n = x.size();
    const float cg = parallelReduce(
        n, parallelGrain(4), 0.0f,
        [&](std::size_t b, std::size_t e) {
            float local = 0.0f;
            for (std::size_t i = b; i < e; ++i) {
                const float v = x[i];
                if (is_signed) {
                    if (v > clip) {
                        dx[i] = 0.0f;
                        local += dy[i];
                    } else if (v < -clip) {
                        dx[i] = 0.0f;
                        local -= dy[i];
                    }
                } else {
                    if (v > clip) {
                        dx[i] = 0.0f;
                        local += dy[i];
                    } else if (v < 0.0f) {
                        dx[i] = 0.0f;
                    }
                }
            }
            return local;
        },
        [](float acc, float part) { return acc + part; });
    if (clip_grad)
        *clip_grad += cg;
    return dx;
}

} // namespace mrq
