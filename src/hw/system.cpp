#include "hw/system.hpp"

#include <algorithm>

#include "core/uniform_quant.hpp"
#include "nn/activations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "tensor/ops.hpp"

namespace mrq {

HwInferenceEngine::HwInferenceEngine(Sequential& model,
                                     const SubModelConfig& cfg,
                                     const SystolicArrayConfig& array,
                                     const PackedTermFormat& fmt)
    : model_(model), cfg_(cfg), arrayCfg_(array), fmt_(fmt),
      array_(array.rows, array.cols, cfg)
{
    require(cfg.mode == QuantMode::Tq,
            "HwInferenceEngine: deployment requires a TQ sub-model");
}

void
HwInferenceEngine::attachImage(const DeploymentImage& image)
{
    require(image.bits() == cfg_.bits,
            "HwInferenceEngine::attachImage: lattice bitwidth mismatch");
    require(image.groupSize() == cfg_.groupSize,
            "HwInferenceEngine::attachImage: group size mismatch");
    bool has_alpha = false;
    for (std::size_t rung : image.ladder())
        has_alpha = has_alpha || rung == cfg_.alpha;
    require(has_alpha, "HwInferenceEngine::attachImage: image ladder "
                       "does not contain alpha ",
            cfg_.alpha);
    image_ = &image;
}

std::vector<std::int64_t>
HwInferenceEngine::arrayMatmul(const std::vector<std::int64_t>& w,
                               std::size_t m, std::size_t k,
                               const std::vector<std::int64_t>& x,
                               std::size_t n, const std::string& layer_name)
{
    MRQ_TRACE_SPAN("hw.array_matmul");
    SystolicStats stats;
    std::vector<std::int64_t> y = array_.matmul(w, m, k, x, n, &stats);
    report_.systolic.cycles += stats.cycles;
    report_.systolic.termPairs += stats.termPairs;
    report_.systolic.incrementOps += stats.incrementOps;
    report_.systolic.tiles += stats.tiles;
    // Cumulative simulated cycles as a timeline counter track.
    // arrayMatmul runs on the caller thread outside parallel regions,
    // so sampling here is serial-safe.
    if (obs::traceExportEnabled())
        obs::traceCounterSample(
            "hw.cycles", static_cast<double>(report_.systolic.cycles));

    // Per-layer deployment accounting.  Budgeted slots reserve gamma
    // term pairs per group beat; pairs the straggler-free budget left
    // unused are idle slots (Sec. 7.4's straggler headroom).  SDR
    // encoder throughput is one encode per streamed data value.
    // arrayMatmul runs on the caller thread and the values are exact
    // integers from the simulator, so the counters are deterministic.
    if (obs::metricsEnabled()) {
        const std::uint64_t groups_per_row =
            (k + cfg_.groupSize - 1) / cfg_.groupSize;
        const std::uint64_t budgeted = static_cast<std::uint64_t>(m) *
                                       groups_per_row * n *
                                       cfg_.gamma();
        obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
        const std::string base = "hw.layer." + layer_name;
        reg.addCounterNamed(base + ".cycles",
                            static_cast<std::int64_t>(stats.cycles));
        reg.addCounterNamed(base + ".term_pairs",
                            static_cast<std::int64_t>(stats.termPairs));
        reg.addCounterNamed(
            base + ".idle_term_slots",
            static_cast<std::int64_t>(
                budgeted > stats.termPairs ? budgeted - stats.termPairs
                                           : 0));
        reg.addCounterNamed(base + ".encoded_values",
                            static_cast<std::int64_t>(k * n));
    }

    LayerGeometry geom{layer_name, m, k, n};
    const LayerPerf perf =
        layerPerformance(geom, cfg_, arrayCfg_, fmt_);
    report_.termMemEntries += perf.termMemEntries;
    report_.indexMemEntries += perf.indexMemEntries;
    report_.dataMemEntries += perf.dataMemEntries;

    // Record each distinct layer's geometry once (layers repeat per
    // image within a batch).
    bool seen = false;
    for (const LayerGeometry& g : geometries_)
        seen = seen || (g.name == layer_name && g.outputs == m &&
                        g.inner == k && g.positions == n);
    if (!seen)
        geometries_.push_back(geom);
    return y;
}

bool
HwInferenceEngine::fetchImageWeights(const std::string& name,
                                     std::vector<std::int64_t>* w_int,
                                     float* scale) const
{
    if (image_ == nullptr)
        return false;
    for (std::size_t l = 0; l < image_->layers().size(); ++l) {
        const LayerImage& layer = image_->layers()[l];
        if (layer.name != name)
            continue;
        *w_int = image_->layerWeights(l, cfg_.alpha);
        *scale = layer.scale;
        return true;
    }
    fatal("HwInferenceEngine: layer '", name,
          "' missing from the attached deployment image");
}

Tensor
HwInferenceEngine::runConv(Conv2d& conv, const Tensor& x, float data_clip,
                           const std::string& name)
{
    const std::size_t n = x.dim(0);
    const std::size_t oh =
        convOutSize(x.dim(2), conv.kernel(), conv.stride(), conv.pad());
    const std::size_t ow =
        convOutSize(x.dim(3), conv.kernel(), conv.stride(), conv.pad());
    const std::size_t m = conv.outChannels();
    const std::size_t k =
        conv.inChannels() * conv.kernel() * conv.kernel();

    // Weight lattice values: read from the packed deployment image
    // when attached (the device flow), otherwise quantize the master
    // weights (the simulation shortcut).
    UniformQuantizer wq;
    wq.bits = cfg_.bits;
    wq.clip = conv.quantizer().clip();
    wq.isSigned = true;
    float w_scale = wq.scale();
    std::vector<std::int64_t> w_int;
    if (!fetchImageWeights(name, &w_int, &w_scale)) {
        const Tensor& w = conv.weight().value;
        w_int.resize(w.size());
        for (std::size_t i = 0; i < w.size(); ++i)
            w_int[i] = wq.quantize(w[i]);
    }

    // Data lattice projection (SDR encoder inputs).
    UniformQuantizer xq;
    xq.bits = cfg_.bits;
    xq.clip = data_clip;
    xq.isSigned = false;
    Tensor cols = im2col(x, conv.kernel(), conv.stride(), conv.pad());

    Tensor y({n, m, oh, ow});
    const std::size_t positions = oh * ow;
    std::vector<std::int64_t> x_int(k * positions);
    const float out_scale = w_scale * xq.scale();
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t r = 0; r < k; ++r)
            for (std::size_t c = 0; c < positions; ++c)
                x_int[r * positions + c] =
                    xq.quantize(cols(r, img, c));
        const std::vector<std::int64_t> prod =
            arrayMatmul(w_int, m, k, x_int, positions, name);
        for (std::size_t i = 0; i < m * positions; ++i)
            y[img * m * positions + i] =
                static_cast<float>(prod[i]) * out_scale;
    }
    return y;
}

Tensor
HwInferenceEngine::runLinear(Linear& lin, const Tensor& x,
                             float data_clip, const std::string& name)
{
    const std::size_t n = x.dim(0);
    const std::size_t k = lin.inFeatures();
    const std::size_t m = lin.outFeatures();

    UniformQuantizer wq;
    wq.bits = cfg_.bits;
    wq.clip = lin.quantizer().clip();
    wq.isSigned = true;
    float w_scale = wq.scale();
    std::vector<std::int64_t> w_int;
    if (!fetchImageWeights(name, &w_int, &w_scale)) {
        const Tensor& w = lin.weight().value;
        w_int.resize(w.size());
        for (std::size_t i = 0; i < w.size(); ++i)
            w_int[i] = wq.quantize(w[i]);
    }

    UniformQuantizer xq;
    xq.bits = cfg_.bits;
    xq.clip = data_clip;
    xq.isSigned = false;

    // X as [k, n] columns.
    std::vector<std::int64_t> x_int(k * n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < k; ++j)
            x_int[j * n + i] = xq.quantize(x(i, j));

    const std::vector<std::int64_t> prod =
        arrayMatmul(w_int, m, k, x_int, n, name);
    const float out_scale = w_scale * xq.scale();
    Tensor y({n, m});
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m; ++j) {
            float v = static_cast<float>(prod[j * n + i]) * out_scale;
            if (lin.bias().value.size() == m)
                v += lin.bias().value[j];
            y(i, j) = v;
        }
    return y;
}

Tensor
HwInferenceEngine::forward(const Tensor& x)
{
    // Attach the engine's own quantization context so PactQuant
    // layers emit the dequantized lattice stream (SDR encoder + term
    // quantizer output) the array consumes; the matmuls themselves go
    // through the integer systolic path instead of the layers.
    QuantContext ctx;
    ctx.config = cfg_;
    model_.setQuantContext(&ctx);
    model_.setTraining(false);

    Tensor cur = x;
    float data_clip = 1.0f; // images arrive in [0, 1]
    for (std::size_t i = 0; i < model_.size(); ++i) {
        Module* layer = model_.child(i);
        if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
            cur = runConv(*conv, cur, data_clip,
                          "conv@" + std::to_string(i));
        } else if (auto* lin = dynamic_cast<Linear*>(layer)) {
            cur = runLinear(*lin, cur, data_clip,
                            "linear@" + std::to_string(i));
        } else if (auto* pact = dynamic_cast<PactQuant*>(layer)) {
            cur = pact->forward(cur);
            data_clip = pact->clip();
        } else {
            // BN, pooling, ReLU, dropout(eval): plain float forward.
            cur = layer->forward(cur);
        }
    }

    model_.setTraining(true);
    model_.setQuantContext(nullptr);
    return cur;
}

HwReport
HwInferenceEngine::report() const
{
    HwReport out = report_;
    out.latencyMs = static_cast<double>(out.systolic.cycles) /
                    (arrayCfg_.clockMhz * 1e6) * 1e3;
    const double kilo_cells =
        static_cast<double>(arrayCfg_.rows * arrayCfg_.cols) / 1000.0;
    const double mem_entries =
        static_cast<double>(out.termMemEntries + out.indexMemEntries +
                            out.dataMemEntries);
    out.energyPj =
        static_cast<double>(out.systolic.termPairs) * energy_.perTermPair +
        mem_entries * energy_.perMemoryEntry +
        static_cast<double>(out.systolic.cycles) *
            energy_.staticPerCyclePerKiloCell * kilo_cells;
    return out;
}

void
HwInferenceEngine::resetReport()
{
    report_ = HwReport{};
}

} // namespace mrq
