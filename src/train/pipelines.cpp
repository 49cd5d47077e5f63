#include "train/pipelines.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/term_accounting.hpp"
#include "data/batcher.hpp"
#include "nn/loss.hpp"
#include "obs/crash_handler.hpp"
#include "obs/inspect.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace mrq {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

std::string
formatOpt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Self-describing manifest for one pipeline run (JSONL line 1). */
obs::RunManifest
pipelineManifest(const char* run, const PipelineOptions& opts,
                 const SubModelLadder& ladder)
{
    obs::RunManifest m;
    m.run = run;
    m.seed = opts.seed;
    m.add("fp_epochs", std::to_string(opts.fpEpochs));
    m.add("mr_epochs", std::to_string(opts.mrEpochs));
    m.add("batch_size", std::to_string(opts.batchSize));
    m.add("fp_lr", formatOpt(opts.fpLr));
    m.add("mr_lr", formatOpt(opts.mrLr));
    m.add("momentum", formatOpt(opts.momentum));
    m.add("weight_decay", formatOpt(opts.weightDecay));
    m.add("distill_weight", formatOpt(opts.distillWeight));
    m.add("distill_temperature", formatOpt(opts.distillTemperature));
    m.add("distillation", opts.useDistillation ? "on" : "off");
    m.add("bptt", std::to_string(opts.bptt));
    std::string rungs;
    for (const SubModelConfig& cfg : ladder) {
        if (!rungs.empty())
            rungs += ',';
        rungs += cfg.name();
    }
    m.add("ladder", rungs);
    return m;
}

/** Record one evaluated rung: gauges keyed by rung name + a curve. */
void
recordSubModelEval(std::size_t index, const SubModelResult& r)
{
    if (!obs::metricsEnabled())
        return;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    const std::string base = "train.eval." + r.config.name();
    reg.setGauge(base + ".metric", r.metric);
    reg.setGauge(base + ".term_pairs",
                 static_cast<double>(r.termPairs));
    reg.recordSeries("train.eval.metric",
                     static_cast<std::int64_t>(index), r.metric);
}

/** Record one epoch's mean loss on the named curve. */
void
recordEpoch(const char* series, std::size_t epoch, double mean_loss)
{
    if (!obs::metricsEnabled())
        return;
    obs::MetricsRegistry::instance().recordSeries(
        series, static_cast<std::int64_t>(epoch), mean_loss);
}

TrainerOptions
trainerOptions(const PipelineOptions& opts, float lr)
{
    TrainerOptions t;
    t.lr = lr;
    t.momentum = opts.momentum;
    t.weightDecay = opts.weightDecay;
    t.distillWeight = opts.distillWeight;
    t.useDistillation = opts.useDistillation;
    t.seed = opts.seed ^ 0xabcdULL;
    return t;
}

SubModelConfig
fpConfig()
{
    SubModelConfig cfg;
    cfg.mode = QuantMode::None;
    return cfg;
}

/** Cumulative projection-cache hit/miss totals from the registry. */
void
projCacheCounts(std::int64_t* hits, std::int64_t* misses)
{
    *hits = 0;
    *misses = 0;
    if (!obs::metricsEnabled())
        return;
    const obs::Snapshot snap = obs::MetricsRegistry::instance().snapshot();
    for (const auto& c : snap.counters) {
        if (c.name == "nn.proj_cache.hits")
            *hits = c.value;
        else if (c.name == "nn.proj_cache.misses")
            *misses = c.value;
    }
}

/**
 * Tune-epoch boundary: sample the cumulative projection-cache hit
 * rate onto a timeline counter track.  Tuning invalidates the cache
 * on every optimizer step, so a near-zero rate here is expected and
 * carries no judgment — the watchdog floor rule only inspects the
 * eval phase (evalCacheHealth), where weights are frozen and
 * projections should hit.
 */
void
epochCacheTrack()
{
    if (!obs::traceExportEnabled())
        return;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    projCacheCounts(&hits, &misses);
    if (hits + misses > 0)
        obs::traceCounterSample("cache.hit_rate",
                                static_cast<double>(hits) /
                                    static_cast<double>(hits + misses));
}

/**
 * Eval-phase cache health: judge the hit rate of the lookups made
 * since (hits_before, misses_before) — captured just before the eval
 * loop — so training-time misses cannot trip the floor.  The counters
 * are integers summed over shards, so the delta — and any alert it
 * triggers — is identical at every MRQ_THREADS.
 */
void
evalCacheHealth(MultiResTrainer& trainer, const char* run,
                std::int64_t hits_before, std::int64_t misses_before)
{
    if (!trainer.watchdog().enabled() && !obs::traceExportEnabled())
        return;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    projCacheCounts(&hits, &misses);
    hits -= hits_before;
    misses -= misses_before;
    trainer.watchdog().checkCacheHitRate(run, trainer.batchIndex(), hits,
                                         misses);
    if (obs::traceExportEnabled() && hits + misses > 0)
        obs::traceCounterSample("cache.hit_rate",
                                static_cast<double>(hits) /
                                    static_cast<double>(hits + misses));
}

/**
 * Eval-boundary nesting-monotonicity check over the evaluated rungs
 * (ladder order is ascending budgets).  batch = -1 marks an
 * eval-boundary alert.
 */
void
checkLadderMonotonicity(MultiResTrainer& trainer, const char* run,
                        const std::vector<SubModelResult>& rungs,
                        bool higher_is_better)
{
    if (!trainer.watchdog().enabled() || rungs.size() < 2)
        return;
    std::vector<std::string> names;
    std::vector<double> metrics;
    names.reserve(rungs.size());
    metrics.reserve(rungs.size());
    for (const SubModelResult& r : rungs) {
        names.push_back(r.config.name());
        metrics.push_back(r.metric);
    }
    trainer.watchdog().checkRungMonotonicity(run, -1, names, metrics,
                                             higher_is_better);
}

} // namespace

// ---------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------

double
evalClassifier(MultiResTrainer& trainer, const SynthImages& data,
               const SubModelConfig& cfg, std::size_t eval_batch,
               std::size_t calibration_batches)
{
    const Tensor& images = data.testImages();
    const std::vector<int>& labels = data.testLabels();
    const std::size_t n = images.dim(0);
    const std::size_t plane = 3 * data.imageSize() * data.imageSize();

    // Re-estimate batch-norm statistics under this configuration.
    const std::size_t train_n = data.trainImages().dim(0);
    const std::size_t calib_batch = 50;
    for (std::size_t b = 0; b < calibration_batches; ++b) {
        const std::size_t base = (b * calib_batch) % train_n;
        const std::size_t len = std::min(calib_batch, train_n - base);
        if (len < 2)
            continue;
        Tensor batch({len, 3, data.imageSize(), data.imageSize()});
        std::copy(data.trainImages().data() + base * plane,
                  data.trainImages().data() + (base + len) * plane,
                  batch.data());
        trainer.calibrate(batch, cfg);
    }

    std::size_t hits = 0;
    for (std::size_t base = 0; base < n; base += eval_batch) {
        const std::size_t len = std::min(eval_batch, n - base);
        Tensor batch({len, 3, data.imageSize(), data.imageSize()});
        std::copy(images.data() + base * plane,
                  images.data() + (base + len) * plane, batch.data());
        Tensor logits = trainer.inferAt(batch, cfg);
        for (std::size_t i = 0; i < len; ++i) {
            std::size_t best = 0;
            for (std::size_t j = 1; j < logits.dim(1); ++j)
                if (logits(i, j) > logits(i, best))
                    best = j;
            hits += best == static_cast<std::size_t>(labels[base + i]);
        }
    }
    return static_cast<double>(hits) / static_cast<double>(n);
}

namespace {

/** Shared classification driver covering all three pipeline modes. */
PipelineResult
classifierPipeline(Sequential& model, const SynthImages& data,
                   const SubModelLadder& ladder,
                   const PipelineOptions& opts, bool multires,
                   const SubModelConfig* single_cfg)
{
    PipelineResult result;
    const char* run = multires ? "classifier.multires"
                      : single_cfg != nullptr ? "classifier.single"
                                              : "classifier.post_training";
    obs::RunScope obs_run(pipelineManifest(run, opts, ladder),
                          opts.verbose);
    MultiResTrainer trainer(model, ladder, trainerOptions(opts, opts.fpLr));
    Batcher batcher(data.trainImages().dim(0), opts.batchSize, opts.seed);
    const std::size_t batches = batcher.batchesPerEpoch();

    auto make_hard = [&](const std::vector<int>& labels) -> HardLossFn {
        return [&labels](const Tensor& out, Tensor* dout) {
            return softmaxCrossEntropy(out, labels, dout);
        };
    };
    SoftLossFn soft = [&opts](const Tensor& s, const Tensor& t,
                              Tensor* ds) {
        return distillationLoss(s, t, opts.distillTemperature, ds);
    };

    // Phase 1: full-precision pretraining.
    for (std::size_t epoch = 0; epoch < opts.fpEpochs; ++epoch) {
        obs::faultInjectionPoint("epoch",
                                 static_cast<std::int64_t>(epoch));
        MRQ_TRACE_SPAN("pipeline.fp_epoch");
        const auto t0 = Clock::now();
        trainer.optimizer().setLr(
            cosineLr(opts.fpLr, static_cast<int>(epoch),
                     static_cast<int>(opts.fpEpochs)));
        double loss = 0.0;
        for (std::size_t b = 0; b < batches; ++b) {
            const auto idx = batcher.next();
            const Tensor input = data.gatherImages(idx);
            const std::vector<int> labels = data.gatherLabels(idx);
            loss += trainer.trainIterationSingle(input, make_hard(labels),
                                                 fpConfig());
        }
        result.fpEpochSeconds += seconds(t0, Clock::now());
        recordEpoch("train.fp.loss", epoch, loss / batches);
        obs::logf("phase=fp epoch=%zu loss=%.4f", epoch, loss / batches);
    }
    if (opts.fpEpochs > 0)
        result.fpEpochSeconds /= static_cast<double>(opts.fpEpochs);
    model.calibrateWeightClips();
    result.fp32Metric = evalClassifier(trainer, data, fpConfig());
    if (obs::metricsEnabled())
        obs::MetricsRegistry::instance().setGauge("train.eval.fp32.metric",
                                                  result.fp32Metric);
    obs::logf("phase=eval rung=fp32 metric=%.4f", result.fp32Metric);

    // Phase 2: fine-tuning (multi-resolution, single config, or none).
    const bool post_training = !multires && single_cfg == nullptr;
    if (!post_training) {
        for (std::size_t epoch = 0; epoch < opts.mrEpochs; ++epoch) {
            obs::faultInjectionPoint("epoch",
                                     static_cast<std::int64_t>(epoch));
            MRQ_TRACE_SPAN("pipeline.tune_epoch");
            const auto t0 = Clock::now();
            trainer.optimizer().setLr(
                cosineLr(opts.mrLr, static_cast<int>(epoch),
                         static_cast<int>(opts.mrEpochs)));
            double loss = 0.0;
            double teacher_loss = 0.0;
            std::vector<double> rung_loss(ladder.size(), 0.0);
            std::vector<std::size_t> rung_count(ladder.size(), 0);
            for (std::size_t b = 0; b < batches; ++b) {
                const auto idx = batcher.next();
                const Tensor input = data.gatherImages(idx);
                const std::vector<int> labels = data.gatherLabels(idx);
                if (multires) {
                    const MultiResTrainer::IterStats st =
                        trainer.trainIteration(input, make_hard(labels),
                                               soft);
                    loss += st.studentLoss;
                    teacher_loss += st.teacherLoss;
                    rung_loss[st.studentIndex] += st.studentLoss;
                    rung_count[st.studentIndex] += 1;
                } else {
                    loss += trainer.trainIterationSingle(
                        input, make_hard(labels), *single_cfg);
                }
            }
            result.mrEpochSeconds += seconds(t0, Clock::now());
            recordEpoch("train.tune.loss", epoch, loss / batches);
            if (multires) {
                recordEpoch("train.tune.teacher_loss", epoch,
                            teacher_loss / batches);
                for (std::size_t r = 0; r < ladder.size(); ++r)
                    if (rung_count[r] > 0)
                        recordEpoch(("train.tune.loss." +
                                     ladder[r].name())
                                        .c_str(),
                                    epoch,
                                    rung_loss[r] /
                                        static_cast<double>(
                                            rung_count[r]));
            }
            obs::logf("phase=tune epoch=%zu loss=%.4f", epoch,
                      loss / batches);
            epochCacheTrack();
        }
        if (opts.mrEpochs > 0)
            result.mrEpochSeconds /= static_cast<double>(opts.mrEpochs);
    }

    // Per-sample MAC count for term-pair accounting.
    Tensor probe({1, 3, data.imageSize(), data.imageSize()});
    std::copy(data.testImages().data(),
              data.testImages().data() + probe.size(), probe.data());
    model.setTraining(false);
    const std::size_t macs = countModelMacs(model, probe);
    model.setTraining(true);
    model.setQuantContext(&trainer.context());

    // Evaluation across the ladder (or the single config).
    std::int64_t eval_hits0 = 0;
    std::int64_t eval_misses0 = 0;
    projCacheCounts(&eval_hits0, &eval_misses0);
    {
        MRQ_TRACE_SPAN("pipeline.eval");
        obs::InspectEvalScope inspect_eval;
        const SubModelLadder eval_set =
            single_cfg != nullptr ? SubModelLadder{*single_cfg} : ladder;

        // Inter-rung agreement probe: the same leading slice of the
        // test set is run through every rung, and each pair of rungs
        // is scored on logit KL + top-1 match.  The probe logits are
        // captured inside the per-rung loop, right after that rung's
        // evaluation, so batch-norm statistics are the ones its eval
        // used.
        Tensor probe_batch;
        std::vector<Tensor> probe_logits;
        if (obs::inspectSampling() && eval_set.size() > 1) {
            const std::size_t pn = std::min<std::size_t>(
                64, data.testImages().dim(0));
            probe_batch =
                Tensor({pn, 3, data.imageSize(), data.imageSize()});
            std::copy(data.testImages().data(),
                      data.testImages().data() + probe_batch.size(),
                      probe_batch.data());
        }

        for (std::size_t i = 0; i < eval_set.size(); ++i) {
            obs::faultInjectionPoint("rung",
                                     static_cast<std::int64_t>(i));
            const SubModelConfig& cfg = eval_set[i];
            SubModelResult r;
            r.config = cfg;
            r.metric = evalClassifier(trainer, data, cfg);
            if (!probe_batch.empty())
                probe_logits.push_back(
                    trainer.inferAt(probe_batch, cfg));
            r.termPairs = termPairCount(macs, cfg);
            recordSubModelEval(i, r);
            obs::logf("phase=eval rung=%s metric=%.4f term_pairs=%zu",
                      cfg.name().c_str(), r.metric, r.termPairs);
            result.subModels.push_back(std::move(r));
        }

        if (probe_logits.size() > 1) {
            obs::QuantInspector& inspector =
                obs::QuantInspector::instance();
            for (std::size_t i = 0; i < probe_logits.size(); ++i)
                for (std::size_t j = i + 1; j < probe_logits.size();
                     ++j) {
                    double kl = 0.0;
                    double top1 = 0.0;
                    logitAgreement(probe_logits[i], probe_logits[j],
                                   &kl, &top1);
                    inspector.recordRungAgreement(
                        run, eval_set[i].name(), eval_set[j].name(),
                        kl, top1,
                        static_cast<std::int64_t>(
                            probe_logits[i].dim(0)));
                }
        }
    }
    evalCacheHealth(trainer, run, eval_hits0, eval_misses0);
    checkLadderMonotonicity(trainer, run, result.subModels, true);
    obs::QuantInspector::instance().feedWatchdog(trainer.watchdog(), -1);
    return result;
}

} // namespace

PipelineResult
runClassifierMultiRes(Sequential& model, const SynthImages& data,
                      const SubModelLadder& ladder,
                      const PipelineOptions& opts)
{
    return classifierPipeline(model, data, ladder, opts, true, nullptr);
}

PipelineResult
runClassifierSingle(Sequential& model, const SynthImages& data,
                    const SubModelConfig& cfg, const PipelineOptions& opts)
{
    // Ladder only feeds the trainer's teacher bookkeeping; a single
    // entry keeps the draw degenerate.
    return classifierPipeline(model, data, {cfg}, opts, false, &cfg);
}

PipelineResult
runClassifierPostTraining(Sequential& model, const SynthImages& data,
                          const SubModelLadder& ladder,
                          const PipelineOptions& opts)
{
    return classifierPipeline(model, data, ladder, opts, false, nullptr);
}

// ---------------------------------------------------------------------
// Language modeling.
// ---------------------------------------------------------------------

double
evalLm(MultiResTrainer& trainer, LstmLm& model, const SynthText& data,
       const SubModelConfig& cfg, std::size_t bptt)
{
    trainer.context().config = cfg;
    return lmPerplexity(model, data.valid(), bptt);
}

namespace {

PipelineResult
lmPipeline(LstmLm& model, const SynthText& data,
           const SubModelLadder& ladder, const PipelineOptions& opts,
           const SubModelConfig* single_cfg)
{
    PipelineResult result;
    const char* run = single_cfg != nullptr ? "lm.single" : "lm.multires";
    obs::RunScope obs_run(pipelineManifest(run, opts, ladder),
                          opts.verbose);
    MultiResTrainer trainer(model, ladder, trainerOptions(opts, opts.fpLr));
    trainer.optimizer().setGradClip(1.0f);

    const std::vector<int>& stream = data.train();
    const std::size_t batch = opts.batchSize;
    const std::size_t col_len = (stream.size() - 1) / batch;
    const std::size_t windows =
        col_len > opts.bptt ? (col_len - 1) / opts.bptt : 0;
    require(windows > 0, "runLmMultiRes: training stream too short");

    std::vector<int> targets(opts.bptt * batch);
    auto make_batch = [&](std::size_t w, Tensor* input) {
        const std::size_t start = w * opts.bptt;
        const std::size_t t_len =
            std::min(opts.bptt, col_len - 1 - start);
        *input = Tensor({t_len, batch});
        targets.resize(t_len * batch);
        for (std::size_t t = 0; t < t_len; ++t)
            for (std::size_t b = 0; b < batch; ++b) {
                const std::size_t pos = b * col_len + start + t;
                (*input)(t, b) = static_cast<float>(stream[pos]);
                targets[t * batch + b] = stream[pos + 1];
            }
    };
    HardLossFn hard = [&targets](const Tensor& out, Tensor* dout) {
        return softmaxCrossEntropy(out, targets, dout);
    };
    SoftLossFn soft = [&opts](const Tensor& s, const Tensor& t,
                              Tensor* ds) {
        return distillationLoss(s, t, opts.distillTemperature, ds);
    };

    // Phase 1: full-precision pretraining.
    for (std::size_t epoch = 0; epoch < opts.fpEpochs; ++epoch) {
        obs::faultInjectionPoint("epoch",
                                 static_cast<std::int64_t>(epoch));
        MRQ_TRACE_SPAN("pipeline.fp_epoch");
        const auto t0 = Clock::now();
        trainer.optimizer().setLr(
            cosineLr(opts.fpLr, static_cast<int>(epoch),
                     static_cast<int>(opts.fpEpochs)));
        double loss = 0.0;
        for (std::size_t w = 0; w < windows; ++w) {
            Tensor input;
            make_batch(w, &input);
            loss += trainer.trainIterationSingle(input, hard, fpConfig());
        }
        result.fpEpochSeconds += seconds(t0, Clock::now());
        recordEpoch("train.fp.loss", epoch, loss / windows);
        obs::logf("phase=fp epoch=%zu loss=%.4f", epoch, loss / windows);
    }
    if (opts.fpEpochs > 0)
        result.fpEpochSeconds /= static_cast<double>(opts.fpEpochs);
    model.calibrateWeightClips();
    result.fp32Metric = evalLm(trainer, model, data, fpConfig(), opts.bptt);
    if (obs::metricsEnabled())
        obs::MetricsRegistry::instance().setGauge("train.eval.fp32.metric",
                                                  result.fp32Metric);
    obs::logf("phase=eval rung=fp32 metric=%.4f", result.fp32Metric);

    // Phase 2: fine-tuning (multi-resolution or single-config).
    for (std::size_t epoch = 0; epoch < opts.mrEpochs; ++epoch) {
        obs::faultInjectionPoint("epoch",
                                 static_cast<std::int64_t>(epoch));
        MRQ_TRACE_SPAN("pipeline.tune_epoch");
        const auto t0 = Clock::now();
        trainer.optimizer().setLr(
            cosineLr(opts.mrLr, static_cast<int>(epoch),
                     static_cast<int>(opts.mrEpochs)));
        double loss = 0.0;
        std::vector<double> rung_loss(ladder.size(), 0.0);
        std::vector<std::size_t> rung_count(ladder.size(), 0);
        for (std::size_t w = 0; w < windows; ++w) {
            Tensor input;
            make_batch(w, &input);
            if (single_cfg) {
                loss += trainer.trainIterationSingle(input, hard,
                                                     *single_cfg);
            } else {
                const MultiResTrainer::IterStats st =
                    trainer.trainIteration(input, hard, soft);
                loss += st.studentLoss;
                rung_loss[st.studentIndex] += st.studentLoss;
                rung_count[st.studentIndex] += 1;
            }
        }
        result.mrEpochSeconds += seconds(t0, Clock::now());
        recordEpoch("train.tune.loss", epoch, loss / windows);
        if (single_cfg == nullptr)
            for (std::size_t r = 0; r < ladder.size(); ++r)
                if (rung_count[r] > 0)
                    recordEpoch(
                        ("train.tune.loss." + ladder[r].name()).c_str(),
                        epoch,
                        rung_loss[r] /
                            static_cast<double>(rung_count[r]));
        obs::logf("phase=tune epoch=%zu loss=%.4f", epoch,
                  loss / windows);
        epochCacheTrack();
    }
    if (opts.mrEpochs > 0)
        result.mrEpochSeconds /= static_cast<double>(opts.mrEpochs);

    // MACs per token.
    Tensor probe({opts.bptt, 1});
    for (std::size_t t = 0; t < opts.bptt; ++t)
        probe(t, 0) = static_cast<float>(data.valid()[t]);
    model.setTraining(false);
    QuantContext macs_ctx;
    macs_ctx.collectStats = true;
    macs_ctx.config.mode = QuantMode::None;
    model.setQuantContext(&macs_ctx);
    model.forward(probe);
    const std::size_t macs_per_token = macs_ctx.macs / opts.bptt;
    model.setTraining(true);
    model.setQuantContext(&trainer.context());

    std::int64_t eval_hits0 = 0;
    std::int64_t eval_misses0 = 0;
    projCacheCounts(&eval_hits0, &eval_misses0);
    {
        MRQ_TRACE_SPAN("pipeline.eval");
        obs::InspectEvalScope inspect_eval;
        const SubModelLadder eval_set =
            single_cfg ? SubModelLadder{*single_cfg} : ladder;
        for (std::size_t i = 0; i < eval_set.size(); ++i) {
            obs::faultInjectionPoint("rung",
                                     static_cast<std::int64_t>(i));
            const SubModelConfig& cfg = eval_set[i];
            SubModelResult r;
            r.config = cfg;
            r.metric = evalLm(trainer, model, data, cfg, opts.bptt);
            r.termPairs = termPairCount(macs_per_token, cfg);
            recordSubModelEval(i, r);
            obs::logf("phase=eval rung=%s metric=%.4f term_pairs=%zu",
                      cfg.name().c_str(), r.metric, r.termPairs);
            result.subModels.push_back(std::move(r));
        }
    }
    evalCacheHealth(trainer, run, eval_hits0, eval_misses0);
    // Perplexity: lower is better.
    checkLadderMonotonicity(trainer, run, result.subModels, false);
    obs::QuantInspector::instance().feedWatchdog(trainer.watchdog(), -1);
    return result;
}

} // namespace

PipelineResult
runLmMultiRes(LstmLm& model, const SynthText& data,
              const SubModelLadder& ladder, const PipelineOptions& opts)
{
    return lmPipeline(model, data, ladder, opts, nullptr);
}

PipelineResult
runLmSingle(LstmLm& model, const SynthText& data,
            const SubModelConfig& cfg, const PipelineOptions& opts)
{
    return lmPipeline(model, data, {cfg}, opts, &cfg);
}

// ---------------------------------------------------------------------
// Detection.
// ---------------------------------------------------------------------

double
evalYolo(MultiResTrainer& trainer, const SynthDetect& data,
         const SubModelConfig& cfg, std::size_t eval_batch)
{
    const Tensor& images = data.testImages();
    const std::size_t n = images.dim(0);
    const std::size_t plane = 3 * data.imageSize() * data.imageSize();

    // Per-configuration batch-norm recalibration (as in the
    // classification pipeline).
    const std::size_t train_n = data.trainImages().dim(0);
    const std::size_t calib_batch = 32;
    for (std::size_t b = 0; b < 10; ++b) {
        const std::size_t base = (b * calib_batch) % train_n;
        const std::size_t len = std::min(calib_batch, train_n - base);
        if (len < 2)
            continue;
        Tensor batch({len, 3, data.imageSize(), data.imageSize()});
        std::copy(data.trainImages().data() + base * plane,
                  data.trainImages().data() + (base + len) * plane,
                  batch.data());
        trainer.calibrate(batch, cfg);
    }

    std::vector<std::vector<DetBox>> predictions;
    predictions.reserve(n);
    for (std::size_t base = 0; base < n; base += eval_batch) {
        const std::size_t len = std::min(eval_batch, n - base);
        Tensor batch({len, 3, data.imageSize(), data.imageSize()});
        std::copy(images.data() + base * plane,
                  images.data() + (base + len) * plane, batch.data());
        Tensor preds = trainer.inferAt(batch, cfg);
        auto decoded = decodeYolo(preds);
        for (auto& boxes : decoded)
            predictions.push_back(std::move(boxes));
    }
    return meanAveragePrecision(predictions, data.testBoxes(),
                                SynthDetect::kNumClasses);
}

namespace {

PipelineResult
yoloPipeline(TinyYolo& model, const SynthDetect& data,
             const SubModelLadder& ladder, const PipelineOptions& opts,
             const SubModelConfig* single_cfg)
{
    PipelineResult result;
    const char* run =
        single_cfg != nullptr ? "yolo.single" : "yolo.multires";
    obs::RunScope obs_run(pipelineManifest(run, opts, ladder),
                          opts.verbose);
    MultiResTrainer trainer(model, ladder, trainerOptions(opts, opts.fpLr));
    Batcher batcher(data.trainImages().dim(0), opts.batchSize, opts.seed);
    const std::size_t batches = batcher.batchesPerEpoch();
    const std::size_t plane = 3 * data.imageSize() * data.imageSize();

    std::vector<std::vector<DetBox>> batch_truth;
    auto make_batch = [&](Tensor* input) {
        const auto idx = batcher.next();
        *input =
            Tensor({idx.size(), 3, data.imageSize(), data.imageSize()});
        batch_truth.clear();
        for (std::size_t i = 0; i < idx.size(); ++i) {
            std::copy(data.trainImages().data() + idx[i] * plane,
                      data.trainImages().data() + (idx[i] + 1) * plane,
                      input->data() + i * plane);
            batch_truth.push_back(data.trainBoxes()[idx[i]]);
        }
    };
    HardLossFn hard = [&batch_truth](const Tensor& out, Tensor* dout) {
        return yoloLoss(out, batch_truth, dout);
    };
    // Detection distillation: match the teacher's raw prediction maps.
    SoftLossFn soft = [](const Tensor& s, const Tensor& t, Tensor* ds) {
        return mseLoss(s, t, ds);
    };

    for (std::size_t epoch = 0; epoch < opts.fpEpochs; ++epoch) {
        obs::faultInjectionPoint("epoch",
                                 static_cast<std::int64_t>(epoch));
        MRQ_TRACE_SPAN("pipeline.fp_epoch");
        const auto t0 = Clock::now();
        trainer.optimizer().setLr(
            cosineLr(opts.fpLr, static_cast<int>(epoch),
                     static_cast<int>(opts.fpEpochs)));
        double loss = 0.0;
        for (std::size_t b = 0; b < batches; ++b) {
            Tensor input;
            make_batch(&input);
            loss += trainer.trainIterationSingle(input, hard, fpConfig());
        }
        result.fpEpochSeconds += seconds(t0, Clock::now());
        recordEpoch("train.fp.loss", epoch, loss / batches);
        obs::logf("phase=fp epoch=%zu loss=%.4f", epoch, loss / batches);
    }
    if (opts.fpEpochs > 0)
        result.fpEpochSeconds /= static_cast<double>(opts.fpEpochs);
    model.calibrateWeightClips();
    result.fp32Metric = evalYolo(trainer, data, fpConfig());
    if (obs::metricsEnabled())
        obs::MetricsRegistry::instance().setGauge("train.eval.fp32.metric",
                                                  result.fp32Metric);
    obs::logf("phase=eval rung=fp32 metric=%.4f", result.fp32Metric);

    for (std::size_t epoch = 0; epoch < opts.mrEpochs; ++epoch) {
        obs::faultInjectionPoint("epoch",
                                 static_cast<std::int64_t>(epoch));
        MRQ_TRACE_SPAN("pipeline.tune_epoch");
        const auto t0 = Clock::now();
        trainer.optimizer().setLr(
            cosineLr(opts.mrLr, static_cast<int>(epoch),
                     static_cast<int>(opts.mrEpochs)));
        double loss = 0.0;
        std::vector<double> rung_loss(ladder.size(), 0.0);
        std::vector<std::size_t> rung_count(ladder.size(), 0);
        for (std::size_t b = 0; b < batches; ++b) {
            Tensor input;
            make_batch(&input);
            if (single_cfg) {
                loss += trainer.trainIterationSingle(input, hard,
                                                     *single_cfg);
            } else {
                const MultiResTrainer::IterStats st =
                    trainer.trainIteration(input, hard, soft);
                loss += st.studentLoss;
                rung_loss[st.studentIndex] += st.studentLoss;
                rung_count[st.studentIndex] += 1;
            }
        }
        result.mrEpochSeconds += seconds(t0, Clock::now());
        recordEpoch("train.tune.loss", epoch, loss / batches);
        if (single_cfg == nullptr)
            for (std::size_t r = 0; r < ladder.size(); ++r)
                if (rung_count[r] > 0)
                    recordEpoch(
                        ("train.tune.loss." + ladder[r].name()).c_str(),
                        epoch,
                        rung_loss[r] /
                            static_cast<double>(rung_count[r]));
        obs::logf("phase=tune epoch=%zu loss=%.4f", epoch,
                  loss / batches);
        epochCacheTrack();
    }
    if (opts.mrEpochs > 0)
        result.mrEpochSeconds /= static_cast<double>(opts.mrEpochs);

    Tensor probe({1, 3, data.imageSize(), data.imageSize()});
    std::copy(data.testImages().data(),
              data.testImages().data() + probe.size(), probe.data());
    model.setTraining(false);
    const std::size_t macs = countModelMacs(model, probe);
    model.setTraining(true);
    model.setQuantContext(&trainer.context());

    std::int64_t eval_hits0 = 0;
    std::int64_t eval_misses0 = 0;
    projCacheCounts(&eval_hits0, &eval_misses0);
    {
        MRQ_TRACE_SPAN("pipeline.eval");
        obs::InspectEvalScope inspect_eval;
        const SubModelLadder eval_set =
            single_cfg ? SubModelLadder{*single_cfg} : ladder;
        for (std::size_t i = 0; i < eval_set.size(); ++i) {
            obs::faultInjectionPoint("rung",
                                     static_cast<std::int64_t>(i));
            const SubModelConfig& cfg = eval_set[i];
            SubModelResult r;
            r.config = cfg;
            r.metric = evalYolo(trainer, data, cfg);
            r.termPairs = termPairCount(macs, cfg);
            recordSubModelEval(i, r);
            obs::logf("phase=eval rung=%s metric=%.4f term_pairs=%zu",
                      cfg.name().c_str(), r.metric, r.termPairs);
            result.subModels.push_back(std::move(r));
        }
    }
    evalCacheHealth(trainer, run, eval_hits0, eval_misses0);
    checkLadderMonotonicity(trainer, run, result.subModels, true);
    obs::QuantInspector::instance().feedWatchdog(trainer.watchdog(), -1);
    return result;
}

} // namespace

PipelineResult
runYoloMultiRes(TinyYolo& model, const SynthDetect& data,
                const SubModelLadder& ladder, const PipelineOptions& opts)
{
    return yoloPipeline(model, data, ladder, opts, nullptr);
}

PipelineResult
runYoloSingle(TinyYolo& model, const SynthDetect& data,
              const SubModelConfig& cfg, const PipelineOptions& opts)
{
    return yoloPipeline(model, data, {cfg}, opts, &cfg);
}

} // namespace mrq
