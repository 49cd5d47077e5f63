#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/multires_trainer.hpp"
#include "core/term_accounting.hpp"
#include "data/batcher.hpp"
#include "data/synth_images.hpp"
#include "data/synth_text.hpp"
#include "hw/deployment.hpp"
#include "hw/system.hpp"
#include "models/blocks.hpp"
#include "models/classifiers.hpp"
#include "models/lstm_lm.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"

namespace perfbench {

using namespace mrq;

namespace {

/** FNV-1a over the exact bytes of the values fed to it. */
class Digest
{
  public:
    void
    bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 1099511628211ULL;
        }
    }
    void f32(float v) { bytes(&v, sizeof v); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void tensor(const Tensor& t) { bytes(t.data(), t.size() * sizeof(float)); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t
hashTensor(const Tensor& t)
{
    Digest d;
    d.tensor(t);
    return d.value();
}

/** Master weights, batch-norm statistics and clips of @p model. */
void
hashParameters(Module& model, Digest* d)
{
    for (const Parameter* p : model.parameters())
        d->tensor(p->value);
}

bool
allFinite(const Tensor& t)
{
    for (std::size_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t[i]))
            return false;
    return true;
}

void
spinFor(std::int64_t ns)
{
    const std::int64_t end = nowNs() + ns;
    while (nowNs() < end) {
    }
}

SubModelConfig
fpConfig()
{
    SubModelConfig cfg;
    cfg.mode = QuantMode::None;
    return cfg;
}

/** The paper's eight (alpha, beta) rungs of Fig. 19. */
SubModelLadder
figure19Ladder()
{
    const std::size_t alphas[8] = {8, 10, 12, 14, 14, 16, 18, 20};
    const std::size_t betas[8] = {2, 2, 2, 2, 3, 3, 3, 3};
    SubModelLadder ladder;
    for (int i = 0; i < 8; ++i) {
        SubModelConfig cfg;
        cfg.mode = QuantMode::Tq;
        cfg.bits = 5;
        cfg.groupSize = 16;
        cfg.alpha = alphas[i];
        cfg.beta = betas[i];
        ladder.push_back(cfg);
    }
    return ladder;
}

/** Span-name slug of a top-level layer, e.g. "conv2d". */
std::string
typeSlug(Module* m)
{
    if (dynamic_cast<PactQuant*>(m) != nullptr)
        return "pact_quant";
    if (dynamic_cast<Conv2d*>(m) != nullptr)
        return "conv2d";
    if (dynamic_cast<BatchNorm2d*>(m) != nullptr)
        return "batchnorm";
    if (dynamic_cast<BasicBlock*>(m) != nullptr)
        return "basic_block";
    if (dynamic_cast<GlobalAvgPool*>(m) != nullptr)
        return "global_avg_pool";
    if (dynamic_cast<Linear*>(m) != nullptr)
        return "linear";
    return "module";
}

int
spanId(Tracer* tracer, const std::string& name)
{
    return tracer != nullptr ? tracer->id(name) : -1;
}

/**
 * Transparent wrapper the traced run hands to the trainer: it runs
 * the wrapped model's top-level layers exactly as Sequential does
 * (or the whole model as one unit when it is not a Sequential),
 * with one span per layer and direction.  With role spans on, each
 * pass also sits under core.teacher.* or core.student.*, chosen by
 * the rung in the trainer's QuantContext.
 */
class TracedModel : public Module
{
  public:
    TracedModel(Module& inner, const std::string& unit_name,
                const WorkloadParams& params, bool role_spans,
                const SubModelConfig& teacher)
        : inner_(inner), seq_(dynamic_cast<Sequential*>(&inner)),
          tracer_(params.tracer), teacher_(teacher),
          delayNs_(params.delayNs)
    {
        if (seq_ != nullptr) {
            for (std::size_t i = 0; i < seq_->size(); ++i)
                addUnit("nn." + std::to_string(i) + "." +
                            typeSlug(seq_->child(i)),
                        params);
        } else {
            addUnit("nn." + unit_name, params);
        }
        if (role_spans) {
            teacherFwd_ = spanId(tracer_, "core.teacher.fwd");
            teacherBwd_ = spanId(tracer_, "core.teacher.bwd");
            studentFwd_ = spanId(tracer_, "core.student.fwd");
            studentBwd_ = spanId(tracer_, "core.student.bwd");
        }
    }

    Tensor
    forward(const Tensor& x) override
    {
        Span role(tracer_, teacherPass() ? teacherFwd_ : studentFwd_);
        if (seq_ == nullptr)
            return runUnit(0, true, [&] { return inner_.forward(x); });
        Tensor cur = x;
        for (std::size_t i = 0; i < units_.size(); ++i)
            cur = runUnit(i, true,
                          [&] { return seq_->child(i)->forward(cur); });
        return cur;
    }

    Tensor
    backward(const Tensor& dy) override
    {
        Span role(tracer_, teacherPass() ? teacherBwd_ : studentBwd_);
        if (seq_ == nullptr)
            return runUnit(0, false, [&] { return inner_.backward(dy); });
        Tensor cur = dy;
        for (std::size_t i = units_.size(); i-- > 0;)
            cur = runUnit(i, false,
                          [&] { return seq_->child(i)->backward(cur); });
        return cur;
    }

    void
    collectParameters(std::vector<Parameter*>& out) override
    {
        inner_.collectParameters(out);
    }

    void
    setTraining(bool training) override
    {
        Module::setTraining(training);
        inner_.setTraining(training);
    }

    void
    setQuantContext(QuantContext* ctx) override
    {
        ctx_ = ctx;
        inner_.setQuantContext(ctx);
    }

    void calibrateWeightClips() override { inner_.calibrateWeightClips(); }

  private:
    struct Unit
    {
        int fwd = -1;
        int bwd = -1;
        bool delayFwd = false;
        bool delayBwd = false;
    };

    void
    addUnit(const std::string& base, const WorkloadParams& params)
    {
        Unit u;
        u.fwd = spanId(tracer_, base + ".fwd");
        u.bwd = spanId(tracer_, base + ".bwd");
        u.delayFwd = params.delaySpan == base + ".fwd";
        u.delayBwd = params.delaySpan == base + ".bwd";
        units_.push_back(u);
    }

    template <typename Fn>
    Tensor
    runUnit(std::size_t i, bool fwd, Fn&& fn)
    {
        const Unit& u = units_[i];
        Span span(tracer_, fwd ? u.fwd : u.bwd);
        if ((fwd ? u.delayFwd : u.delayBwd) && tracer_ != nullptr &&
            tracer_->armed())
            spinFor(delayNs_);
        return fn();
    }

    bool
    teacherPass() const
    {
        return ctx_ != nullptr && ctx_->config == teacher_;
    }

    Module& inner_;
    Sequential* seq_;
    Tracer* tracer_;
    SubModelConfig teacher_;
    std::int64_t delayNs_;
    QuantContext* ctx_ = nullptr;
    std::vector<Unit> units_;
    int teacherFwd_ = -1, teacherBwd_ = -1;
    int studentFwd_ = -1, studentBwd_ = -1;
};

TrainerOptions
trainerOptions(std::uint64_t seed, float lr)
{
    TrainerOptions t;
    t.lr = lr;
    t.distillWeight = 0.3f;
    t.seed = seed ^ 0xabcdULL;
    return t;
}

constexpr float kFpLr = 0.08f;
constexpr float kMrLr = 0.02f;
constexpr float kDistillTemperature = 2.0f;

/**
 * A model driven through MultiResTrainer: owns the model, the traced
 * wrapper (when tracing), the trainer and the loss closures.  Loss
 * calls are timed as core.loss; the caller's targets are read from
 * labels_ at call time.
 */
class TrainedModel
{
  public:
    TrainedModel(std::unique_ptr<Module> model, const std::string& unit,
                 SubModelLadder ladder, const WorkloadParams& params,
                 bool role_spans)
        : model_(std::move(model)), ladder_(std::move(ladder)),
          tracer_(params.tracer)
    {
        if (params.tracer != nullptr)
            traced_ = std::make_unique<TracedModel>(
                *model_, unit, params, role_spans, ladder_.back());
        Module& driven = traced_ ? *traced_ : *model_;
        trainer_ = std::make_unique<MultiResTrainer>(
            driven, ladder_, trainerOptions(params.seed, kFpLr));
        lossId_ = spanId(tracer_, "core.loss");
        hard_ = [this](const Tensor& out, Tensor* dout) {
            Span span(tracer_, lossId_);
            return softmaxCrossEntropy(out, labels_, dout);
        };
        soft_ = [this](const Tensor& s, const Tensor& t, Tensor* ds) {
            Span span(tracer_, lossId_);
            return distillationLoss(s, t, kDistillTemperature, ds);
        };
    }

    // The loss closures and the trainer hold this object's address.
    TrainedModel(const TrainedModel&) = delete;
    TrainedModel& operator=(const TrainedModel&) = delete;

    float
    fpStep(const Tensor& input)
    {
        return trainer_->trainIterationSingle(input, hard_, fpConfig());
    }

    /** End of the full-precision phase: clip calibration (Sec. 6). */
    void
    beginMultiRes()
    {
        model_->calibrateWeightClips();
        trainer_->optimizer().setLr(kMrLr);
    }

    MultiResTrainer::IterStats
    mrStep(const Tensor& input)
    {
        return trainer_->trainIteration(input, hard_, soft_);
    }

    /** MACs per probe row along @p batch_dim; leaves the model wired
     *  back to the trainer in training mode. */
    double
    macsPerSample(const Tensor& probe, std::size_t batch_dim)
    {
        model_->setTraining(false);
        const std::size_t macs = countModelMacs(*model_, probe, batch_dim);
        model_->setTraining(true);
        model_->setQuantContext(&trainer_->context());
        return static_cast<double>(macs);
    }

    Module& model() { return *model_; }
    MultiResTrainer& trainer() { return *trainer_; }
    const SubModelLadder& ladder() const { return ladder_; }
    std::vector<int>& labels() { return labels_; }

  private:
    std::unique_ptr<Module> model_;
    SubModelLadder ladder_;
    Tracer* tracer_;
    std::unique_ptr<TracedModel> traced_;
    std::unique_ptr<MultiResTrainer> trainer_;
    std::vector<int> labels_;
    HardLossFn hard_;
    SoftLossFn soft_;
    int lossId_ = -1;
};

/** The SynthImages workload every ResNet/mMAC workload draws from. */
SynthImages
makeImages(const WorkloadParams& p, std::size_t train, std::size_t test)
{
    return SynthImages(train, test, p.seed, /*size=*/12, /*classes=*/16,
                       /*noise=*/0.35);
}

/** Copy test images [first, first + n) into a batch tensor. */
Tensor
testSlice(const SynthImages& data, std::size_t first, std::size_t n)
{
    const std::size_t side = data.imageSize();
    const std::size_t plane = 3 * side * side;
    Tensor batch({n, 3, side, side});
    std::copy(data.testImages().data() + first * plane,
              data.testImages().data() + (first + n) * plane,
              batch.data());
    return batch;
}

// ---------------------------------------------------------------------
// resnet_tq_train / resnet_tq_eval
// ---------------------------------------------------------------------

/** resnet-tiny on SynthImages, FP-tuned and clip-calibrated. */
class ResnetBase : public Workload
{
  protected:
    ResnetBase(const WorkloadParams& p, bool role_spans,
               std::size_t fp_steps, std::size_t mr_steps)
        : params_(p), data_(makeImages(p, p.smoke ? 100 : 1200,
                                       p.smoke ? 40 : 400)),
          batch_(p.smoke ? 10 : 50),
          net_(makeModel(p), "resnet", figure19Ladder(), p, role_spans),
          batcher_(data_.trainImages().dim(0), batch_, p.seed ^ 0xba7cULL)
    {
        dataId_ = spanId(p.tracer, "data.batch");
        for (std::size_t s = 0; s < fp_steps; ++s) {
            nextBatch();
            net_.fpStep(input_);
        }
        net_.beginMultiRes();
        for (std::size_t s = 0; s < mr_steps; ++s) {
            nextBatch();
            last_ = net_.mrStep(input_);
        }
    }

    static std::unique_ptr<Module>
    makeModel(const WorkloadParams& p)
    {
        Rng rng(p.seed * 0x9e3779b97f4a7c15ULL + 1);
        return buildResNetTiny(rng, 16);
    }

    void
    nextBatch()
    {
        Span span(params_.tracer, dataId_);
        const std::vector<std::size_t> idx = batcher_.next();
        input_ = data_.gatherImages(idx);
        net_.labels() = data_.gatherLabels(idx);
    }

  public:
    std::map<std::string, double>
    layerValues() override
    {
        const Tensor probe = testSlice(data_, 0, 1);
        return {{"core.macs_per_sample", net_.macsPerSample(probe, 0)}};
    }

  protected:

    WorkloadParams params_;
    SynthImages data_;
    std::size_t batch_;
    TrainedModel net_;
    Batcher batcher_;
    Tensor input_;
    MultiResTrainer::IterStats last_;
    int dataId_ = -1;
};

/** Algorithm-1 training steps on resnet-tiny over the Fig. 19 ladder. */
class ResnetTrain : public ResnetBase
{
  public:
    explicit ResnetTrain(const WorkloadParams& p)
        : ResnetBase(p, /*role_spans=*/true, /*fp_steps=*/p.smoke ? 2 : 12,
                     /*mr_steps=*/p.smoke ? 2 : 4)
    {
        trainerId_ = spanId(p.tracer, "core.trainer");
    }

    std::size_t samplesPerStep() const override { return batch_; }
    std::size_t rotation() const override { return 8; }

    void
    step(std::size_t) override
    {
        nextBatch();
        Span span(params_.tracer, trainerId_);
        last_ = net_.mrStep(input_);
    }

    bool
    check(std::size_t, std::string* why) override
    {
        if (std::isfinite(last_.teacherLoss) &&
            std::isfinite(last_.studentLoss))
            return true;
        *why = "non-finite loss";
        return false;
    }

    void
    corruptLastOutput() override
    {
        last_.studentLoss = std::nanf("");
    }

    std::uint64_t
    digest() override
    {
        Digest d;
        hashParameters(net_.model(), &d);
        d.f32(last_.teacherLoss);
        d.f32(last_.studentLoss);
        d.u64(last_.studentIndex);
        return d.value();
    }

  private:
    int trainerId_ = -1;
};

/**
 * Frozen-weight eval: each step is one inferAt over a test batch at
 * the next rung of the eight-rung rotation.  Rung r always sees test
 * batch r mod 4, so every revisit of a rung must reproduce its logits
 * bit for bit.
 */
class ResnetEval : public ResnetBase
{
  public:
    explicit ResnetEval(const WorkloadParams& p)
        : ResnetBase(p, /*role_spans=*/false, /*fp_steps=*/p.smoke ? 2 : 6,
                     /*mr_steps=*/2),
          evalBatch_(p.smoke ? 10 : 100)
    {
        const SubModelLadder& ladder = net_.ladder();
        for (const SubModelConfig& cfg : ladder)
            rungIds_.push_back(
                spanId(p.tracer, "core.rung." + cfg.name() + ".fwd"));
        // Warm-up: one full rotation fills every rung's projection
        // cache and records the reference logits of each rung.
        refHash_.resize(ladder.size());
        top1_.assign(ladder.size(), 0);
        for (std::size_t i = 0; i < ladder.size(); ++i) {
            runStep(i);
            refHash_[i] = hashTensor(logits_);
        }
        std::fill(top1_.begin(), top1_.end(), 0);
        logitDigest_ = Digest();
    }

    std::size_t samplesPerStep() const override { return evalBatch_; }
    std::size_t rotation() const override { return net_.ladder().size(); }

    void step(std::size_t i) override { runStep(i); }

    bool
    check(std::size_t i, std::string* why) override
    {
        const std::size_t rung = i % net_.ladder().size();
        const std::vector<int>& labels = data_.testLabels();
        const std::size_t first = batchIndex(i) * evalBatch_;
        std::size_t hits = 0;
        for (std::size_t r = 0; r < logits_.dim(0); ++r) {
            std::size_t best = 0;
            for (std::size_t c = 1; c < logits_.dim(1); ++c)
                if (logits_(r, c) > logits_(r, best))
                    best = c;
            hits += static_cast<int>(best) == labels[first + r];
        }
        top1_[rung] += hits;
        const std::uint64_t h = hashTensor(logits_);
        logitDigest_.u64(h);
        if (!allFinite(logits_)) {
            *why = "non-finite logits";
            return false;
        }
        if (h != refHash_[rung]) {
            *why = "logits of rung " + net_.ladder()[rung].name() +
                   " differ from its first visit";
            return false;
        }
        return true;
    }

    void corruptLastOutput() override { logits_[0] += 1.0f; }

    std::uint64_t
    digest() override
    {
        Digest d;
        d.u64(logitDigest_.value());
        for (std::size_t hits : top1_)
            d.u64(hits);
        return d.value();
    }

  private:
    std::size_t
    batchIndex(std::size_t i) const
    {
        return i % (data_.testImages().dim(0) / evalBatch_);
    }

    void
    runStep(std::size_t i)
    {
        const std::size_t rung = i % net_.ladder().size();
        {
            Span span(params_.tracer, dataId_);
            evalInput_ =
                testSlice(data_, batchIndex(i) * evalBatch_, evalBatch_);
        }
        Span span(params_.tracer, rungIds_[rung]);
        logits_ = net_.trainer().inferAt(evalInput_, net_.ladder()[rung]);
    }

    std::size_t evalBatch_;
    std::vector<int> rungIds_;
    std::vector<std::uint64_t> refHash_;
    std::vector<std::size_t> top1_;
    Digest logitDigest_;
    Tensor evalInput_;
    Tensor logits_;
};

// ---------------------------------------------------------------------
// lstm_uq_train
// ---------------------------------------------------------------------

/** Algorithm-1 on the 2-layer LSTM LM over the UQ-sharing ladder. */
class LstmTrain : public Workload
{
  public:
    static constexpr std::size_t kT = 16;
    static constexpr std::size_t kN = 8;

    explicit LstmTrain(const WorkloadParams& p)
        : params_(p), windows_(p.smoke ? 8 : 64),
          text_(32, kN * (kT * windows_ + 1) + 1, 256, p.seed),
          net_(makeModel(p), "lstm_lm", makeUqLadder(5, 2, 16), p, true)
    {
        dataId_ = spanId(p.tracer, "data.batch");
        trainerId_ = spanId(p.tracer, "core.trainer");
        net_.trainer().optimizer().setGradClip(1.0f);
        for (std::size_t s = 0; s < (p.smoke ? 2u : 16u); ++s) {
            nextWindow();
            net_.fpStep(input_);
        }
        net_.beginMultiRes();
        for (std::size_t s = 0; s < (p.smoke ? 2u : 8u); ++s) {
            nextWindow();
            last_ = net_.mrStep(input_);
        }
    }

    std::size_t samplesPerStep() const override { return kT * kN; }
    std::size_t rotation() const override { return 8; }

    void
    step(std::size_t) override
    {
        nextWindow();
        Span span(params_.tracer, trainerId_);
        last_ = net_.mrStep(input_);
    }

    bool
    check(std::size_t, std::string* why) override
    {
        if (std::isfinite(last_.teacherLoss) &&
            std::isfinite(last_.studentLoss))
            return true;
        *why = "non-finite loss";
        return false;
    }

    void
    corruptLastOutput() override
    {
        last_.studentLoss = std::nanf("");
    }

    std::uint64_t
    digest() override
    {
        Digest d;
        hashParameters(net_.model(), &d);
        d.f32(last_.teacherLoss);
        d.f32(last_.studentLoss);
        d.u64(last_.studentIndex);
        return d.value();
    }

    std::map<std::string, double>
    layerValues() override
    {
        Tensor probe({kT, 1});
        for (std::size_t t = 0; t < kT; ++t)
            probe(t, 0) = static_cast<float>(text_.valid()[t]);
        return {{"core.macs_per_sample", net_.macsPerSample(probe, 0)}};
    }

  private:
    static std::unique_ptr<Module>
    makeModel(const WorkloadParams& p)
    {
        Rng rng(p.seed * 0x9e3779b97f4a7c15ULL + 2);
        return std::make_unique<LstmLm>(32, 24, 48, 0.2f, rng);
    }

    /** Next [T, N] window of the column-split token stream. */
    void
    nextWindow()
    {
        Span span(params_.tracer, dataId_);
        const std::vector<int>& stream = text_.train();
        const std::size_t col_len = (stream.size() - 1) / kN;
        const std::size_t start = (cursor_++ % windows_) * kT;
        input_ = Tensor({kT, kN});
        std::vector<int>& targets = net_.labels();
        targets.resize(kT * kN);
        for (std::size_t t = 0; t < kT; ++t)
            for (std::size_t b = 0; b < kN; ++b) {
                const std::size_t pos = b * col_len + start + t;
                input_(t, b) = static_cast<float>(stream[pos]);
                targets[t * kN + b] = stream[pos + 1];
            }
    }

    WorkloadParams params_;
    std::size_t windows_;
    SynthText text_;
    TrainedModel net_;
    Tensor input_;
    std::size_t cursor_ = 0;
    MultiResTrainer::IterStats last_;
    int dataId_ = -1;
    int trainerId_ = -1;
};

// ---------------------------------------------------------------------
// mmac_hw_sweep
// ---------------------------------------------------------------------

/** The plain 3-conv CNN of examples/hw_inference.cpp. */
std::unique_ptr<Module>
buildDeployableCnn(Rng& rng, std::size_t classes)
{
    auto net = std::make_unique<Sequential>();
    net->emplace<PactQuant>(1.0f);
    net->emplace<Conv2d>(3, 8, 3, 1, 1, rng);
    net->emplace<BatchNorm2d>(8);
    net->emplace<PactQuant>();
    net->emplace<Conv2d>(8, 16, 3, 2, 1, rng);
    net->emplace<BatchNorm2d>(16);
    net->emplace<PactQuant>();
    net->emplace<Conv2d>(16, 32, 3, 2, 1, rng);
    net->emplace<BatchNorm2d>(32);
    net->emplace<PactQuant>();
    net->emplace<GlobalAvgPool>();
    net->emplace<PactQuant>(1.0f);
    net->emplace<Linear>(32, classes, rng, true);
    return net;
}

/**
 * mMAC systolic simulation of a packed deployment image: one engine
 * per rung, each step one forward of a test batch at the next rung.
 * Step i runs rung i mod 4 on batch i mod 5, so the rotation of 20
 * steps covers every (rung, batch) pair; each revisit must repeat its
 * simulated counts exactly and every output must match the
 * training-side inferAt at the same rung.
 */
class HwSweep : public Workload
{
  public:
    explicit HwSweep(const WorkloadParams& p)
        : params_(p), data_(makeImages(p, p.smoke ? 100 : 400,
                                       p.smoke ? 20 : 100)),
          batch_(p.smoke ? 4 : 20),
          net_(makeModel(p), "cnn", makeTqLadder(4, 20, 4, 3, 2, 5, 16), p,
               false)
    {
        dataId_ = spanId(p.tracer, "data.batch");
        const SubModelLadder& ladder = net_.ladder();
        Batcher batcher(data_.trainImages().dim(0), p.smoke ? 10 : 50,
                        p.seed ^ 0xba7cULL);
        for (std::size_t s = 0; s < (p.smoke ? 2u : 16u); ++s) {
            const std::vector<std::size_t> idx = batcher.next();
            net_.labels() = data_.gatherLabels(idx);
            net_.fpStep(data_.gatherImages(idx));
        }
        net_.beginMultiRes();

        std::vector<std::size_t> alphas;
        for (const SubModelConfig& cfg : ladder)
            alphas.push_back(cfg.alpha);
        auto& seq = static_cast<Sequential&>(net_.model());
        const std::int64_t t0 = nowNs();
        const DeploymentImage built =
            DeploymentImage::build(seq, 5, 16, alphas);
        const std::int64_t t1 = nowNs();
        const std::string path = p.workDir + "/mmac_image_" +
                                 std::to_string(p.seed) + ".bin";
        built.save(path);
        const std::int64_t t2 = nowNs();
        image_ = DeploymentImage::load(path);
        const std::int64_t t3 = nowNs();
        std::remove(path.c_str());
        imageBuildMs_ = static_cast<double>(t1 - t0) / 1e6;
        imageLoadMs_ = static_cast<double>(t3 - t2) / 1e6;

        // Training-side references, before any engine forward detaches
        // the model from the trainer's context.
        for (std::size_t pair = 0; pair < rotation(); ++pair) {
            reference_.push_back(net_.trainer().inferAt(
                testSlice(data_, batchIndex(pair) * batch_, batch_),
                ladder[pair % ladder.size()]));
        }
        for (const SubModelConfig& cfg : ladder) {
            engines_.push_back(std::make_unique<HwInferenceEngine>(
                seq, cfg, SystolicArrayConfig{16, 16, 150.0}));
            engines_.back()->attachImage(image_);
            forwardIds_.push_back(
                spanId(p.tracer, "hw." + cfg.name() + ".forward"));
        }
        rungs_.assign(ladder.size(), RungTotals{});
        pairCounts_.assign(rotation(), PairCounts{});
        // Warm-up: one forward per rung.
        for (std::size_t i = 0; i < ladder.size(); ++i)
            step(i);
        rungs_.assign(ladder.size(), RungTotals{});
    }

    std::size_t samplesPerStep() const override { return batch_; }
    std::size_t rotation() const override { return 20; }

    void
    step(std::size_t i) override
    {
        const std::size_t pair = i % rotation();
        const std::size_t rung = pair % engines_.size();
        {
            Span span(params_.tracer, dataId_);
            input_ = testSlice(data_, batchIndex(pair) * batch_, batch_);
        }
        HwInferenceEngine& engine = *engines_[rung];
        const HwReport before = engine.report();
        const std::int64_t t0 = nowNs();
        {
            Span span(params_.tracer, forwardIds_[rung]);
            logits_ = engine.forward(input_);
        }
        const std::int64_t t1 = nowNs();
        const HwReport after = engine.report();
        lastCycles_ = after.systolic.cycles - before.systolic.cycles;
        lastMem_ = memEntries(after) - memEntries(before);
        RungTotals& r = rungs_[rung];
        r.cycles += lastCycles_;
        r.mem += lastMem_;
        r.samples += batch_;
        r.hostNs += t1 - t0;
    }

    bool
    check(std::size_t i, std::string* why) override
    {
        const std::size_t pair = i % rotation();
        digest_.tensor(logits_);
        digest_.u64(lastCycles_);
        digest_.u64(lastMem_);
        const Tensor& ref = reference_[pair];
        if (!logits_.sameShape(ref)) {
            *why = "logit shape differs from inferAt";
            return false;
        }
        // A quantizer rounds a value that lies on its rounding boundary
        // either way, so the float training pipeline and the integer
        // systolic one can put one activation of an image one lattice
        // level apart, which shifts that image's logits.  Such images
        // are rare; a wrong weight or rung would move every image.
        const std::size_t images = ref.dim(0);
        const std::size_t classes = ref.size() / images;
        std::size_t off = 0;
        for (std::size_t im = 0; im < images; ++im)
            for (std::size_t c = 0; c < classes; ++c) {
                const std::size_t k = im * classes + c;
                if (!(std::fabs(logits_[k] - ref[k]) <=
                      1e-3f * (1.0f + std::fabs(ref[k])))) {
                    ++off;
                    break;
                }
            }
        if (off * 10 > images) {
            *why = "hw logits of " + std::to_string(off) + " of " +
                   std::to_string(images) +
                   " images differ from inferAt beyond rounding";
            return false;
        }
        PairCounts& seen = pairCounts_[pair];
        if (!seen.set) {
            seen = PairCounts{true, lastCycles_, lastMem_};
        } else if (seen.cycles != lastCycles_ || seen.mem != lastMem_) {
            *why = "simulated counts of a repeated input changed";
            return false;
        }
        return true;
    }

    /** Shifts every image's logits: the check tolerates a rare image
     *  off by one activation level, not a damaged batch. */
    void
    corruptLastOutput() override
    {
        for (std::size_t k = 0; k < logits_.size(); ++k)
            logits_[k] += 1.0f;
    }

    std::uint64_t digest() override { return digest_.value(); }

    std::map<std::string, double>
    layerValues() override
    {
        std::map<std::string, double> out;
        std::uint64_t cycles = 0;
        std::int64_t host_ns = 0;
        for (std::size_t r = 0; r < rungs_.size(); ++r) {
            const RungTotals& t = rungs_[r];
            const std::string base = "hw." + net_.ladder()[r].name();
            const double n = static_cast<double>(std::max<std::size_t>(
                1, t.samples));
            out[base + ".sim_cycles_per_sample"] =
                static_cast<double>(t.cycles) / n;
            out[base + ".mem_entries_per_sample"] =
                static_cast<double>(t.mem) / n;
            cycles += t.cycles;
            host_ns += t.hostNs;
        }
        out["hw.host_ns_per_sim_cycle"] =
            cycles > 0 ? static_cast<double>(host_ns) /
                             static_cast<double>(cycles)
                       : 0.0;
        out["hw.image_build_ms"] = imageBuildMs_;
        out["hw.image_load_ms"] = imageLoadMs_;
        const Tensor probe = testSlice(data_, 0, 1);
        out["core.macs_per_sample"] = net_.macsPerSample(probe, 0);
        return out;
    }

  private:
    struct RungTotals
    {
        std::uint64_t cycles = 0;
        std::uint64_t mem = 0;
        std::size_t samples = 0;
        std::int64_t hostNs = 0;
    };
    struct PairCounts
    {
        bool set = false;
        std::uint64_t cycles = 0;
        std::uint64_t mem = 0;
    };

    static std::unique_ptr<Module>
    makeModel(const WorkloadParams& p)
    {
        Rng rng(p.seed * 0x9e3779b97f4a7c15ULL + 3);
        return buildDeployableCnn(rng, 16);
    }

    static std::uint64_t
    memEntries(const HwReport& r)
    {
        return r.termMemEntries + r.indexMemEntries + r.dataMemEntries;
    }

    std::size_t
    batchIndex(std::size_t pair) const
    {
        return pair % (data_.testImages().dim(0) / batch_);
    }

    WorkloadParams params_;
    SynthImages data_;
    std::size_t batch_;
    TrainedModel net_;
    DeploymentImage image_;
    std::vector<std::unique_ptr<HwInferenceEngine>> engines_;
    std::vector<Tensor> reference_;
    std::vector<int> forwardIds_;
    std::vector<RungTotals> rungs_;
    std::vector<PairCounts> pairCounts_;
    Digest digest_;
    Tensor input_;
    Tensor logits_;
    std::uint64_t lastCycles_ = 0;
    std::uint64_t lastMem_ = 0;
    double imageBuildMs_ = 0.0;
    double imageLoadMs_ = 0.0;
    int dataId_ = -1;
};

} // namespace

std::size_t
workloadThreads(const std::string& name, std::size_t nproc)
{
    std::size_t want = 1;
    if (name == "resnet_tq_train")
        want = 4;
    else if (name == "lstm_uq_train")
        want = 2;
    return std::max<std::size_t>(1, std::min(want, nproc));
}

std::size_t
workloadStepGroup(const std::string& name)
{
    return name == "lstm_uq_train" ? 4 : 1;
}

double
workloadStepsPerSecond(const std::string& name)
{
    if (name == "resnet_tq_train")
        return 12.0;
    if (name == "resnet_tq_eval")
        return 15.0;
    if (name == "lstm_uq_train")
        return 60.0;
    if (name == "mmac_hw_sweep")
        return 12.0;
    throw std::invalid_argument("unknown workload: " + name);
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, const WorkloadParams& params)
{
    if (name == "resnet_tq_train")
        return std::make_unique<ResnetTrain>(params);
    if (name == "resnet_tq_eval")
        return std::make_unique<ResnetEval>(params);
    if (name == "lstm_uq_train")
        return std::make_unique<LstmTrain>(params);
    if (name == "mmac_hw_sweep")
        return std::make_unique<HwSweep>(params);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace perfbench
