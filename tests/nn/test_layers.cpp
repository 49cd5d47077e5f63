/**
 * @file
 * Gradient checks and behavioural tests for the basic layers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "obs/heap_profiler.hpp"
#include "runtime/thread_pool.hpp"

#include "gradcheck.hpp"

namespace mrq {
namespace {

using testing::checkModuleGradients;
using testing::randomTensor;

TEST(Linear, ForwardKnownValues)
{
    Rng rng(1);
    Linear lin(2, 2, rng, true);
    lin.weight().value = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
    lin.bias().value = Tensor({2}, std::vector<float>{10, 20});
    Tensor x({1, 2}, std::vector<float>{1, 1});
    Tensor y = lin.forward(x);
    EXPECT_FLOAT_EQ(y(0, 0), 13.0f);
    EXPECT_FLOAT_EQ(y(0, 1), 27.0f);
}

TEST(Linear, GradCheck)
{
    Rng rng(2);
    Linear lin(5, 4, rng, true);
    checkModuleGradients(lin, randomTensor({3, 5}, rng), 11);
}

TEST(Linear, GradCheckNoBias)
{
    Rng rng(3);
    Linear lin(6, 3, rng, false);
    checkModuleGradients(lin, randomTensor({2, 6}, rng), 12);
}

TEST(Linear, RejectsWrongWidth)
{
    Rng rng(4);
    Linear lin(5, 4, rng);
    EXPECT_THROW(lin.forward(Tensor({2, 6})), FatalError);
}

TEST(Conv2d, OutputShape)
{
    Rng rng(5);
    Conv2d conv(3, 8, 3, 2, 1, rng);
    Tensor y = conv.forward(Tensor({2, 3, 8, 8}));
    EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 4, 4}));
}

TEST(Conv2d, IdentityKernelPassesThrough)
{
    Rng rng(6);
    Conv2d conv(1, 1, 1, 1, 0, rng);
    conv.weight().value = Tensor({1, 1}, std::vector<float>{1.0f});
    Tensor x = randomTensor({1, 1, 4, 4}, rng);
    Tensor y = conv.forward(x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, GradCheck)
{
    Rng rng(7);
    Conv2d conv(2, 3, 3, 1, 1, rng, true);
    checkModuleGradients(conv, randomTensor({2, 2, 5, 5}, rng), 13);
}

TEST(Conv2d, GradCheckStride2)
{
    Rng rng(8);
    Conv2d conv(2, 4, 3, 2, 1, rng);
    checkModuleGradients(conv, randomTensor({1, 2, 6, 6}, rng), 14);
}

TEST(Conv2d, EvalAndTrainingForwardsMatchBitwise)
{
    Rng rng(30);
    Conv2d conv(3, 5, 3, 2, 1, rng, true);
    std::vector<Parameter*> params;
    conv.collectParameters(params);
    params[1]->value = randomTensor({5}, rng);
    const Tensor x = randomTensor({4, 3, 9, 7}, rng);
    conv.setTraining(true);
    const Tensor train = conv.forward(x);
    conv.setTraining(false);
    const Tensor eval = conv.forward(x);
    ASSERT_EQ(train.shape(), eval.shape());
    EXPECT_EQ(std::memcmp(train.data(), eval.data(),
                          train.size() * sizeof(float)),
              0);
}

TEST(Conv2d, BackwardUsesTheLatestForwardsInput)
{
    // A forward at batch 4 followed by one at batch 2: backward
    // follows the cached batch-2 input, exactly as a layer that only
    // saw the second forward.
    Rng init_a(31), init_b(31);
    Conv2d conv(2, 3, 3, 2, 1, init_a);
    Conv2d fresh(2, 3, 3, 2, 1, init_b);
    Rng rng(32);
    const Tensor x4 = randomTensor({4, 2, 6, 5}, rng);
    const Tensor x2 = randomTensor({2, 2, 6, 5}, rng);
    const Tensor dy2 = randomTensor({2, 3, 3, 3}, rng);
    conv.forward(x4);
    conv.forward(x2);
    fresh.forward(x2);
    const Tensor dx = conv.backward(dy2);
    const Tensor want = fresh.backward(dy2);
    ASSERT_EQ(dx.shape(), x2.shape());
    EXPECT_EQ(dx.flat(), want.flat());
    EXPECT_EQ(conv.weight().grad.flat(), fresh.weight().grad.flat());
    // A gradient shaped for the earlier batch no longer fits.
    EXPECT_THROW(conv.backward(randomTensor({4, 3, 3, 3}, rng)),
                 FatalError);
}

TEST(Conv2d, BackwardBeforeForwardFails)
{
    Rng rng(33);
    Conv2d conv(2, 3, 3, 1, 1, rng);
    try {
        conv.backward(Tensor({1, 3, 4, 4}));
        FAIL() << "backward before forward did not throw";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("backward before forward"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Conv2d, SteadyStateStepAllocatesOnlyItsOutputs)
{
    // After one warm-up step, a forward and backward at the same shape
    // allocate y, dX and the STE weight gradient (each one shape and
    // one data buffer) and nothing else: the padded input, the padded
    // and channel-minor dY, the packed weights and the raw dW live in
    // the layer across steps.
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    struct Geometry
    {
        std::size_t kernel, stride, pad, side;
    };
    const std::size_t saved_threads = ThreadPool::instance().threadCount();
    for (std::size_t threads : {1u, 4u})
        for (const Geometry& g : {Geometry{3, 1, 1, 12},
                                  Geometry{3, 2, 1, 12},
                                  Geometry{1, 2, 0, 6}}) {
            ThreadPool::instance().resize(threads);
            Rng rng(41);
            Conv2d conv(8, 16, g.kernel, g.stride, g.pad, rng, true);
            const Tensor x = randomTensor({6, 8, g.side, g.side}, rng);
            const std::size_t out =
                convOutSize(g.side, g.kernel, g.stride, g.pad);
            const Tensor dy = randomTensor({6, 16, out, out}, rng);
            conv.forward(x);
            conv.backward(dy);

            ASSERT_TRUE(obs::startHeapProfiler(std::int64_t{1} << 30));
            obs::resetHeapProfile();
            {
                const Tensor y = conv.forward(x);
                const Tensor dx = conv.backward(dy);
            }
            const obs::HeapStats stats = obs::heapStatsSnapshot();
            obs::stopHeapProfiler();
            obs::resetHeapProfile();
            const std::size_t floats =
                dy.size() + x.size() + conv.weight().value.size();
            const std::string where =
                "k=" + std::to_string(g.kernel) +
                " s=" + std::to_string(g.stride) +
                " threads=" + std::to_string(threads);
            EXPECT_EQ(stats.allocCount, 6) << where;
            EXPECT_LT(stats.allocBytes,
                      static_cast<std::int64_t>(floats * sizeof(float) +
                                                1024))
                << where;
        }
    ThreadPool::instance().resize(saved_threads);
}

TEST(DepthwiseConv2d, PreservesChannelCount)
{
    Rng rng(9);
    DepthwiseConv2d conv(4, 3, 1, 1, rng);
    Tensor y = conv.forward(Tensor({1, 4, 6, 6}));
    EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 4, 6, 6}));
}

TEST(DepthwiseConv2d, MatchesGroupedDirectComputation)
{
    // A depthwise conv on 1 channel equals a standard conv on that
    // channel with the same kernel.
    Rng rng(10);
    DepthwiseConv2d dw(1, 3, 1, 1, rng);
    Conv2d conv(1, 1, 3, 1, 1, rng);
    conv.weight().value =
        dw.weight().value.reshaped({1, 9});
    Tensor x = randomTensor({2, 1, 5, 5}, rng);
    Tensor a = dw.forward(x);
    Tensor b = conv.forward(x);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-5f);
}

TEST(DepthwiseConv2d, GradCheck)
{
    Rng rng(11);
    DepthwiseConv2d conv(3, 3, 1, 1, rng);
    checkModuleGradients(conv, randomTensor({2, 3, 5, 5}, rng), 15);
}

TEST(DepthwiseConv2d, GradCheckStride2)
{
    Rng rng(12);
    DepthwiseConv2d conv(2, 3, 2, 1, rng);
    checkModuleGradients(conv, randomTensor({1, 2, 6, 6}, rng), 16);
}

TEST(BatchNorm2d, NormalizesTrainingBatch)
{
    Rng rng(13);
    BatchNorm2d bn(2);
    Tensor x = randomTensor({4, 2, 3, 3}, rng, 5.0f);
    Tensor y = bn.forward(x);
    // Per channel: mean ~0, var ~1.
    for (std::size_t c = 0; c < 2; ++c) {
        double sum = 0.0, sumsq = 0.0;
        std::size_t count = 0;
        for (std::size_t n = 0; n < 4; ++n)
            for (std::size_t i = 0; i < 3; ++i)
                for (std::size_t j = 0; j < 3; ++j) {
                    const float v = y(n, c, i, j);
                    sum += v;
                    sumsq += v * v;
                    ++count;
                }
        EXPECT_NEAR(sum / count, 0.0, 1e-4);
        EXPECT_NEAR(sumsq / count, 1.0, 1e-2);
    }
}

TEST(BatchNorm2d, GradCheckTraining)
{
    Rng rng(14);
    BatchNorm2d bn(3);
    // Nudge gamma/beta off their init so the test is non-trivial.
    bn.gamma().value[1] = 1.5f;
    bn.beta().value[2] = -0.3f;
    checkModuleGradients(bn, randomTensor({3, 3, 2, 2}, rng), 17, 1e-2f,
                         4e-2);
}

TEST(BatchNorm2d, GradCheckEval)
{
    Rng rng(15);
    BatchNorm2d bn(2);
    // Populate running stats with a few training passes.
    for (int i = 0; i < 5; ++i)
        bn.forward(randomTensor({4, 2, 3, 3}, rng, 2.0f));
    bn.setTraining(false);
    checkModuleGradients(bn, randomTensor({2, 2, 3, 3}, rng), 18);
}

TEST(BatchNorm2d, EvalUsesRunningStats)
{
    Rng rng(16);
    BatchNorm2d bn(1);
    for (int i = 0; i < 50; ++i)
        bn.forward(randomTensor({8, 1, 4, 4}, rng, 3.0f));
    bn.setTraining(false);
    // A constant input must map deterministically through the stored
    // statistics, independent of batch content.
    Tensor a = bn.forward(Tensor({1, 1, 2, 2}, 1.0f));
    Tensor b = bn.forward(Tensor({4, 1, 2, 2}, 1.0f));
    EXPECT_FLOAT_EQ(a[0], b[0]);
}

TEST(ReLU, ForwardClampsNegatives)
{
    ReLU relu;
    Tensor x({4}, std::vector<float>{-1, 0, 2, -3});
    Tensor y = relu.forward(x);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[2], 2.0f);
    EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLU, GradCheck)
{
    Rng rng(17);
    ReLU relu;
    // Keep inputs away from the kink for a clean numeric gradient.
    Tensor x = randomTensor({3, 7}, rng);
    for (std::size_t i = 0; i < x.size(); ++i)
        if (std::fabs(x[i]) < 0.05f)
            x[i] = 0.2f;
    checkModuleGradients(relu, x, 19);
}

TEST(PactQuant, ClampsToLearnedRange)
{
    PactQuant pact(1.0f);
    Tensor x({3}, std::vector<float>{-1.0f, 0.5f, 2.0f});
    Tensor y = pact.forward(x);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.5f);
    EXPECT_EQ(y[2], 1.0f);
}

TEST(PactQuant, SignedClampsBothSides)
{
    PactQuant pact(1.0f, true);
    Tensor x({3}, std::vector<float>{-2.0f, 0.5f, 2.0f});
    Tensor y = pact.forward(x);
    EXPECT_EQ(y[0], -1.0f);
    EXPECT_EQ(y[2], 1.0f);
}

TEST(PactQuant, GradCheckAwayFromKinks)
{
    Rng rng(18);
    PactQuant pact(1.0f);
    Tensor x = randomTensor({4, 5}, rng);
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (std::fabs(x[i]) < 0.05f)
            x[i] = 0.3f;
        if (std::fabs(x[i] - 1.0f) < 0.05f)
            x[i] = 0.7f;
    }
    checkModuleGradients(pact, x, 20);
}

TEST(PactQuant, QuantizesWhenContextActive)
{
    PactQuant pact(1.0f);
    QuantContext ctx;
    ctx.config.mode = QuantMode::Tq;
    ctx.config.bits = 5;
    ctx.config.beta = 1;
    pact.setQuantContext(&ctx);
    Tensor x({1}, std::vector<float>{0.4f});
    Tensor y = pact.forward(x);
    // With beta = 1 the output has a single power-of-two lattice term.
    const float step = 1.0f / 31.0f;
    const auto q = static_cast<long>(std::lround(y[0] / step));
    EXPECT_TRUE(q == 0 || (q & (q - 1)) == 0) << q;
}

TEST(MaxPool2d, ForwardSelectsMaxima)
{
    MaxPool2d pool(2, 2);
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    Tensor y = pool.forward(x);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax)
{
    MaxPool2d pool(2, 2);
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    pool.forward(x);
    Tensor dy({1, 1, 1, 1}, std::vector<float>{7.0f});
    Tensor dx = pool.backward(dy);
    EXPECT_EQ(dx[0], 0.0f);
    EXPECT_EQ(dx[1], 7.0f);
}

TEST(MaxPool2d, GradCheck)
{
    Rng rng(21);
    MaxPool2d pool(2, 2);
    checkModuleGradients(pool, randomTensor({2, 2, 4, 4}, rng), 22);
}

TEST(GlobalAvgPool, ForwardAverages)
{
    GlobalAvgPool pool;
    Tensor x({1, 2, 2, 2});
    for (std::size_t i = 0; i < 4; ++i)
        x[i] = static_cast<float>(i + 1); // channel 0: 1..4
    for (std::size_t i = 4; i < 8; ++i)
        x[i] = 10.0f;
    Tensor y = pool.forward(x);
    EXPECT_FLOAT_EQ(y(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(y(0, 1), 10.0f);
}

TEST(GlobalAvgPool, GradCheck)
{
    Rng rng(23);
    GlobalAvgPool pool;
    checkModuleGradients(pool, randomTensor({2, 3, 3, 3}, rng), 24);
}

TEST(Dropout, EvalIsIdentity)
{
    Rng rng(25);
    Dropout drop(0.5f);
    drop.setTraining(false);
    Tensor x = randomTensor({10}, rng);
    Tensor y = drop.forward(x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainDropsApproximatelyP)
{
    Dropout drop(0.3f, 7);
    Tensor x({10000}, 1.0f);
    Tensor y = drop.forward(x);
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < y.size(); ++i)
        zeros += y[i] == 0.0f;
    EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
}

TEST(Dropout, BackwardUsesSameMask)
{
    Dropout drop(0.5f, 9);
    Tensor x({100}, 1.0f);
    Tensor y = drop.forward(x);
    Tensor dy({100}, 1.0f);
    Tensor dx = drop.backward(dy);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(dx[i], y[i]); // mask * scale both times
}

TEST(Sequential, ComposesAndGradChecks)
{
    Rng rng(26);
    Sequential seq;
    seq.emplace<Linear>(6, 8, rng, true);
    seq.emplace<ReLU>();
    seq.emplace<Linear>(8, 4, rng, true);
    Tensor x = randomTensor({3, 6}, rng);
    // Keep ReLU inputs off the kink.
    checkModuleGradients(seq, x, 27, 1e-2f, 3e-2);
}

TEST(Sequential, CollectsAllParameters)
{
    Rng rng(28);
    Sequential seq;
    seq.emplace<Linear>(4, 4, rng, true);
    seq.emplace<BatchNorm2d>(4);
    // Linear: weight + bias + clip; BN: gamma + beta + running stats.
    EXPECT_EQ(seq.parameters().size(), 7u);
}

TEST(Sequential, PropagatesTrainingFlag)
{
    Rng rng(29);
    Sequential seq;
    Dropout* drop = seq.emplace<Dropout>(0.5f);
    seq.setTraining(false);
    Tensor x({8}, 1.0f);
    Tensor y = drop->forward(x);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(y[i], 1.0f);
}

} // namespace
} // namespace mrq
