/**
 * @file
 * Tests for multi-resolution deployment images (packing, round trip,
 * equivalence with the training-side lattice projection).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "core/fake_quant.hpp"
#include "core/uniform_quant.hpp"
#include "hw/deployment.hpp"
#include "hw/system.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace mrq {
namespace {

std::unique_ptr<Sequential>
smallCnn(Rng& rng)
{
    auto net = std::make_unique<Sequential>();
    net->emplace<PactQuant>(1.0f);
    net->emplace<Conv2d>(3, 8, 3, 1, 1, rng);
    net->emplace<BatchNorm2d>(8);
    net->emplace<PactQuant>();
    net->emplace<GlobalAvgPool>();
    net->emplace<PactQuant>(1.0f);
    net->emplace<Linear>(8, 4, rng, true);
    return net;
}

const std::vector<std::size_t> kLadder{8, 12, 16, 20};

TEST(Deployment, PacksAllWeightLayers)
{
    Rng rng(1);
    auto model = smallCnn(rng);
    const auto image =
        DeploymentImage::build(*model, 5, 16, kLadder);
    ASSERT_EQ(image.layers().size(), 2u);
    EXPECT_EQ(image.layers()[0].rows, 8u);
    EXPECT_EQ(image.layers()[0].rowLen, 27u);
    EXPECT_EQ(image.layers()[1].rows, 4u);
    EXPECT_EQ(image.layers()[1].rowLen, 8u);
}

TEST(Deployment, WeightsMatchFakeQuantProjectionAtEveryRung)
{
    // The packed image's reconstruction must equal the training-side
    // lattice projection: TQ(UQ(W)) as fakeQuantWeights computes it.
    Rng rng(2);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);

    auto* conv = dynamic_cast<Conv2d*>(model->child(1));
    ASSERT_NE(conv, nullptr);
    const float clip = conv->quantizer().clip();
    UniformQuantizer uq;
    uq.bits = 5;
    uq.clip = clip;
    uq.isSigned = true;

    for (std::size_t alpha : kLadder) {
        SubModelConfig cfg;
        cfg.bits = 5;
        cfg.groupSize = 16;
        cfg.alpha = alpha;
        cfg.beta = 2;
        const Tensor ref =
            fakeQuantWeights(conv->weight().value, clip, cfg);
        const auto got = image.layerWeights(0, alpha);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const auto ref_int = static_cast<std::int64_t>(
                std::llround(ref[i] / uq.scale()));
            EXPECT_EQ(got[i], ref_int) << "alpha " << alpha << " i " << i;
        }
    }
}

TEST(Deployment, NestingAcrossRungs)
{
    // A lower rung's nonzero terms are a subset of the higher rung's:
    // reconstructions only gain magnitude detail, never change sign
    // past the shared prefix.  Spot-check via value agreement where
    // the lower rung is already exact.
    Rng rng(3);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);
    const auto lo = image.layerWeights(0, 8);
    const auto hi = image.layerWeights(0, 20);
    ASSERT_EQ(lo.size(), hi.size());
    // Where lo is nonzero, hi must not be zero (terms only accrue).
    for (std::size_t i = 0; i < lo.size(); ++i)
        if (lo[i] != 0)
            EXPECT_NE(hi[i], 0) << i;
}

TEST(Deployment, MemoryEntriesGrowWithBudget)
{
    Rng rng(4);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);
    std::size_t prev = 0;
    for (std::size_t alpha : kLadder) {
        const std::size_t entries = image.memoryEntriesFor(alpha);
        EXPECT_GT(entries, prev);
        prev = entries;
    }
}

TEST(Deployment, StorageMatchesGroupSum)
{
    Rng rng(5);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);
    std::size_t expect = 0;
    for (const LayerImage& layer : image.layers())
        for (const PackedGroup& group : layer.groups)
            expect += group.storageBits();
    EXPECT_EQ(image.storageBits(), expect);
    EXPECT_GT(expect, 0u);
}

TEST(Deployment, SaveLoadRoundTrip)
{
    Rng rng(6);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);

    const std::string path = ::testing::TempDir() + "mrq_image.bin";
    image.save(path);
    const auto loaded = DeploymentImage::load(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.bits(), image.bits());
    EXPECT_EQ(loaded.groupSize(), image.groupSize());
    EXPECT_EQ(loaded.ladder(), image.ladder());
    ASSERT_EQ(loaded.layers().size(), image.layers().size());
    for (std::size_t alpha : kLadder)
        for (std::size_t l = 0; l < image.layers().size(); ++l)
            EXPECT_EQ(loaded.layerWeights(l, alpha),
                      image.layerWeights(l, alpha))
                << "layer " << l << " alpha " << alpha;
    for (std::size_t l = 0; l < image.layers().size(); ++l) {
        EXPECT_EQ(loaded.layers()[l].name, image.layers()[l].name);
        EXPECT_FLOAT_EQ(loaded.layers()[l].scale,
                        image.layers()[l].scale);
    }
}

TEST(Deployment, LoadRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "mrq_garbage.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "not an image";
    }
    EXPECT_THROW(DeploymentImage::load(path), FatalError);
    std::remove(path.c_str());
}

TEST(Deployment, LoadSurvivesEveryCorruptedHeaderWord)
{
    // Overwrite every 4-byte window of a valid image (so every header
    // word, aligned or not) with 0 and with 0xFFFFFFFF: each mutant
    // must load or throw FatalError, never die with a signal.
    Rng rng(7);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);
    const std::string path = ::testing::TempDir() + "mrq_mutant.bin";
    image.save(path);
    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 16u);

    const auto load_mutant = [&](std::size_t offset, std::uint32_t word) {
        std::vector<char> mutant = bytes;
        std::memcpy(mutant.data() + offset, &word, sizeof(word));
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(mutant.data(),
                      static_cast<std::streamsize>(mutant.size()));
        }
        try {
            (void)DeploymentImage::load(path);
            return true;
        } catch (const FatalError&) {
            return false;
        }
    };
    std::size_t rejected = 0;
    for (std::size_t offset = 0; offset + 4 <= bytes.size(); ++offset)
        for (std::uint32_t word : {0u, 0xFFFF'FFFFu})
            rejected += load_mutant(offset, word) ? 0 : 1;
    EXPECT_GT(rejected, 0u);

    // The word that used to divide by zero: the group size (offset 8,
    // after magic and bits).
    EXPECT_FALSE(load_mutant(8, 0u));
    std::remove(path.c_str());
}

TEST(Deployment, LoadRejectsAnExponentFieldOutsideTheFormat)
{
    // A term byte of 0xFF carries exponent field 127, past the 3-bit
    // format: load must refuse it with a diagnostic instead of handing
    // decode an int64 shift by 127.
    Rng rng(8);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);
    const LayerImage& layer = image.layers()[0];
    ASSERT_FALSE(layer.groups[0].packedTerms().empty());
    const std::string path = ::testing::TempDir() + "mrq_hostile.bin";
    image.save(path);
    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    // Magic, bits, group size, rung count, the rungs and the layer
    // count; the name and its length; rows, row length, scale and
    // group count; then group 0's size and term-byte count.
    const std::size_t offset = 4 * (4 + kLadder.size() + 1) + 4 +
                               layer.name.size() + 4 * 4 + 4 + 4;
    ASSERT_LT(offset, bytes.size());
    ASSERT_EQ(static_cast<std::uint8_t>(bytes[offset]),
              layer.groups[0].packedTerms()[0]);
    bytes[offset] = static_cast<char>(0xFF);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
        (void)DeploymentImage::load(path);
        ADD_FAILURE() << "a 0xFF term byte loaded";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("exponent field 127"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Deployment, RejectsModelWithoutWeights)
{
    Sequential empty;
    empty.emplace<GlobalAvgPool>();
    EXPECT_THROW(DeploymentImage::build(empty, 5, 16, kLadder),
                 FatalError);
}

TEST(Deployment, EngineWithImageMatchesEngineWithoutImage)
{
    // The packed-memory weight path must be bit-identical to the
    // quantize-from-master path (the per-value kept-term prefix is its
    // own NAF, so re-encoding in the array changes nothing).
    Rng rng(8);
    auto model = smallCnn(rng);
    model->forward(Tensor({8, 3, 8, 8}, 0.4f)); // warm BN stats
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);

    SubModelConfig cfg;
    cfg.bits = 5;
    cfg.groupSize = 16;
    cfg.alpha = 12;
    cfg.beta = 2;
    Tensor x({3, 3, 8, 8});
    Rng data_rng(9);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(data_rng.uniform());

    HwInferenceEngine direct(*model, cfg, SystolicArrayConfig{4, 4, 150.0});
    Tensor a = direct.forward(x);

    HwInferenceEngine packed(*model, cfg, SystolicArrayConfig{4, 4, 150.0});
    packed.attachImage(image);
    Tensor b = packed.forward(x);

    ASSERT_TRUE(a.sameShape(b));
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << i;
}

TEST(Deployment, AttachImageValidatesCompatibility)
{
    Rng rng(10);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);

    SubModelConfig wrong_bits;
    wrong_bits.bits = 8;
    wrong_bits.groupSize = 16;
    wrong_bits.alpha = 12;
    HwInferenceEngine e1(*model, wrong_bits);
    EXPECT_THROW(e1.attachImage(image), FatalError);

    SubModelConfig wrong_alpha;
    wrong_alpha.bits = 5;
    wrong_alpha.groupSize = 16;
    wrong_alpha.alpha = 13; // not a ladder rung
    HwInferenceEngine e2(*model, wrong_alpha);
    EXPECT_THROW(e2.attachImage(image), FatalError);
}

TEST(Deployment, StoragePerWeightMatchesPaperArithmetic)
{
    // alpha_max = 20, g = 16 -> 10 bits per weight value for full
    // groups (Sec. 5.4); partial tail groups round their scaled
    // budget, which can add a fraction of a bit.
    Rng rng(7);
    auto model = smallCnn(rng);
    const auto image = DeploymentImage::build(*model, 5, 16, kLadder);
    std::size_t weights = 0;
    for (const LayerImage& layer : image.layers())
        weights += layer.rows * layer.rowLen;
    const double bits_per_weight =
        static_cast<double>(image.storageBits()) /
        static_cast<double>(weights);
    EXPECT_LE(bits_per_weight, 10.5);
    EXPECT_GT(bits_per_weight, 3.0);
}

} // namespace
} // namespace mrq
