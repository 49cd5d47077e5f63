/**
 * @file
 * Kernel substrate parity suite: every compiled-in ISA variant must
 * produce byte-identical results to the generic scalar kernels, at
 * every thread count, including odd sizes that exercise the masked
 * vector tails.  Also pins the streaming TQ helpers (tqValueKeepTop,
 * tqGroupProject) to the reference term_quant implementations and the
 * lattice kernels to UniformQuantizer, and the batched Conv2d to a
 * per-image conv lowering built from the public matmul variants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "core/term_quant.hpp"
#include "core/uniform_quant.hpp"
#include "kernels/kernels.hpp"
#include "kernels/tq_table.hpp"
#include "nn/conv.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace mrq {
namespace {

using kernels::Isa;
using kernels::KernelTable;

/** Sizes covering empty, sub-lane, one-block, and ragged tails. */
const std::size_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                              31, 32, 33, 63, 64, 100, 257, 1023};

std::vector<Isa>
compiledIsas()
{
    std::vector<Isa> isas = {Isa::Generic};
    if (kernels::kernelTableFor(Isa::Avx2) != nullptr)
        isas.push_back(Isa::Avx2);
    if (kernels::kernelTableFor(Isa::Avx512) != nullptr)
        isas.push_back(Isa::Avx512);
    return isas;
}

std::vector<float>
randomFloats(std::size_t n, Rng& rng, float scale = 1.0f)
{
    std::vector<float> v(n);
    for (float& x : v)
        x = scale * static_cast<float>(rng.normal());
    return v;
}

/** Byte-level equality (FLOAT_EQ would hide sign/NaN drift). */
bool
bitEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/** Restore the active ISA after each test. */
class ParityTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = kernels::activeIsa(); }
    void TearDown() override { kernels::setActiveIsa(saved_); }

  private:
    Isa saved_ = Isa::Generic;
};

TEST_F(ParityTest, DotMatchesGenericBitExact)
{
    Rng rng(101);
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    ASSERT_NE(generic, nullptr);
    for (std::size_t n : kSizes) {
        const std::vector<float> a = randomFloats(n, rng);
        const std::vector<float> b = randomFloats(n, rng);
        const float want = generic->dot(a.data(), b.data(), n);
        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            const float got = kt->dot(a.data(), b.data(), n);
            EXPECT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
                << "dot n=" << n << " isa=" << kernels::isaName(isa)
                << " want=" << want << " got=" << got;
        }
    }
}

TEST_F(ParityTest, DotUnderflowKeepsSignedZeroOnEveryIsa)
{
    // Every product underflows to -0, so each of the 16 lanes a
    // product lands on holds -0 and the untouched lanes hold +0: the
    // sum is -0 exactly when n >= 16.  A vector tail that runs an fma
    // of zeros on lanes past n turns their -0 into +0.
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    ASSERT_NE(generic, nullptr);
    for (std::size_t n = 1; n <= 33; ++n) {
        const std::vector<float> a(n, -1e-30f);
        const std::vector<float> b(n, 1e-30f);
        const float want = generic->dot(a.data(), b.data(), n);
        EXPECT_EQ(std::signbit(want), n >= kernels::kDotLanes)
            << "generic dot n=" << n;
        for (Isa isa : compiledIsas()) {
            const float got =
                kernels::kernelTableFor(isa)->dot(a.data(), b.data(), n);
            EXPECT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
                << "dot n=" << n << " isa=" << kernels::isaName(isa)
                << " signbit want=" << std::signbit(want)
                << " got=" << std::signbit(got);
        }
    }
}

TEST_F(ParityTest, ElementwiseKernelsMatchGenericBitExact)
{
    Rng rng(102);
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    for (std::size_t n : kSizes) {
        const std::vector<float> x = randomFloats(n, rng);
        const std::vector<float> y0 = randomFloats(n, rng);
        const float a = static_cast<float>(rng.normal());

        std::vector<float> want_axpy = y0;
        generic->axpy(a, x.data(), want_axpy.data(), n);
        std::vector<float> want_add = y0;
        generic->addRowInPlace(want_add.data(), x.data(), n);
        std::vector<float> want_scalar = y0;
        generic->addScalarInPlace(want_scalar.data(), a, n);

        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            std::vector<float> got = y0;
            kt->axpy(a, x.data(), got.data(), n);
            EXPECT_TRUE(bitEqual(want_axpy, got))
                << "axpy n=" << n << " isa=" << kernels::isaName(isa);
            got = y0;
            kt->addRowInPlace(got.data(), x.data(), n);
            EXPECT_TRUE(bitEqual(want_add, got))
                << "addRow n=" << n << " isa=" << kernels::isaName(isa);
            got = y0;
            kt->addScalarInPlace(got.data(), a, n);
            EXPECT_TRUE(bitEqual(want_scalar, got))
                << "addScalar n=" << n << " isa=" << kernels::isaName(isa);
        }
    }
}

TEST_F(ParityTest, LatticeKernelsMatchUniformQuantizer)
{
    Rng rng(103);
    UniformQuantizer uq;
    uq.bits = 5;
    uq.clip = 0.83f;
    uq.isSigned = true;
    const kernels::LatticeParams lp =
        kernels::makeLatticeParams(uq.bits, uq.scale(), uq.isSigned);

    for (std::size_t n : kSizes) {
        // Mix smooth values with exact lattice midpoints (rounding
        // ties) and out-of-range values (clamping).
        std::vector<float> x = randomFloats(n, rng, 0.6f);
        for (std::size_t i = 0; i < n; ++i) {
            if (i % 5 == 1)
                x[i] = (static_cast<float>(static_cast<int>(i % 63) - 31) +
                        0.5f) * uq.scale();
            if (i % 7 == 2)
                x[i] *= 10.0f;
        }
        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            std::vector<std::int32_t> q(n, 0);
            kt->latticeQuantize(x.data(), q.data(), n, lp);
            std::vector<float> rt(n, 0.0f);
            kt->latticeRoundTrip(x.data(), rt.data(), n, lp);
            std::vector<float> dq(n, 0.0f);
            kt->latticeDequant(q.data(), dq.data(), n, lp.scale);
            for (std::size_t i = 0; i < n; ++i) {
                const std::int64_t want_q = uq.quantize(x[i]);
                EXPECT_EQ(q[i], want_q)
                    << "x=" << x[i] << " isa=" << kernels::isaName(isa);
                const float want_rt = uq.roundTrip(x[i]);
                EXPECT_EQ(std::memcmp(&rt[i], &want_rt, sizeof(float)), 0)
                    << "roundTrip x=" << x[i]
                    << " isa=" << kernels::isaName(isa);
                EXPECT_EQ(std::memcmp(&dq[i], &want_rt, sizeof(float)), 0)
                    << "dequant x=" << x[i]
                    << " isa=" << kernels::isaName(isa);
            }
        }
    }
}

TEST_F(ParityTest, LstmGatesMatchGenericBitExact)
{
    Rng rng(104);
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    for (std::size_t hidden : {1u, 3u, 8u, 17u, 64u, 100u}) {
        const std::vector<float> z = randomFloats(4 * hidden, rng);
        const std::vector<float> c_prev = randomFloats(hidden, rng);
        std::vector<float> want_g(4 * hidden), want_c(hidden),
            want_h(hidden);
        generic->lstmGates(z.data(), c_prev.data(), want_g.data(),
                           want_c.data(), want_h.data(), hidden);
        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            std::vector<float> g(4 * hidden), c(hidden), h(hidden);
            kt->lstmGates(z.data(), c_prev.data(), g.data(), c.data(),
                          h.data(), hidden);
            EXPECT_TRUE(bitEqual(want_g, g))
                << "gates hidden=" << hidden
                << " isa=" << kernels::isaName(isa);
            EXPECT_TRUE(bitEqual(want_c, c))
                << "c hidden=" << hidden
                << " isa=" << kernels::isaName(isa);
            EXPECT_TRUE(bitEqual(want_h, h))
                << "h hidden=" << hidden
                << " isa=" << kernels::isaName(isa);
        }
    }
}

TEST_F(ParityTest, IntegerKernelsMatchGeneric)
{
    Rng rng(105);
    const KernelTable* generic = kernels::kernelTableFor(Isa::Generic);
    for (std::size_t n : kSizes) {
        std::vector<std::int16_t> exps(n);
        std::vector<std::int8_t> signs(n);
        for (std::size_t i = 0; i < n; ++i) {
            exps[i] = static_cast<std::int16_t>(rng.next() % 40);
            signs[i] = (rng.next() & 1) != 0 ? 1 : -1;
        }
        const std::int64_t y_in =
            static_cast<std::int64_t>(rng.next() % 4096) - 2048;
        const std::int64_t want =
            generic->termPairAccumulate(exps.data(), signs.data(), n, y_in);

        std::vector<std::int64_t> buckets(n);
        for (std::size_t i = 0; i < n && i < 48; ++i)
            buckets[i] = static_cast<std::int64_t>(rng.next() % 65) - 32;
        const std::size_t bucket_n = std::min<std::size_t>(n, 48);
        const std::int64_t want_sum =
            generic->weightedBucketSum(buckets.data(), bucket_n);

        for (Isa isa : compiledIsas()) {
            const KernelTable* kt = kernels::kernelTableFor(isa);
            EXPECT_EQ(kt->termPairAccumulate(exps.data(), signs.data(), n,
                                             y_in),
                      want)
                << "termPairAccumulate n=" << n
                << " isa=" << kernels::isaName(isa);
            EXPECT_EQ(kt->weightedBucketSum(buckets.data(), bucket_n),
                      want_sum)
                << "weightedBucketSum n=" << bucket_n
                << " isa=" << kernels::isaName(isa);
        }
    }
}

TEST_F(ParityTest, TqValueKeepTopMatchesTermQuantizeValue)
{
    const TermEncoding encodings[] = {TermEncoding::Naf, TermEncoding::Ubr,
                                      TermEncoding::Booth};
    for (TermEncoding enc : encodings) {
        for (std::int64_t v = -1025; v <= 1025; ++v) {
            for (std::size_t beta : {0u, 1u, 2u, 3u, 8u}) {
                const kernels::TqValueResult r =
                    kernels::tqValueKeepTop(v, beta, enc);
                EXPECT_EQ(r.value, termQuantizeValue(v, beta, enc))
                    << "v=" << v << " beta=" << beta;
                EXPECT_EQ(r.kept, std::min(beta, termCount(v, enc)))
                    << "v=" << v << " beta=" << beta;
            }
        }
    }
}

TEST_F(ParityTest, TqGroupProjectMatchesTermQuantizeGroup)
{
    Rng rng(106);
    const TermEncoding encodings[] = {TermEncoding::Naf, TermEncoding::Ubr,
                                      TermEncoding::Booth};
    for (TermEncoding enc : encodings) {
        // 5 bits is the paper's lattice; 8 bits (levels -255..255) is
        // the widest any in-tree ladder uses.
        for (int bits : {5, 8}) {
            const kernels::TqMaskTable& masks =
                kernels::tqMaskTable(bits, enc);
            const std::uint64_t levels = 2 * ((1u << bits) - 1) + 1;
            for (std::size_t len : {1u, 3u, 7u, 16u, 21u, 33u, 64u}) {
                for (std::size_t budget : {0u, 1u, 5u, 20u, 200u}) {
                    for (int trial = 0; trial < 20; ++trial) {
                        std::vector<std::int64_t> group(len);
                        std::vector<std::int32_t> q(len);
                        for (std::size_t i = 0; i < len; ++i) {
                            group[i] = static_cast<std::int64_t>(
                                           rng.next() % levels) -
                                       masks.qmax;
                            q[i] = static_cast<std::int32_t>(group[i]);
                        }
                        const GroupQuantResult want =
                            termQuantizeGroup(group, budget, enc);
                        std::vector<std::int32_t> out(len, 0);
                        const kernels::TqGroupStats stats =
                            kernels::tqGroupProject(q.data(), len, budget,
                                                    masks, out.data());
                        for (std::size_t i = 0; i < len; ++i)
                            EXPECT_EQ(out[i], want.values[i])
                                << "bits=" << bits << " len=" << len
                                << " budget=" << budget << " i=" << i;
                        EXPECT_EQ(stats.kept, want.keptTerms.size());
                        EXPECT_EQ(stats.total, want.totalTerms);
                        // In-place aliasing must give the same answer.
                        const kernels::TqGroupStats in_place =
                            kernels::tqGroupProject(q.data(), len, budget,
                                                    masks, q.data());
                        for (std::size_t i = 0; i < len; ++i)
                            EXPECT_EQ(q[i], out[i]);
                        EXPECT_EQ(in_place.kept, stats.kept);
                        EXPECT_EQ(in_place.total, stats.total);
                    }
                }
            }
        }
    }
}

/** End-to-end: matmul + fake-quant bits must not depend on ISA or
 *  thread count. */
TEST_F(ParityTest, MatmulAndFakeQuantInvariantAcrossIsaAndThreads)
{
    Rng rng(107);
    Tensor a({13, 37});
    Tensor b({37, 17});
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<float>(rng.normal());
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(rng.normal());
    Tensor w({8, 33});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<float>(rng.normal()) * 0.4f;
    SubModelConfig cfg;
    cfg.mode = QuantMode::Tq;
    cfg.groupSize = 16;
    cfg.alpha = 6;
    cfg.beta = 2;

    const std::size_t saved_threads = ThreadPool::instance().threadCount();
    std::vector<float> ref_mm;
    std::vector<float> ref_fq;
    for (Isa isa : compiledIsas()) {
        kernels::setActiveIsa(isa);
        for (std::size_t threads : {1u, 4u, 7u}) {
            ThreadPool::instance().resize(threads);
            Tensor mm = matmul(a, b);
            Tensor fq = fakeQuantWeights(w, 1.0f, cfg, nullptr);
            std::vector<float> mm_bits(mm.data(), mm.data() + mm.size());
            std::vector<float> fq_bits(fq.data(), fq.data() + fq.size());
            if (ref_mm.empty()) {
                ref_mm = mm_bits;
                ref_fq = fq_bits;
            } else {
                EXPECT_TRUE(bitEqual(ref_mm, mm_bits))
                    << "matmul isa=" << kernels::isaName(isa)
                    << " threads=" << threads;
                EXPECT_TRUE(bitEqual(ref_fq, fq_bits))
                    << "fakeQuant isa=" << kernels::isaName(isa)
                    << " threads=" << threads;
            }
        }
    }
    ThreadPool::instance().resize(saved_threads);
}

/** Conv2d outputs and gradients, as raw floats. */
struct ConvRun
{
    std::vector<float> y, dx, dw, dbias;
};

std::vector<float>
flatOf(const Tensor& t)
{
    return std::vector<float>(t.data(), t.data() + t.size());
}

/**
 * The per-image conv lowering, written out with the public matmul
 * variants: [N, K, OH*OW] columns from a naive im2col, one
 * matmul(W, cols[img]) per image plus a per-(image, channel) bias add,
 * per-image dW = dy[img] * cols[img]^T and dcols[img] = W^T * dy[img]
 * folded in image order, and a naive (ky, kx, oy, ox)-ordered col2im.
 * Grads are returned as a fresh zero gradient plus the folded sum, as
 * a Parameter accumulates them.
 */
ConvRun
perImageConv(const Tensor& x, const Tensor& w, const Tensor* bias,
             const Tensor& dy, std::size_t kernel, std::size_t stride,
             std::size_t pad)
{
    const std::size_t n = x.dim(0), in_c = x.dim(1);
    const std::size_t h = x.dim(2), wd = x.dim(3);
    const std::size_t out_c = w.dim(0), kdim = w.dim(1);
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(wd, kernel, stride, pad);
    const std::size_t plane = oh * ow;
    // Input coordinate of output o through tap t, or -1 in padding.
    const auto coord = [&](std::size_t o, std::size_t t, std::size_t in) {
        const long v = static_cast<long>(o * stride + t) -
                       static_cast<long>(pad);
        return v >= 0 && v < static_cast<long>(in) ? v : -1L;
    };

    Tensor cols({n, kdim, plane});
    for (std::size_t img = 0; img < n; ++img)
        for (std::size_t ch = 0; ch < in_c; ++ch)
            for (std::size_t ky = 0; ky < kernel; ++ky)
                for (std::size_t kx = 0; kx < kernel; ++kx)
                    for (std::size_t oy = 0; oy < oh; ++oy)
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            const long iy = coord(oy, ky, h);
                            const long ix = coord(ox, kx, wd);
                            if (iy < 0 || ix < 0)
                                continue;
                            cols(img, (ch * kernel + ky) * kernel + kx,
                                 oy * ow + ox) =
                                x(img, ch, static_cast<std::size_t>(iy),
                                  static_cast<std::size_t>(ix));
                        }

    const KernelTable& kt = kernels::kernels();
    Tensor y({n, out_c, oh, ow});
    Tensor dcols({n, kdim, plane});
    Tensor dw_sum({out_c, kdim});
    Tensor db_sum({out_c});
    for (std::size_t img = 0; img < n; ++img) {
        Tensor cols_mat({kdim, plane});
        std::copy(cols.data() + img * kdim * plane,
                  cols.data() + (img + 1) * kdim * plane, cols_mat.data());
        Tensor dy_mat({out_c, plane});
        std::copy(dy.data() + img * out_c * plane,
                  dy.data() + (img + 1) * out_c * plane, dy_mat.data());

        const Tensor out = matmul(w, cols_mat);
        float* yimg = y.data() + img * out_c * plane;
        std::copy(out.data(), out.data() + out.size(), yimg);
        if (bias != nullptr)
            for (std::size_t c = 0; c < out_c; ++c)
                kt.addScalarInPlace(yimg + c * plane, (*bias)[c], plane);

        Tensor dw_part({out_c, kdim});
        dw_part += matmulTransB(dy_mat, cols_mat);
        dw_sum += dw_part;
        const Tensor dc = matmulTransA(w, dy_mat);
        std::copy(dc.data(), dc.data() + dc.size(),
                  dcols.data() + img * kdim * plane);
        Tensor db_part({out_c});
        for (std::size_t c = 0; c < out_c; ++c)
            for (std::size_t i = 0; i < plane; ++i)
                db_part[c] += dy_mat(c, i);
        db_sum += db_part;
    }

    Tensor dx({n, in_c, h, wd});
    for (std::size_t img = 0; img < n; ++img)
        for (std::size_t ch = 0; ch < in_c; ++ch)
            for (std::size_t ky = 0; ky < kernel; ++ky)
                for (std::size_t kx = 0; kx < kernel; ++kx)
                    for (std::size_t oy = 0; oy < oh; ++oy)
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            const long iy = coord(oy, ky, h);
                            const long ix = coord(ox, kx, wd);
                            if (iy < 0 || ix < 0)
                                continue;
                            dx(img, ch, static_cast<std::size_t>(iy),
                               static_cast<std::size_t>(ix)) +=
                                dcols(img, (ch * kernel + ky) * kernel + kx,
                                      oy * ow + ox);
                        }

    Tensor dw({out_c, kdim});
    dw += dw_sum;
    ConvRun run{flatOf(y), flatOf(dx), flatOf(dw), {}};
    if (bias != nullptr) {
        Tensor db({out_c});
        db += db_sum;
        run.dbias = flatOf(db);
    }
    return run;
}

/** One shape of the Conv2d parity sweep. */
struct ConvCase
{
    std::size_t n, in_c, out_c, h, w, kernel, stride, pad;
    bool bias;
};

TEST_F(ParityTest, Conv2dMatchesPerImageLoweringAcrossIsaAndThreads)
{
    // The batched Conv2d (one matmul over [K, N*OH*OW] columns, dcols
    // as one matmulTransA, per-image dW dots) must reproduce the
    // per-image lowering byte for byte: forward output, dX, dW and the
    // bias gradient, at every thread count and ISA.
    Rng rng(108);
    const std::size_t batches[] = {1, 3, 7};
    std::vector<ConvCase> cases;
    while (cases.size() < 16) {
        ConvCase cc{};
        cc.n = batches[rng.uniformInt(3)];
        cc.in_c = 1 + rng.uniformInt(4);
        cc.out_c = 1 + rng.uniformInt(5);
        cc.h = 1 + rng.uniformInt(9);
        cc.w = 1 + rng.uniformInt(9);
        cc.kernel = rng.bernoulli(0.5) ? 3 : 1;
        cc.stride = 1 + rng.uniformInt(2);
        cc.pad = rng.uniformInt(2);
        cc.bias = rng.bernoulli(0.5);
        if (cc.h + 2 * cc.pad < cc.kernel || cc.w + 2 * cc.pad < cc.kernel)
            continue;
        cases.push_back(cc);
    }
    // H < k, padded so the sweep is defined.
    cases.push_back({3, 2, 3, 1, 2, 3, 1, 1, true});
    // N * OH * OW above kGemmColumnBlock: the column-blocked matmul.
    cases.push_back({7, 2, 3, 16, 15, 3, 1, 1, true});

    const std::size_t saved_threads = ThreadPool::instance().threadCount();
    for (const ConvCase& cc : cases) {
        const std::string tag =
            "n=" + std::to_string(cc.n) + " c=" + std::to_string(cc.in_c) +
            "->" + std::to_string(cc.out_c) + " " + std::to_string(cc.h) +
            "x" + std::to_string(cc.w) + " k=" + std::to_string(cc.kernel) +
            " s=" + std::to_string(cc.stride) +
            " p=" + std::to_string(cc.pad) + " bias=" +
            std::to_string(cc.bias);
        const std::size_t kdim = cc.in_c * cc.kernel * cc.kernel;
        Tensor x({cc.n, cc.in_c, cc.h, cc.w});
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.normal());
        // A quarter of the weights are exact zeros (the matmul skip).
        Tensor w({cc.out_c, kdim});
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] = rng.bernoulli(0.25) ? 0.0f
                                       : static_cast<float>(rng.normal());
        Tensor bias({cc.out_c});
        for (std::size_t i = 0; i < bias.size(); ++i)
            bias[i] = static_cast<float>(rng.normal());
        const std::size_t oh =
            convOutSize(cc.h, cc.kernel, cc.stride, cc.pad);
        const std::size_t ow =
            convOutSize(cc.w, cc.kernel, cc.stride, cc.pad);
        Tensor dy({cc.n, cc.out_c, oh, ow});
        for (std::size_t i = 0; i < dy.size(); ++i)
            dy[i] = static_cast<float>(rng.normal());

        kernels::setActiveIsa(Isa::Generic);
        ThreadPool::instance().resize(1);
        const ConvRun want = perImageConv(x, w, cc.bias ? &bias : nullptr,
                                          dy, cc.kernel, cc.stride, cc.pad);

        for (Isa isa : compiledIsas()) {
            kernels::setActiveIsa(isa);
            for (std::size_t threads : {1u, 2u, 4u}) {
                ThreadPool::instance().resize(threads);
                Rng init(1);
                Conv2d conv(cc.in_c, cc.out_c, cc.kernel, cc.stride,
                            cc.pad, init, cc.bias);
                conv.weight().value = w;
                std::vector<Parameter*> params;
                conv.collectParameters(params);
                if (cc.bias)
                    params[1]->value = bias;
                ConvRun got;
                got.y = flatOf(conv.forward(x));
                got.dx = flatOf(conv.backward(dy));
                got.dw = flatOf(conv.weight().grad);
                if (cc.bias)
                    got.dbias = flatOf(params[1]->grad);
                const std::string where =
                    tag + " isa=" + kernels::isaName(isa) +
                    " threads=" + std::to_string(threads);
                EXPECT_TRUE(bitEqual(want.y, got.y)) << "forward " << where;
                EXPECT_TRUE(bitEqual(want.dx, got.dx)) << "dX " << where;
                EXPECT_TRUE(bitEqual(want.dw, got.dw)) << "dW " << where;
                EXPECT_TRUE(bitEqual(want.dbias, got.dbias))
                    << "dBias " << where;
            }
        }
    }
    ThreadPool::instance().resize(saved_threads);
}

/** Byte equality where both sides are finite; elsewhere the same
 *  non-finite class (NaN payloads may differ between libm fma and
 *  vfmadd). */
bool
sameFiniteBits(const std::vector<float>& a, const std::vector<float>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isfinite(a[i]) && std::isfinite(b[i])) {
            if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
                return false;
        } else if (std::isnan(a[i]) != std::isnan(b[i]) ||
                   (std::isinf(a[i]) && a[i] != b[i])) {
            return false;
        }
    }
    return true;
}

/** Run Conv2d forward and backward on given operands. */
ConvRun
layerConv(const ConvCase& cc, const Tensor& x, const Tensor& w,
          const Tensor& bias, const Tensor& dy)
{
    Rng init(1);
    Conv2d conv(cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad, init,
                cc.bias);
    conv.weight().value = w;
    std::vector<Parameter*> params;
    conv.collectParameters(params);
    if (cc.bias)
        params[1]->value = bias;
    ConvRun got;
    got.y = flatOf(conv.forward(x));
    got.dx = flatOf(conv.backward(dy));
    got.dw = flatOf(conv.weight().grad);
    if (cc.bias)
        got.dbias = flatOf(params[1]->grad);
    return got;
}

TEST_F(ParityTest, Conv2dImplicitGemmEdgeShapesAcrossIsaAndThreads)
{
    // Shapes aimed at the implicit-GEMM forward's edges: out-channel
    // counts off the tile's row multiple (tiny-YOLO's 5, 9, 21), grid
    // rows with discarded columns and a partial last tile, both
    // strided layouts, long k-chains, a batch spanning many tiles, and
    // non-finite pixels that only zero weights read.
    const std::vector<ConvCase> cases = {
        {2, 3, 5, 7, 7, 3, 1, 1, true},
        {3, 4, 9, 5, 6, 1, 1, 0, true},
        {2, 8, 21, 4, 4, 1, 1, 0, true},
        {2, 2, 3, 5, 13, 3, 1, 1, false},  // 15-wide rows, 2 discarded
        {1, 3, 6, 3, 31, 3, 1, 2, true},   // pad 2, 4 discarded per row
        {3, 3, 7, 12, 12, 3, 2, 1, false}, // 3x3 stride 2: phase planes
        {2, 4, 5, 11, 9, 3, 2, 1, true},   // odd sides, stride 2
        {3, 5, 6, 12, 12, 1, 2, 0, false}, // 1x1 stride 2
        {2, 6, 9, 7, 9, 1, 2, 0, true},
        {2, 32, 5, 5, 5, 3, 1, 1, true},   // K = 288
        {2, 32, 33, 3, 3, 3, 2, 1, false}, // K = 288, stride 2
        {9, 2, 4, 12, 12, 3, 1, 1, true},  // N*OH*OW over many tiles
        {5, 1, 9, 2, 1, 3, 1, 1, true},    // H, W < k
        {2, 3, 5, 7, 8, 1, 2, 1, true},    // 1x1 reading only padding
        {2, 2, 6, 9, 10, 3, 2, 2, false},  // stride 2, pad 2
    };
    Rng rng(115);
    const std::size_t saved_threads = ThreadPool::instance().threadCount();
    for (std::size_t ci = 0; ci <= cases.size(); ++ci) {
        // The last pass reruns case 0 with NaN and +-Inf pixels in an
        // input channel whose weights are all zero: every output reads
        // them only through skipped fmas, so y and dX stay finite.
        const bool poison = ci == cases.size();
        const ConvCase cc = cases[poison ? 0 : ci];
        const std::string tag =
            "case " + std::to_string(ci) + (poison ? " (non-finite)" : "");
        const std::size_t kdim = cc.in_c * cc.kernel * cc.kernel;
        const std::size_t taps = cc.kernel * cc.kernel;
        Tensor x({cc.n, cc.in_c, cc.h, cc.w});
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.normal());
        Tensor w({cc.out_c, kdim});
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] = rng.bernoulli(0.25) ? 0.0f
                                       : static_cast<float>(rng.normal());
        if (poison) {
            const float bad[] = {std::nanf(""), INFINITY, -INFINITY};
            const std::size_t plane = cc.h * cc.w;
            for (std::size_t img = 0; img < cc.n; ++img)
                for (std::size_t i = 0; i < plane; i += 2)
                    x[(img * cc.in_c + 1) * plane + i] = bad[i / 2 % 3];
            for (std::size_t o = 0; o < cc.out_c; ++o)
                for (std::size_t t = 0; t < taps; ++t)
                    w(o, taps + t) = 0.0f;
        }
        Tensor bias({cc.out_c});
        for (std::size_t i = 0; i < bias.size(); ++i)
            bias[i] = static_cast<float>(rng.normal());
        const std::size_t oh =
            convOutSize(cc.h, cc.kernel, cc.stride, cc.pad);
        const std::size_t ow =
            convOutSize(cc.w, cc.kernel, cc.stride, cc.pad);
        Tensor dy({cc.n, cc.out_c, oh, ow});
        for (std::size_t i = 0; i < dy.size(); ++i)
            dy[i] = static_cast<float>(rng.normal());

        kernels::setActiveIsa(Isa::Generic);
        ThreadPool::instance().resize(1);
        const ConvRun want = perImageConv(x, w, cc.bias ? &bias : nullptr,
                                          dy, cc.kernel, cc.stride, cc.pad);
        if (poison) {
            for (float v : want.y)
                ASSERT_TRUE(std::isfinite(v)) << tag;
            for (float v : want.dx)
                ASSERT_TRUE(std::isfinite(v)) << tag;
        }
        for (Isa isa : compiledIsas()) {
            kernels::setActiveIsa(isa);
            for (std::size_t threads : {1u, 2u, 4u}) {
                ThreadPool::instance().resize(threads);
                const ConvRun got = layerConv(cc, x, w, bias, dy);
                const std::string where =
                    tag + " isa=" + kernels::isaName(isa) +
                    " threads=" + std::to_string(threads);
                EXPECT_TRUE(bitEqual(want.y, got.y)) << "forward " << where;
                EXPECT_TRUE(bitEqual(want.dx, got.dx)) << "dX " << where;
                // dW reads the poisoned pixels through nonzero dY.
                EXPECT_TRUE(poison ? sameFiniteBits(want.dw, got.dw)
                                   : bitEqual(want.dw, got.dw))
                    << "dW " << where;
                EXPECT_TRUE(bitEqual(want.dbias, got.dbias))
                    << "dBias " << where;
            }
        }
    }
    ThreadPool::instance().resize(saved_threads);
}

/** Random operands of one ConvCase: a quarter of the weights are
 *  exact zeros. */
struct ConvOperands
{
    Tensor x, w, bias, dy;
};

ConvOperands
randomOperands(const ConvCase& cc, Rng& rng)
{
    const std::size_t kdim = cc.in_c * cc.kernel * cc.kernel;
    const std::size_t oh = convOutSize(cc.h, cc.kernel, cc.stride, cc.pad);
    const std::size_t ow = convOutSize(cc.w, cc.kernel, cc.stride, cc.pad);
    ConvOperands ops{Tensor({cc.n, cc.in_c, cc.h, cc.w}),
                     Tensor({cc.out_c, kdim}), Tensor({cc.out_c}),
                     Tensor({cc.n, cc.out_c, oh, ow})};
    for (Tensor* t : {&ops.x, &ops.bias, &ops.dy})
        for (std::size_t i = 0; i < t->size(); ++i)
            (*t)[i] = static_cast<float>(rng.normal());
    for (std::size_t i = 0; i < ops.w.size(); ++i)
        ops.w[i] = rng.bernoulli(0.25) ? 0.0f
                                       : static_cast<float>(rng.normal());
    return ops;
}

std::string
caseTag(const ConvCase& cc)
{
    return "n=" + std::to_string(cc.n) + " c=" + std::to_string(cc.in_c) +
           "->" + std::to_string(cc.out_c) + " " + std::to_string(cc.h) +
           "x" + std::to_string(cc.w) + " k=" + std::to_string(cc.kernel) +
           " s=" + std::to_string(cc.stride) + " p=" + std::to_string(cc.pad);
}

TEST_F(ParityTest, Conv2dBackwardEdgeCasesAcrossIsaAndThreads)
{
    // The transposed implicit GEMM behind dX and the tiled dW kernel,
    // byte-compared with the per-image lowering (a naive col2im over
    // matmulTransA columns, per-image matmulTransB for dW).
    const std::size_t saved_threads = ThreadPool::instance().threadCount();
    const auto check_all = [&](const ConvCase& cc, const ConvOperands& ops,
                               const std::string& tag, bool finite_grads) {
        kernels::setActiveIsa(Isa::Generic);
        ThreadPool::instance().resize(1);
        const ConvRun want =
            perImageConv(ops.x, ops.w, cc.bias ? &ops.bias : nullptr, ops.dy,
                         cc.kernel, cc.stride, cc.pad);
        for (float v : want.dx)
            ASSERT_TRUE(std::isfinite(v)) << tag;
        for (Isa isa : compiledIsas()) {
            kernels::setActiveIsa(isa);
            for (std::size_t threads : {1u, 2u, 4u}) {
                ThreadPool::instance().resize(threads);
                const ConvRun got = layerConv(cc, ops.x, ops.w, ops.bias,
                                              ops.dy);
                const std::string where =
                    tag + " isa=" + kernels::isaName(isa) +
                    " threads=" + std::to_string(threads);
                EXPECT_TRUE(bitEqual(want.y, got.y)) << "forward " << where;
                EXPECT_TRUE(bitEqual(want.dx, got.dx)) << "dX " << where;
                EXPECT_TRUE(finite_grads ? bitEqual(want.dw, got.dw)
                                         : sameFiniteBits(want.dw, got.dw))
                    << "dW " << where;
                EXPECT_TRUE(finite_grads
                                ? bitEqual(want.dbias, got.dbias)
                                : sameFiniteBits(want.dbias, got.dbias))
                    << "dBias " << where;
            }
        }
    };

    // Geometries the phase split must get right: kernels up to 5,
    // strides up to 3 (phases with no tap when the stride exceeds the
    // kernel), pads up to 2 (pad >= kernel included).
    Rng rng(116);
    for (int drawn = 0; drawn < 24;) {
        ConvCase cc{};
        cc.n = 1 + rng.uniformInt(3);
        cc.in_c = 1 + rng.uniformInt(5);
        cc.out_c = 1 + rng.uniformInt(6);
        cc.h = 1 + rng.uniformInt(9);
        cc.w = 1 + rng.uniformInt(9);
        cc.kernel = 1 + rng.uniformInt(5);
        cc.stride = 1 + rng.uniformInt(3);
        cc.pad = rng.uniformInt(3);
        cc.bias = rng.bernoulli(0.5);
        if (cc.h + 2 * cc.pad < cc.kernel || cc.w + 2 * cc.pad < cc.kernel)
            continue;
        ++drawn;
        check_all(cc, randomOperands(cc, rng), caseTag(cc), true);
    }

    // NaN and +-Inf in the dY of an output channel whose weights are
    // all zero: dX reads them only through skipped fmas and stays
    // finite; dW and the bias gradient do read them.
    for (const ConvCase& cc : {ConvCase{3, 4, 5, 7, 7, 3, 1, 1, true},
                               ConvCase{2, 3, 6, 9, 8, 3, 2, 1, true},
                               ConvCase{2, 5, 4, 6, 6, 1, 2, 0, true}}) {
        ConvOperands ops = randomOperands(cc, rng);
        const float bad[] = {std::nanf(""), INFINITY, -INFINITY};
        const std::size_t plane = ops.dy.dim(2) * ops.dy.dim(3);
        for (std::size_t img = 0; img < cc.n; ++img)
            for (std::size_t i = 0; i < plane; ++i)
                ops.dy[(img * cc.out_c + 1) * plane + i] = bad[i % 3];
        for (std::size_t k = 0; k < ops.w.dim(1); ++k)
            ops.w(1, k) = 0.0f;
        check_all(cc, ops, caseTag(cc) + " (non-finite dY)", false);
    }

    // 1x1 stride 2: the odd rows and columns (even ones at pad 1) are
    // a phase no tap reaches, so those dX pixels are exactly +0.
    for (const ConvCase& cc : {ConvCase{2, 3, 4, 7, 8, 1, 2, 0, false},
                               ConvCase{2, 3, 4, 7, 8, 1, 2, 1, true}}) {
        const ConvOperands ops = randomOperands(cc, rng);
        check_all(cc, ops, caseTag(cc), true);
        const ConvRun got = layerConv(cc, ops.x, ops.w, ops.bias, ops.dy);
        const float plus_zero = 0.0f;
        for (std::size_t i = 0; i < got.dx.size(); ++i) {
            const std::size_t ix = i % cc.w, iy = i / cc.w % cc.h;
            if ((iy + cc.pad) % 2 == 0 && (ix + cc.pad) % 2 == 0)
                continue;
            EXPECT_EQ(std::memcmp(&got.dx[i], &plus_zero, sizeof(float)), 0)
                << caseTag(cc) << " dX pixel " << i;
        }
    }

    // One layer through batch 50, 100, 50, then a larger and the first
    // image size again: its workspaces are resized on every geometry
    // change, and the padding of a smaller geometry is never read
    // stale from a larger one.
    {
        std::vector<ConvCase> runs;
        for (std::size_t n : {50u, 100u, 50u})
            runs.push_back({n, 3, 5, 7, 6, 3, 2, 1, true});
        runs.push_back({50, 3, 5, 11, 9, 3, 2, 1, true});
        runs.push_back(runs.front());
        std::vector<ConvOperands> ops;
        std::vector<ConvRun> want;
        kernels::setActiveIsa(Isa::Generic);
        ThreadPool::instance().resize(1);
        for (const ConvCase& cc : runs) {
            ops.push_back(randomOperands(cc, rng));
            want.push_back(perImageConv(ops.back().x, ops.back().w,
                                        &ops.back().bias, ops.back().dy,
                                        cc.kernel, cc.stride, cc.pad));
        }
        for (Isa isa : compiledIsas()) {
            kernels::setActiveIsa(isa);
            for (std::size_t threads : {1u, 2u, 4u}) {
                ThreadPool::instance().resize(threads);
                Rng init(1);
                Conv2d conv(3, 5, 3, 2, 1, init, true);
                std::vector<Parameter*> params;
                conv.collectParameters(params);
                for (std::size_t i = 0; i < runs.size(); ++i) {
                    conv.weight().value = ops[i].w;
                    params[1]->value = ops[i].bias;
                    conv.weight().resetGrad();
                    params[1]->resetGrad();
                    ConvRun got;
                    got.y = flatOf(conv.forward(ops[i].x));
                    got.dx = flatOf(conv.backward(ops[i].dy));
                    got.dw = flatOf(conv.weight().grad);
                    got.dbias = flatOf(params[1]->grad);
                    const std::string where =
                        caseTag(runs[i]) + " run " + std::to_string(i) +
                        " isa=" + kernels::isaName(isa) +
                        " threads=" + std::to_string(threads);
                    EXPECT_TRUE(bitEqual(want[i].y, got.y))
                        << "forward " << where;
                    EXPECT_TRUE(bitEqual(want[i].dx, got.dx))
                        << "dX " << where;
                    EXPECT_TRUE(bitEqual(want[i].dw, got.dw))
                        << "dW " << where;
                    EXPECT_TRUE(bitEqual(want[i].dbias, got.dbias))
                        << "dBias " << where;
                }
            }
        }
    }
    ThreadPool::instance().resize(saved_threads);
}

TEST_F(ParityTest, SetActiveIsaClampsAndDispatches)
{
    // Requesting the generic table always succeeds and kernels()
    // reflects it immediately.
    kernels::setActiveIsa(Isa::Generic);
    EXPECT_EQ(kernels::activeIsa(), Isa::Generic);
    EXPECT_EQ(kernels::kernels().isa, Isa::Generic);
    // Requesting the widest ISA lands on something available.
    kernels::setActiveIsa(Isa::Avx512);
    EXPECT_TRUE(kernels::isaAvailable(kernels::activeIsa()));
    EXPECT_EQ(kernels::kernels().isa, kernels::activeIsa());
}

} // namespace
} // namespace mrq
