/**
 * @file
 * Tests for dense kernels: matmul variants, transpose, im2col.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace mrq {
namespace {

Tensor
randomMatrix(std::size_t m, std::size_t n, Rng& rng)
{
    Tensor t({m, n});
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal());
    return t;
}

TEST(Ops, MatmulSmallKnown)
{
    Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    Tensor c = matmul(a, b);
    EXPECT_EQ(c(0, 0), 58.0f);
    EXPECT_EQ(c(0, 1), 64.0f);
    EXPECT_EQ(c(1, 0), 139.0f);
    EXPECT_EQ(c(1, 1), 154.0f);
}

TEST(Ops, MatmulShapeCheck)
{
    Tensor a({2, 3});
    Tensor b({4, 2});
    EXPECT_THROW(matmul(a, b), FatalError);
}

TEST(Ops, MatmulIdentity)
{
    Rng rng(1);
    Tensor a = randomMatrix(5, 5, rng);
    Tensor eye({5, 5});
    for (std::size_t i = 0; i < 5; ++i)
        eye(i, i) = 1.0f;
    Tensor c = matmul(a, eye);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_FLOAT_EQ(c[i], a[i]);
}

TEST(Ops, TransAVariantsAgreeWithExplicitTranspose)
{
    Rng rng(2);
    Tensor a = randomMatrix(4, 6, rng);
    Tensor b = randomMatrix(4, 5, rng);
    Tensor expect = matmul(transpose2d(a), b);
    Tensor got = matmulTransA(a, b);
    ASSERT_TRUE(expect.sameShape(got));
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_NEAR(expect[i], got[i], 1e-5f);
}

TEST(Ops, TransBVariantsAgreeWithExplicitTranspose)
{
    Rng rng(3);
    Tensor a = randomMatrix(4, 6, rng);
    Tensor b = randomMatrix(5, 6, rng);
    Tensor expect = matmul(a, transpose2d(b));
    Tensor got = matmulTransB(a, b);
    ASSERT_TRUE(expect.sameShape(got));
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_NEAR(expect[i], got[i], 1e-5f);
}

TEST(Ops, Transpose2dRoundTrip)
{
    Rng rng(4);
    Tensor a = randomMatrix(3, 7, rng);
    Tensor back = transpose2d(transpose2d(a));
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], back[i]);
}

TEST(Ops, ConvOutSize)
{
    EXPECT_EQ(convOutSize(16, 3, 1, 1), 16u);
    EXPECT_EQ(convOutSize(16, 3, 2, 1), 8u);
    EXPECT_EQ(convOutSize(5, 5, 1, 0), 1u);
    EXPECT_THROW(convOutSize(2, 5, 1, 0), FatalError);
}

TEST(Ops, Im2colIdentityKernel)
{
    // 1x1 kernel, stride 1, no pad: columns equal the input.
    Tensor x({1, 2, 3, 3});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(i);
    Tensor cols = im2col(x, 1, 1, 0);
    ASSERT_EQ(cols.shape(), (std::vector<std::size_t>{2, 1, 9}));
    for (std::size_t ch = 0; ch < 2; ++ch)
        for (std::size_t p = 0; p < 9; ++p)
            EXPECT_EQ(cols(ch, 0, p), x(0, ch, p / 3, p % 3));
}

TEST(Ops, Im2colKnownPatch)
{
    // Single channel 3x3 input, 3x3 kernel, no pad: single column equal
    // to the flattened image.
    Tensor x({1, 1, 3, 3});
    for (std::size_t i = 0; i < 9; ++i)
        x[i] = static_cast<float>(i + 1);
    Tensor cols = im2col(x, 3, 1, 0);
    ASSERT_EQ(cols.shape(), (std::vector<std::size_t>{9, 1, 1}));
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_EQ(cols(i, 0, 0), static_cast<float>(i + 1));
}

TEST(Ops, Im2colPaddingInsertsZeros)
{
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
    Tensor cols = im2col(x, 3, 1, 1);
    // Output is 2x2; the kernel's top-left tap at output (0,0) reads the
    // padded corner, which must be zero.
    EXPECT_EQ(cols(0, 0, 0), 0.0f);
    // Center tap at output (0,0) reads input (0,0).
    EXPECT_EQ(cols(4, 0, 0), 1.0f);
}

TEST(Ops, Im2colIntoRewritesAReusedBuffer)
{
    // A buffer of the right shape is reused with every element
    // rewritten (padding zeros included); any other shape is replaced.
    Rng rng(4);
    Tensor x({2, 3, 5, 4});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.normal());
    const Tensor want = im2col(x, 3, 2, 1);
    Tensor cols(want.shape(), std::nanf(""));
    const float* storage = cols.data();
    im2colInto(x, 3, 2, 1, cols);
    EXPECT_EQ(cols.data(), storage);
    EXPECT_EQ(cols.flat(), want.flat());
    Tensor wrong({7});
    im2colInto(x, 3, 2, 1, wrong);
    EXPECT_EQ(wrong.shape(), want.shape());
    EXPECT_EQ(wrong.flat(), want.flat());
}

TEST(Ops, Im2colMatchesNaiveReferenceOnRandomShapes)
{
    // im2col is a pure gather into the [K, N, OH*OW] layout, so it
    // must equal the textbook loop bit for bit.
    Rng rng(6);
    int cases = 0;
    while (cases < 150) {
        const std::size_t n = 1 + rng.uniformInt(3);
        const std::size_t c = 1 + rng.uniformInt(4);
        const std::size_t h = 1 + rng.uniformInt(9);
        const std::size_t w = 1 + rng.uniformInt(9);
        const std::size_t kernel = 1 + rng.uniformInt(5);
        const std::size_t stride = 1 + rng.uniformInt(3);
        const std::size_t pad = rng.uniformInt(3);
        if (h + 2 * pad < kernel || w + 2 * pad < kernel)
            continue;
        ++cases;
        const std::size_t oh = convOutSize(h, kernel, stride, pad);
        const std::size_t ow = convOutSize(w, kernel, stride, pad);
        Tensor x({n, c, h, w});
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.normal());

        const Tensor cols = im2col(x, kernel, stride, pad);
        ASSERT_EQ(cols.shape(), (std::vector<std::size_t>{
                                    c * kernel * kernel, n, oh * ow}));
        for (std::size_t img = 0; img < n; ++img)
            for (std::size_t ch = 0; ch < c; ++ch)
                for (std::size_t ky = 0; ky < kernel; ++ky)
                    for (std::size_t kx = 0; kx < kernel; ++kx)
                        for (std::size_t oy = 0; oy < oh; ++oy)
                            for (std::size_t ox = 0; ox < ow; ++ox) {
                                const std::size_t row =
                                    (ch * kernel + ky) * kernel + kx;
                                const long iy =
                                    static_cast<long>(oy * stride + ky) -
                                    static_cast<long>(pad);
                                const long ix =
                                    static_cast<long>(ox * stride + kx) -
                                    static_cast<long>(pad);
                                const bool inside =
                                    iy >= 0 && ix >= 0 &&
                                    iy < static_cast<long>(h) &&
                                    ix < static_cast<long>(w);
                                const auto uy = static_cast<std::size_t>(iy);
                                const auto ux = static_cast<std::size_t>(ix);
                                ASSERT_EQ(cols(row, img, oy * ow + ox),
                                          inside ? x(img, ch, uy, ux) : 0.0f)
                                    << "n=" << n << " c=" << c
                                    << " h=" << h << " w=" << w
                                    << " k=" << kernel << " s=" << stride
                                    << " p=" << pad;
                            }
    }
}

} // namespace
} // namespace mrq
