#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "kernels/kernels.hpp"
#include "kernels/roofline.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {

namespace {

/**
 * Shared body of the axpy-row products C = op(A) * B, where op(A)'s
 * element (i, kk) sits at pa[i * a_row + kk * a_col].  Each output
 * element accumulates one fma per nonzero op(A)(i, kk) in ascending-k
 * order.  Rows of C are independent; rows longer than
 * kGemmColumnBlock are further cut into fixed column blocks (tiles
 * walk the rows of one block before the next, so its B panel is
 * reused).  Chunk boundaries depend only on the shape, so the bits
 * match the serial loop at any thread count and any tile width.
 */
void
axpyRowGemm(const float* pa, std::size_t a_row, std::size_t a_col,
            const float* pb, float* pc, std::size_t m, std::size_t k,
            std::size_t n)
{
    const kernels::KernelTable& kt = kernels::kernels();
    kernels::KernelRegion kr(kernels::KernelId::GemmAxpy,
                             static_cast<std::int64_t>(m * k * n));
    const auto tile = [&](std::size_t i, std::size_t j0, std::size_t j1) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float aik = pa[i * a_row + kk * a_col];
            if (aik == 0.0f)
                continue;
            kt.axpy(aik, pb + kk * n + j0, pc + i * n + j0, j1 - j0);
        }
    };
    constexpr std::size_t nb = kernels::kGemmColumnBlock;
    if (n <= nb) {
        parallelFor(m, parallelGrain(k * n),
                    [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i)
                tile(i, 0, n);
        });
        return;
    }
    const std::size_t blocks = kernels::ceilDiv(n, nb);
    parallelFor(blocks * m, parallelGrain(k * nb),
                [&](std::size_t t0, std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t j0 = (t / m) * nb;
            tile(t % m, j0, std::min(n, j0 + nb));
        }
    });
}

/**
 * Output positions [lo, hi) along one axis whose input coordinate
 * o * stride + tap - pad lies inside [0, in).
 */
std::pair<std::size_t, std::size_t>
validTapRange(std::size_t in, std::size_t out, std::size_t tap,
              std::size_t stride, std::size_t pad)
{
    const std::size_t lo = std::min(
        out, tap >= pad ? 0 : kernels::ceilDiv(pad - tap, stride));
    const std::size_t lim = in + pad > tap ? in + pad - tap : 0;
    const std::size_t hi =
        std::max(lo, std::min(out, kernels::ceilDiv(lim, stride)));
    return {lo, hi};
}

} // namespace

Tensor
matmul(const Tensor& a, const Tensor& b)
{
    require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    require(b.dim(0) == k, "matmul: inner dimensions differ: ",
            a.shapeString(), " x ", b.shapeString());

    Tensor c({m, n});
    axpyRowGemm(a.data(), k, 1, b.data(), c.data(), m, k, n);
    return c;
}

Tensor
matmulTransA(const Tensor& a, const Tensor& b)
{
    require(a.rank() == 2 && b.rank() == 2,
            "matmulTransA: rank-2 tensors required");
    const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    require(b.dim(0) == k, "matmulTransA: inner dimensions differ");

    Tensor c({m, n});
    axpyRowGemm(a.data(), 1, m, b.data(), c.data(), m, k, n);
    return c;
}

Tensor
matmulTransB(const Tensor& a, const Tensor& b)
{
    require(a.rank() == 2 && b.rank() == 2,
            "matmulTransB: rank-2 tensors required");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    require(b.dim(1) == k, "matmulTransB: inner dimensions differ");

    Tensor c({m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* pc = c.data();
    // Each output element is one dot() call, so the value follows the
    // kernel substrate's fixed 16-lane reduction tree at any thread
    // count and any MRQ_ISA.
    const kernels::KernelTable& kt = kernels::kernels();
    kernels::KernelRegion kr(kernels::KernelId::GemmDot,
                             static_cast<std::int64_t>(m * k * n));
    parallelFor(m, parallelGrain(k * n), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
            const float* arow = pa + i * k;
            float* crow = pc + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = kt.dot(arow, pb + j * k, k);
        }
    });
    return c;
}

Tensor
transpose2d(const Tensor& a)
{
    require(a.rank() == 2, "transpose2d: rank-2 tensor required");
    const std::size_t m = a.dim(0), n = a.dim(1);
    Tensor t({n, m});
    parallelFor(m, parallelGrain(n), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
            for (std::size_t j = 0; j < n; ++j)
                t(j, i) = a(i, j);
    });
    return t;
}

Tensor
im2col(const Tensor& input, std::size_t kernel, std::size_t stride,
       std::size_t pad)
{
    Tensor cols;
    im2colInto(input, kernel, stride, pad, cols);
    return cols;
}

void
im2colInto(const Tensor& input, std::size_t kernel, std::size_t stride,
           std::size_t pad, Tensor& cols)
{
    require(input.rank() == 4, "im2col: NCHW input required");
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(w, kernel, stride, pad);
    const std::size_t plane = oh * ow;
    const std::size_t rows = c * kernel * kernel;

    // Every element is written below, so a buffer of the right shape
    // is reused as is.
    if (cols.shape() != std::vector<std::size_t>{rows, n, plane})
        cols = Tensor({rows, n, plane});
    const float* px = input.data();
    float* pc = cols.data();
    // Row (ch, ky, kx) is one disjoint band of N * OH*OW columns.  In
    // each output row the in-range taps are one run of an input row:
    // contiguous at stride 1, strided otherwise; the rest is padding.
    parallelFor(rows, parallelGrain(n * plane),
                [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t ch = r / (kernel * kernel);
            const std::size_t ky = r / kernel % kernel;
            const std::size_t kx = r % kernel;
            const auto [lo, hi] = validTapRange(w, ow, kx, stride, pad);
            for (std::size_t img = 0; img < n; ++img) {
                const float* src = px + (img * c + ch) * h * w;
                float* dst = pc + (r * n + img) * plane;
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    float* drow = dst + oy * ow;
                    const long iy = static_cast<long>(oy * stride + ky) -
                                    static_cast<long>(pad);
                    if (iy < 0 || iy >= static_cast<long>(h)) {
                        std::fill(drow, drow + ow, 0.0f);
                        continue;
                    }
                    std::fill(drow, drow + lo, 0.0f);
                    std::fill(drow + hi, drow + ow, 0.0f);
                    if (lo == hi)
                        continue;
                    // Output column lo + t reads input column
                    // ix0 + t * stride.
                    const float* srow = src +
                                        static_cast<std::size_t>(iy) * w +
                                        (lo * stride + kx - pad);
                    if (stride == 1) {
                        std::copy(srow, srow + (hi - lo), drow + lo);
                    } else {
                        for (std::size_t t = 0; t < hi - lo; ++t)
                            drow[lo + t] = srow[t * stride];
                    }
                }
            }
        }
    });
}

Tensor
col2im(const Tensor& cols, std::size_t c, std::size_t h, std::size_t w,
       std::size_t kernel, std::size_t stride, std::size_t pad)
{
    require(cols.rank() == 3, "col2im: rank-3 columns required");
    const std::size_t n = cols.dim(1);
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(w, kernel, stride, pad);
    const std::size_t plane = oh * ow;
    require(cols.dim(0) == c * kernel * kernel && cols.dim(2) == plane,
            "col2im: column shape mismatch");

    Tensor img({n, c, h, w});
    const float* pc = cols.data();
    float* pi = img.data();
    // Scatter-adds from one (image, channel) pair land only in that
    // pair's plane, so pairs are independent; each pixel accumulates
    // its taps in (ky, kx, oy, ox) order.
    parallelFor(n * c, parallelGrain(kernel * kernel * plane),
                [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
            const std::size_t im = p / c;
            const std::size_t ch = p % c;
            float* dst = pi + p * h * w;
            for (std::size_t ky = 0; ky < kernel; ++ky) {
                for (std::size_t kx = 0; kx < kernel; ++kx) {
                    const std::size_t row = (ch * kernel + ky) * kernel + kx;
                    const float* src = pc + (row * n + im) * plane;
                    const auto [lo, hi] =
                        validTapRange(w, ow, kx, stride, pad);
                    if (lo == hi)
                        continue;
                    for (std::size_t oy = 0; oy < oh; ++oy) {
                        const long iy = static_cast<long>(oy * stride + ky) -
                                        static_cast<long>(pad);
                        if (iy < 0 || iy >= static_cast<long>(h))
                            continue;
                        float* drow = dst +
                                      static_cast<std::size_t>(iy) * w +
                                      (lo * stride + kx - pad);
                        const float* srow = src + oy * ow + lo;
                        for (std::size_t t = 0; t < hi - lo; ++t)
                            drow[t * stride] += srow[t];
                    }
                }
            }
        }
    });
    return img;
}

Tensor
conv2dForward(const Tensor& x, const Tensor& w, const Tensor* bias,
              std::size_t kernel, std::size_t stride, std::size_t pad,
              ConvWorkspace& ws)
{
    require(x.rank() == 4, "conv2dForward: NCHW input required");
    const std::size_t n = x.dim(0), c = x.dim(1);
    const std::size_t h = x.dim(2), wd = x.dim(3);
    const std::size_t m = w.dim(0), k = c * kernel * kernel;
    require(w.rank() == 2 && w.dim(1) == k,
            "conv2dForward: weight shape ", w.shapeString(),
            " does not match ", c, " channels of ", kernel, "x", kernel);
    require(bias == nullptr || bias->size() == m,
            "conv2dForward: bias size mismatch");
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(wd, kernel, stride, pad);
    const std::size_t oplane = oh * ow;
    Tensor y({n, m, oh, ow});
    if (y.empty())
        return y;

    // Phase plane (py, px) holds padded pixel (i*s + py, j*s + px) at
    // (i, j), so output (oy, ox) reads tap (ky, kx) at phase
    // (ky % s, kx % s), position (oy + ky / s, ox + kx / s): one flat
    // offset per tap on a grid of row pitch gw and image pitch gh
    // rows.  Only phases some tap reads are built.
    constexpr std::size_t mr = kernels::kConvTileRows;
    constexpr std::size_t nr = kernels::kConvTileCols;
    const std::size_t phases = std::min(stride, kernel);
    // A pitch holds every phase's leading zeros and pixels but drops
    // its trailing zeros: a read past the pitch wraps into the leading
    // zeros of the next row (or image), which read as the same zero.
    const auto pitch = [&](std::size_t in, std::size_t out) {
        std::size_t p = out;
        for (std::size_t ph = 0; ph < phases; ++ph) {
            const auto [lead, end] =
                validTapRange(in, in + 2 * pad, ph, stride, pad);
            const std::size_t reach = out + (kernel - 1 - ph) / stride;
            p = std::max({p, end, reach > lead ? reach - lead : 0});
        }
        return p;
    };
    const std::size_t gh = pitch(h, oh);
    const std::size_t gw = pitch(wd, ow);
    const std::size_t iplane = gh * gw;
    // One zero image after each phase plane's batch takes the wrap of
    // its last image.
    const std::size_t phase_stride = (n + 1) * iplane;
    const std::size_t ch_stride = phases * phases * phase_stride;
    const std::size_t grid = (n - 1) * iplane + (oh - 1) * gw + ow;
    const std::size_t tiles = kernels::ceilDiv(grid, nr);

    ws.taps.resize(k);
    std::size_t max_tap = 0;
    for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t ky = 0; ky < kernel; ++ky)
            for (std::size_t kx = 0; kx < kernel; ++kx) {
                const std::size_t tap =
                    ch * ch_stride +
                    ((ky % stride) * phases + kx % stride) * phase_stride +
                    (ky / stride) * gw + kx / stride;
                ws.taps[(ch * kernel + ky) * kernel + kx] = tap;
                max_tap = std::max(max_tap, tap);
            }

    // Everything but the input pixels is zero: the padding, the zero
    // images, and the tail past the last plane that the final tile's
    // widest tap reads (only into discarded columns).
    // Pixels land on the same slots while the geometry stays the same,
    // so the zeros are written only when it changes.
    const std::array<std::size_t, 7> geometry = {n, c, h, wd, kernel,
                                                 stride, pad};
    if (geometry != ws.geometry) {
        ws.geometry = geometry;
        ws.input.assign(std::max(c * ch_stride, tiles * nr + max_tap), 0.0f);
    }
    const float* px = x.data();
    float* pp = ws.input.data();
    parallelFor(c * n, parallelGrain(phases * phases * iplane),
                [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
            const std::size_t ch = p / n, img = p % n;
            const float* src = px + (img * c + ch) * h * wd;
            for (std::size_t py = 0; py < phases; ++py) {
                const auto [ylo, yhi] = validTapRange(h, gh, py, stride, pad);
                for (std::size_t pxp = 0; pxp < phases; ++pxp) {
                    const auto [xlo, xhi] =
                        validTapRange(wd, gw, pxp, stride, pad);
                    float* dst = pp + ch * ch_stride +
                                 (py * phases + pxp) * phase_stride +
                                 img * iplane + xlo;
                    // Grid (i, xlo + t) holds input pixel
                    // (i * stride + py - pad, ix0 + t * stride).  The
                    // rows are short, so a plain loop beats memcpy.
                    for (std::size_t i = ylo; i < yhi; ++i) {
                        const float* srow = src + (i * stride + py - pad) * wd +
                                            (xlo * stride + pxp - pad);
                        float* drow = dst + i * gw;
                        for (std::size_t t = 0; t < xhi - xlo; ++t)
                            drow[t] = srow[t * stride];
                    }
                }
            }
        }
    });

    // Weights packed [row block][k][kConvTileRows]; rows past m are
    // zero, so the kernel skips them and the epilogue drops them.
    const std::size_t blocks = kernels::ceilDiv(m, mr);
    ws.panel.assign(blocks * k * mr, 0.0f);
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t kk = 0; kk < k; ++kk)
            ws.panel[((r / mr) * k + kk) * mr + r % mr] = w(r, kk);

    float* py_out = y.data();
    const float* pb = bias != nullptr ? bias->data() : nullptr;
    const kernels::KernelTable& kt = kernels::kernels();
    kernels::KernelRegion kr(kernels::KernelId::GemmAxpy,
                             static_cast<std::int64_t>(m * k * n * oplane));
    // Row blocks of one column tile are adjacent items, so they reuse
    // its B runs from cache.  Each output element belongs to exactly
    // one item, whatever the chunking.
    parallelFor(tiles * blocks, parallelGrain(mr * nr * k),
                [&](std::size_t t0, std::size_t t1) {
        alignas(64) float tile[mr * nr];
        for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t g0 = (t / blocks) * nr;
            const std::size_t r0 = (t % blocks) * mr;
            kt.convTile({ws.panel.data() + (r0 / mr) * k * mr, pp + g0,
                         ws.taps.data(), k, tile});
            // Epilogue: each valid run of one output row goes to y.
            const std::size_t rows = std::min(mr, m - r0);
            const std::size_t g_end = std::min(grid, g0 + nr);
            for (std::size_t g = g0; g < g_end;) {
                const std::size_t img = g / iplane;
                const std::size_t oy = g % iplane / gw;
                const std::size_t ox = g % iplane % gw;
                if (oy >= oh) {
                    g = (img + 1) * iplane;
                    continue;
                }
                if (ox >= ow) {
                    g += gw - ox;
                    continue;
                }
                const std::size_t len = std::min(ow - ox, g_end - g);
                float* dst = py_out + (img * m + r0) * oplane + oy * ow + ox;
                const float* src = tile + (g - g0);
                // Adding -0 is exact for every float, so the no-bias
                // path shares the loop (and avoids short memcpys).
                for (std::size_t i = 0; i < rows; ++i) {
                    float* drow = dst + i * oplane;
                    const float* srow = src + i * nr;
                    const float b = pb != nullptr ? pb[r0 + i] : -0.0f;
                    for (std::size_t j = 0; j < len; ++j)
                        drow[j] = srow[j] + b;
                }
                g += len;
            }
        }
    });
    if (pb != nullptr)
        // The bias add is counted as the per-channel addScalarInPlace
        // it replaces.
        kernels::recordKernelElems(
            kernels::KernelId::AddScalar,
            static_cast<std::int64_t>(m * n * oplane));
    return y;
}

} // namespace mrq
