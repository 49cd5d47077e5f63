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

/**
 * Where the valid cells of a flat conv grid (image pitch iplane, row
 * pitch gw) land: cell (img, i, j) with i < rows and j < cols of tile
 * row r goes to out[img * imagePitch + r * channelPitch +
 * i * rowPitch + j * colStride].
 */
struct GridStore
{
    std::size_t iplane, gw, rows, cols;
    float* out;
    std::size_t imagePitch, channelPitch, rowPitch, colStride;
};

/**
 * Conv epilogue: store rows [r0, r0 + count) of a convTile tile whose
 * column 0 is grid column g0 (columns up to g_end) through @p map,
 * adding add[r] to row r, or @p fill when @p add is null.
 */
void
storeTile(const float* tile, std::size_t g0, std::size_t g_end,
          const GridStore& map, std::size_t r0, std::size_t count,
          const float* add, float fill)
{
    for (std::size_t g = g0; g < g_end;) {
        const std::size_t img = g / map.iplane;
        const std::size_t i = g % map.iplane / map.gw;
        const std::size_t j = g % map.iplane % map.gw;
        if (i >= map.rows) {
            g = (img + 1) * map.iplane;
            continue;
        }
        if (j >= map.cols) {
            g += map.gw - j;
            continue;
        }
        const std::size_t len = std::min(map.cols - j, g_end - g);
        float* dst = map.out + img * map.imagePitch + r0 * map.channelPitch +
                     i * map.rowPitch + j * map.colStride;
        const float* src = tile + (g - g0);
        for (std::size_t r = 0; r < count; ++r) {
            float* drow = dst + r * map.channelPitch;
            const float* srow = src + r * kernels::kConvTileCols;
            const float b = add != nullptr ? add[r0 + r] : fill;
            if (map.colStride == 1) {
                for (std::size_t t = 0; t < len; ++t)
                    drow[t] = srow[t] + b;
            } else {
                for (std::size_t t = 0; t < len; ++t)
                    drow[t * map.colStride] = srow[t] + b;
            }
        }
        g += len;
    }
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
    const std::array<std::size_t, 7> geometry = {n, c, h, wd, kernel,
                                                 stride, pad};
    Tensor y({n, m, oh, ow});
    if (y.empty()) {
        // conv2dBackward reads the shape from here.
        ws.geometry = geometry;
        return y;
    }

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
    ws.gridPitch = gw;
    ws.gridPlane = iplane;
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

    const GridStore out = {iplane, gw, oh, ow, y.data(), m * oplane,
                           oplane, ow, 1};
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
                         ws.taps.data(), k, k, tile});
            // Adding -0 is exact for every float, so the no-bias path
            // shares the bias add (and avoids short memcpys).
            storeTile(tile, g0, std::min(grid, g0 + nr), out, r0,
                      std::min(mr, m - r0), pb, -0.0f);
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

Tensor
conv2dBackward(const Tensor& dy, const Tensor& w, ConvWorkspace& ws,
               Tensor& dw)
{
    const std::size_t n = ws.geometry[0], c = ws.geometry[1];
    const std::size_t h = ws.geometry[2], wd = ws.geometry[3];
    const std::size_t kernel = ws.geometry[4], stride = ws.geometry[5];
    const std::size_t pad = ws.geometry[6];
    require(c != 0, "conv2dBackward: the workspace holds no forward pass");
    const std::size_t k = c * kernel * kernel;
    require(w.rank() == 2 && w.dim(1) == k, "conv2dBackward: weight shape ",
            w.shapeString(), " does not match ", c, " channels of ", kernel,
            "x", kernel);
    const std::size_t m = w.dim(0);
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(wd, kernel, stride, pad);
    require(dy.rank() == 4 && dy.dim(0) == n && dy.dim(1) == m &&
                dy.dim(2) == oh && dy.dim(3) == ow,
            "conv2dBackward: gradient ", dy.shapeString(),
            " does not match the forward input [", n, ", ", c, ", ", h, ", ",
            wd, "]");
    if (dw.rank() != 2 || dw.dim(0) != m || dw.dim(1) != k)
        dw = Tensor({m, k});
    // Zero-filled: the pixels of phases that no tap reaches stay +0.
    Tensor dx({n, c, h, wd});
    if (dy.empty()) {
        dw.zero();
        return dx;
    }
    constexpr std::size_t mr = kernels::kConvTileRows;
    constexpr std::size_t nr = kernels::kConvTileCols;
    constexpr std::size_t gr = kernels::kConvGradTileRows;
    constexpr std::size_t gt = kernels::kConvGradTileTaps;
    const std::size_t plane = oh * ow;

    // Phase r of one axis holds the dX positions a * s + r - pad for a
    // in [lo, hi); it takes the taps r + j * s, j < taps, and position
    // a reads dY at a - j.  Only r < min(s, kernel) has taps.
    const std::size_t span = std::min(stride, kernel);
    const auto axis = [&](std::size_t in, std::size_t r) {
        const auto [lo, hi] = validTapRange(in, in + pad, r, stride, pad);
        return std::array<std::size_t, 3>{lo, hi,
                                          (kernel - 1 - r) / stride + 1};
    };
    // dY sits at (lead_y, lead_x) in a grid of pitch gw and gh rows, so
    // every read a - j >= -lead lands in it.  As in the forward, a read
    // past the pitch wraps into the next row's (or image's) leading
    // zeros: that needs gw and gh to cover every phase's hi.
    std::size_t lead_y = 0, lead_x = 0, gh = 0, gw = 0;
    for (std::size_t r = 0; r < span; ++r) {
        const auto ay = axis(h, r), ax = axis(wd, r);
        lead_y = std::max(lead_y, ay[2] - 1 - std::min(ay[2] - 1, ay[0]));
        lead_x = std::max(lead_x, ax[2] - 1 - std::min(ax[2] - 1, ax[0]));
        gh = std::max(gh, ay[1]);
        gw = std::max(gw, ax[1]);
    }
    gh = std::max(gh, lead_y + oh);
    gw = std::max(gw, lead_x + ow);
    const std::size_t iplane = gh * gw;
    // One zero image after each channel's batch takes the last image's
    // wrap.
    const std::size_t cstride = (n + 1) * iplane;

    // Chain of phase (ry, rx): taps in ascending (ky, kx), each one
    // segment of outC rows in ascending c.
    const std::size_t blocks = kernels::ceilDiv(c, mr);
    ws.phases.clear();
    ws.gradTaps.clear();
    std::size_t items = 0;
    std::size_t reach = m * cstride;
    for (std::size_t ry = 0; ry < span; ++ry)
        for (std::size_t rx = 0; rx < span; ++rx) {
            const auto ay = axis(h, ry), ax = axis(wd, rx);
            if (ay[0] == ay[1] || ax[0] == ax[1])
                continue;
            ConvWorkspace::Phase ph{};
            ph.ry = ry;
            ph.rx = rx;
            ph.y0 = ay[0];
            ph.x0 = ax[0];
            ph.rows = ay[1] - ay[0];
            ph.cols = ax[1] - ax[0];
            ph.chain = ay[2] * ax[2] * m;
            ph.tap0 = ws.gradTaps.size();
            std::size_t max_tap = 0;
            for (std::size_t j = 0; j < ay[2]; ++j)
                for (std::size_t jx = 0; jx < ax[2]; ++jx)
                    for (std::size_t o = 0; o < m; ++o) {
                        const std::size_t tap =
                            o * cstride + (ph.y0 + lead_y - j) * gw +
                            (ph.x0 + lead_x - jx);
                        ws.gradTaps.push_back(tap);
                        max_tap = std::max(max_tap, tap);
                    }
            ph.grid = (n - 1) * iplane + (ph.rows - 1) * gw + ph.cols;
            const std::size_t tiles = kernels::ceilDiv(ph.grid, nr);
            ph.item0 = items;
            items += tiles * blocks;
            reach = std::max(reach, tiles * nr + max_tap);
            ws.phases.push_back(ph);
        }

    // Rotated weights packed [phase][row block][chain][kConvTileRows]:
    // chain entry (j, jx, o) of row ch is w(o, (ch, ky, kx)).
    ws.panel.assign(blocks * mr * ws.gradTaps.size(), 0.0f);
    for (const ConvWorkspace::Phase& ph : ws.phases) {
        const std::size_t taps_x = (kernel - 1 - ph.rx) / stride + 1;
        for (std::size_t ch = 0; ch < c; ++ch)
            for (std::size_t kk = 0; kk < ph.chain; ++kk) {
                const std::size_t tap = kk / m, o = kk % m;
                const std::size_t ky = ph.ry + tap / taps_x * stride;
                const std::size_t kx = ph.rx + tap % taps_x * stride;
                ws.panel[((ph.tap0 * blocks + ch / mr * ph.chain) + kk) * mr +
                         ch % mr] = w(o, (ch * kernel + ky) * kernel + kx);
            }
    }

    // dY into both layouts.  Values land on the same slots while the
    // geometry is the same, so the zeros are written only when it
    // changes.
    const std::size_t ldc = kernels::ceilDiv(m, gr) * gr;
    const std::array<std::size_t, 8> grad_geometry = {
        n, c, h, wd, kernel, stride, pad, m};
    if (grad_geometry != ws.gradGeometry) {
        ws.gradGeometry = grad_geometry;
        ws.grad.assign(reach, 0.0f);
        ws.gradRows.assign(n * plane * ldc, 0.0f);
    }
    const float* pdy = dy.data();
    float* pgrad = ws.grad.data();
    float* prows = ws.gradRows.data();
    parallelFor(n, parallelGrain(2 * m * plane),
                [&](std::size_t i0, std::size_t i1) {
        for (std::size_t img = i0; img < i1; ++img)
            for (std::size_t o = 0; o < m; ++o) {
                const float* src = pdy + (img * m + o) * plane;
                float* padded = pgrad + o * cstride + img * iplane +
                                lead_y * gw + lead_x;
                float* rows = prows + img * plane * ldc + o;
                for (std::size_t oy = 0; oy < oh; ++oy)
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const float v = src[oy * ow + ox];
                        padded[oy * gw + ox] = v;
                        rows[(oy * ow + ox) * ldc] = v;
                    }
            }
    });

    const kernels::KernelTable& kt = kernels::kernels();
    {
        // Counted as the [K, outC] x [outC, N*OH*OW] product it is.
        kernels::KernelRegion kr(
            kernels::KernelId::GemmAxpy,
            static_cast<std::int64_t>(k * m * n * plane));
        float* pdx = dx.data();
        const std::size_t taps_max = kernels::ceilDiv(kernel, stride);
        parallelFor(items, parallelGrain(mr * nr * m * taps_max * taps_max),
                    [&](std::size_t t0, std::size_t t1) {
            alignas(64) float tile[mr * nr];
            std::size_t p = 0;
            for (std::size_t t = t0; t < t1; ++t) {
                while (p + 1 < ws.phases.size() && ws.phases[p + 1].item0 <= t)
                    ++p;
                const ConvWorkspace::Phase& ph = ws.phases[p];
                const std::size_t g0 = (t - ph.item0) / blocks * nr;
                const std::size_t b = (t - ph.item0) % blocks;
                kt.convTile({ws.panel.data() +
                                 (ph.tap0 * blocks + b * ph.chain) * mr,
                             pgrad + g0, ws.gradTaps.data() + ph.tap0,
                             ph.chain, m, tile});
                // Adding +0 gives the sum col2im's zeroed pixel gave:
                // it differs from the bare sum only when that is -0.
                const GridStore out = {
                    iplane, gw, ph.rows, ph.cols,
                    pdx + (ph.y0 * stride + ph.ry - pad) * wd +
                        (ph.x0 * stride + ph.rx - pad),
                    c * h * wd, h * wd, stride * wd, stride};
                storeTile(tile, g0, std::min(ph.grid, g0 + nr), out, b * mr,
                          std::min(mr, c - b * mr), nullptr, 0.0f);
            }
        });
    }

    // dW tiles of gr channels by gt taps read the forward's grid: tap
    // r of output (oy, ox) is at taps[r] + oy * pitch + ox.
    ws.gradPos.resize(plane);
    for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox)
            ws.gradPos[oy * ow + ox] = oy * ws.gridPitch + ox;
    kernels::KernelRegion kr(kernels::KernelId::GemmDot,
                             static_cast<std::int64_t>(n * m * k * plane));
    const std::size_t tap_blocks = kernels::ceilDiv(k, gt);
    parallelFor(ldc / gr * tap_blocks, parallelGrain(gr * gt * n * plane),
                [&](std::size_t t0, std::size_t t1) {
        alignas(64) float tile[gr * gt];
        for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t c0 = t / tap_blocks * gr;
            const std::size_t r0 = t % tap_blocks * gt;
            // A partial last block repeats its last tap.
            std::size_t taps[gt];
            for (std::size_t q = 0; q < gt; ++q)
                taps[q] = ws.taps[std::min(r0 + q, k - 1)];
            kt.convGradTile({prows + c0, ldc, ws.input.data(),
                             ws.gridPlane, ws.gradPos.data(), plane, taps,
                             n, tile});
            for (std::size_t q = 0; q < std::min(gt, k - r0); ++q)
                for (std::size_t i = 0; i < std::min(gr, m - c0); ++i)
                    dw(c0 + i, r0 + q) = tile[q * gr + i];
        }
    });
    return dx;
}

} // namespace mrq
