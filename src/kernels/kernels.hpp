/**
 * @file
 * Blocked micro-kernels behind the runtime ISA dispatch table.
 *
 * Every floating-point hot loop in the library (dense matmul tiles,
 * conv inner loops, LSTM gate pointwise math, the UQ lattice
 * projection) and the hw-sim term-pair integer reductions route
 * through the function pointers in KernelTable.  Three variants of
 * the table exist in one binary — generic scalar, AVX2 and AVX-512,
 * compiled with per-file ISA flags (src/CMakeLists.txt) — and
 * kernels() returns the one matching the active ISA (isa.hpp).
 *
 * Determinism contract
 * --------------------
 * Switching ISA must never change an output bit, at any MRQ_THREADS.
 * Each kernel therefore pins its floating-point semantics:
 *
 *  - dot() reduces through kDotLanes virtual accumulator lanes
 *    (blocking.hpp): element i lands in lane i % kDotLanes via one
 *    fused multiply-add, and the lanes collapse in a fixed binary
 *    tree (lane l absorbs lane l + 8, then l + 4, l + 2, l + 1).
 *    The generic build keeps 16 scalar accumulators and runs the
 *    identical tree.  convGradTile keeps each of its dots' lanes and
 *    tree, vectorized across dots instead of across lanes.
 *  - Elementwise kernels (axpy, addRowInPlace, addScalarInPlace,
 *    lstmGates) have one FP operation per element, so only the
 *    operation itself needs pinning: multiplies and adds are IEEE
 *    single-precision, and every a*b+c is an explicit fma (the SIMD
 *    variants use vfmadd, the generic build std::fma — never the
 *    compiler's choice under -ffp-contract).
 *  - The lattice kernels replicate UniformQuantizer's
 *    round-half-away-from-zero exactly (see kernel_scalar.hpp for
 *    the tie-fix construction shared with the SIMD variants).
 *  - Transcendentals (sigmoid/tanh in lstmGates) always call scalar
 *    libm, in every variant; only the surrounding fma/mul passes are
 *    vectorized.
 *  - Integer kernels (termPairAccumulate, weightedBucketSum) are
 *    associative, so any evaluation order is exact.
 */

#ifndef MRQ_KERNELS_KERNELS_HPP
#define MRQ_KERNELS_KERNELS_HPP

#include <cstddef>
#include <cstdint>

#include "kernels/blocking.hpp"
#include "kernels/isa.hpp"

namespace mrq {
namespace kernels {

/**
 * Uniform-lattice mapping parameters (mirrors UniformQuantizer).
 * Kernels clamp the scaled input to +-2^22 before rounding so every
 * intermediate is exactly representable in float; makeLatticeParams
 * checks that the lattice itself fits under that bound.
 */
struct LatticeParams
{
    float scale = 1.0f;   ///< Real step between lattice levels.
    std::int32_t lo = 0;  ///< Smallest level (-qmax or 0).
    std::int32_t hi = 0;  ///< Largest level (qmax).
};

/**
 * Operands of one implicit-GEMM conv tile (KernelTable::convTile):
 * C[i][j] = sum over kk of a[kk][i] * b[taps[kk] + j], for
 * i < kConvTileRows and j < kConvTileCols.  Row kk of B is the
 * contiguous run starting taps[kk] floats past @p b, so B is read
 * straight from a padded input and never materialized.
 *
 * The chain is cut into segments of @p seg rows: each segment sums
 * from +0 on its own, and C is s_0 + s_1 + ... folded in segment
 * order (C is s_0 itself when seg == k).  The forward conv is one
 * segment; the dX conv is one segment of outC rows per tap, which is
 * col2im's per-tap sum.
 */
struct ConvTileArgs
{
    const float* a;           ///< Packed weights, [k][kConvTileRows].
    const float* b;           ///< B origin of the tile's column 0.
    const std::size_t* taps;  ///< Offset of B row kk from @p b.
    std::size_t k;            ///< Chain length (rows of B), > 0.
    std::size_t seg;          ///< Segment length; divides k.
    float* c;                 ///< Output, [kConvTileRows][kConvTileCols].
};

/**
 * Operands of one conv weight-gradient tile (KernelTable::convGradTile):
 * for channel i < kConvGradTileRows and tap r < kConvGradTileTaps,
 * dw[r][i] = +0 + d_0 + d_1 + ... + d_{n-1}, where d_img is the dot
 * over p < plane of dy[img][p][i] and x[img][pos[p] + taps[r]], in
 * dot()'s order: p lands in lane p % kDotLanes by fma(dy, x, lane),
 * and the lanes collapse in dot()'s tree.  dY is read channel-minor
 * and x from the forward's padded grid, so neither is gathered into
 * rows first.
 */
struct ConvGradTileArgs
{
    const float* dy;          ///< dY of image 0, [plane][ldc], at channel 0.
    std::size_t ldc;          ///< Row pitch of dy; image pitch plane * ldc.
    const float* x;           ///< Padded input grid of image 0.
    std::size_t xImage;       ///< Image pitch of x.
    const std::size_t* pos;   ///< Grid offset of output position p.
    std::size_t plane;        ///< Output positions per image.
    const std::size_t* taps;  ///< Grid offset of each tap.
    std::size_t n;            ///< Images.
    float* dw;                ///< Output, [kConvGradTileTaps][kConvGradTileRows].
};

/**
 * One ISA variant of every micro-kernel.  All function pointers are
 * non-null in a table returned by kernels() / kernelTableFor().
 */
struct KernelTable
{
    /** The ISA this table's code was compiled for. */
    Isa isa = Isa::Generic;

    /** 16-lane tree dot product: sum_i a[i] * b[i]. */
    float (*dot)(const float* a, const float* b, std::size_t n);

    /** y[i] = fma(a, x[i], y[i]) — the matmul/conv tile update. */
    void (*axpy)(float a, const float* x, float* y, std::size_t n);

    /**
     * Implicit-GEMM conv tile (ConvTileArgs).  Each segment sum
     * starts at +0 and takes s = fma(a, b, s) for every kk in
     * ascending order whose a != 0 — the same chain as axpy-row
     * matmul, zero skip included (masked fma on AVX-512, a blend on
     * AVX2, a branch in generic) — and C adds the segments in order.
     */
    void (*convTile)(const ConvTileArgs& t);

    /**
     * Conv weight-gradient tile (ConvGradTileArgs): every output is
     * dot()'s 16-lane sum per image, folded over images in order from
     * +0 — the per-image dot loop's bits, many dots per pass.
     */
    void (*convGradTile)(const ConvGradTileArgs& t);

    /** y[i] += row[i] (bias rows, elementwise tensor adds). */
    void (*addRowInPlace)(float* y, const float* row, std::size_t n);

    /** y[i] += v (per-channel conv bias). */
    void (*addScalarInPlace)(float* y, float v, std::size_t n);

    /** q[i] = clamp(lround(x[i] / scale), lo, hi). */
    void (*latticeQuantize)(const float* x, std::int32_t* q,
                            std::size_t n, LatticeParams p);

    /** out[i] = float(q[i]) * scale. */
    void (*latticeDequant)(const std::int32_t* q, float* out,
                           std::size_t n, float scale);

    /** out[i] = float(clamp(lround(x[i] / scale), lo, hi)) * scale. */
    void (*latticeRoundTrip)(const float* x, float* out, std::size_t n,
                             LatticeParams p);

    /**
     * LSTM gate pointwise pass for one batch row.  @p z and @p gates
     * are length 4 * hidden in [input | forget | cell | output]
     * block layout; @p c_prev, @p c_next, @p h_next are length
     * hidden.  Computes gates = activations(z),
     * c_next = fma(g_f, c_prev, g_i * g_g),
     * h_next = g_o * tanh(c_next).
     */
    void (*lstmGates)(const float* z, const float* c_prev, float* gates,
                      float* c_next, float* h_next, std::size_t hidden);

    /**
     * Hw-sim term-pair accumulate: y_in + sum_i signs[i] * 2^exps[i]
     * (exact in int64; exps[i] in [0, kMaxTermExponent)).
     */
    std::int64_t (*termPairAccumulate)(const std::int16_t* exps,
                                       const std::int8_t* signs,
                                       std::size_t n, std::int64_t y_in);

    /** Laconic bucket reduction: sum_e buckets[e] * 2^e. */
    std::int64_t (*weightedBucketSum)(const std::int64_t* buckets,
                                      std::size_t n);
};

namespace detail {

/** ISA variant tables; nullptr when the compiler could not build the
 *  variant (defined in kernels_avx2.cpp / kernels_avx512.cpp). */
const KernelTable* avx2Table();
const KernelTable* avx512Table();

} // namespace detail

/** The table for the active ISA (isa.hpp); resolved per call so
 *  setActiveIsa() in tests takes effect immediately. */
const KernelTable& kernels();

/** Table for a specific ISA, or nullptr when that variant is not
 *  compiled in or the CPU lacks it (parity tests and benches). */
const KernelTable* kernelTableFor(Isa isa);

/** Build LatticeParams from quantizer fields; checks qmax <= 2^22 so
 *  the kernels' pre-round clamp can never bite a legal level. */
LatticeParams makeLatticeParams(int bits, float scale, bool is_signed);

} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_KERNELS_HPP
