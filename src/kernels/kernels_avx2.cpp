/**
 * @file
 * AVX2 + FMA kernel variant.
 *
 * Compiled with -mavx2 -mfma via per-source flags (src/CMakeLists.txt
 * defines MRQ_KERNELS_HAVE_AVX2 when the compiler accepts them);
 * without compiler support the TU degrades to a nullptr table and the
 * dispatcher never offers this ISA.
 *
 * Every kernel restates the generic construction lane for lane
 * (kernel_scalar.hpp): the 16 virtual dot lanes map to two ymm
 * accumulators, tails use fault-suppressing vmaskmov loads and blend
 * the old accumulator back on lanes past n (an fma of the zeroed
 * lanes is not a no-op: fma(0, 0, -0) is +0, and an accumulator lane
 * is -0 whenever its products all underflow to -0), and the lattice
 * rounding uses
 * the same trunc / tie-blend / nearest sequence.  Bit-identity with
 * the generic table is enforced by tests/kernels/.
 */

#include "kernels/kernels.hpp"

#ifdef MRQ_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "kernels/kernel_scalar.hpp"

namespace mrq {
namespace kernels {

namespace {

/** Lane mask selecting the first k of 8 lanes (1 <= k <= 8). */
inline __m256i
tailMask8(std::size_t k)
{
    alignas(32) static const std::int32_t source[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(source + 8 - k));
}

/** Collapse the 16 virtual lanes (two ymm halves) with the fixed
 *  tree: lane l absorbs l+8, then l+4, l+2, l+1. */
inline float
reduceLanes16(__m256 lo, __m256 hi)
{
    const __m256 s8 = _mm256_add_ps(lo, hi);
    const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                                 _mm256_extractf128_ps(s8, 1));
    const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    const __m128 s1 =
        _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
    return _mm_cvtss_f32(s1);
}

float
dotAvx2(const float* a, const float* b, std::size_t n)
{
    __m256 acc_lo = _mm256_setzero_ps(); // virtual lanes 0..7
    __m256 acc_hi = _mm256_setzero_ps(); // virtual lanes 8..15
    std::size_t i = 0;
    const std::size_t full = n - n % kDotLanes;
    for (; i < full; i += kDotLanes) {
        acc_lo = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                                 _mm256_loadu_ps(b + i), acc_lo);
        acc_hi = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                                 _mm256_loadu_ps(b + i + 8), acc_hi);
    }
    const std::size_t rem = n - i;
    if (rem != 0) {
        const __m256i m_lo = tailMask8(rem < 8 ? rem : 8);
        acc_lo = _mm256_blendv_ps(
            acc_lo,
            _mm256_fmadd_ps(_mm256_maskload_ps(a + i, m_lo),
                            _mm256_maskload_ps(b + i, m_lo), acc_lo),
            _mm256_castsi256_ps(m_lo));
        if (rem > 8) {
            const __m256i m_hi = tailMask8(rem - 8);
            acc_hi = _mm256_blendv_ps(
                acc_hi,
                _mm256_fmadd_ps(_mm256_maskload_ps(a + i + 8, m_hi),
                                _mm256_maskload_ps(b + i + 8, m_hi),
                                acc_hi),
                _mm256_castsi256_ps(m_hi));
        }
    }
    return reduceLanes16(acc_lo, acc_hi);
}

void
axpyAvx2(float a, const float* x, float* y, std::size_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 r = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                                         _mm256_loadu_ps(y + i));
        _mm256_storeu_ps(y + i, r);
    }
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        const __m256 r = _mm256_fmadd_ps(av, _mm256_maskload_ps(x + i, m),
                                         _mm256_maskload_ps(y + i, m));
        _mm256_maskstore_ps(y + i, m, r);
    }
}

/** The tile in 16-column strips (two ymm per row, eight
 *  accumulators); the zero skip blends the old accumulator back
 *  where a == 0 (unordered-not-equal, so a NaN weight still runs). */
void
convTileAvx2(const ConvTileArgs& t)
{
    constexpr std::size_t kStrip = 16;
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t j0 = 0; j0 < kConvTileCols; j0 += kStrip)
        for (std::size_t s0 = 0; s0 < t.k; s0 += t.seg) {
            __m256 acc[kConvTileRows][2];
            for (std::size_t i = 0; i < kConvTileRows; ++i)
                acc[i][0] = acc[i][1] = zero;
            for (std::size_t kk = s0; kk < s0 + t.seg; ++kk) {
                const float* brow = t.b + t.taps[kk] + j0;
                const __m256 b0 = _mm256_loadu_ps(brow);
                const __m256 b1 = _mm256_loadu_ps(brow + 8);
                const float* ak = t.a + kk * kConvTileRows;
                for (std::size_t i = 0; i < kConvTileRows; ++i) {
                    const __m256 av = _mm256_broadcast_ss(ak + i);
                    const __m256 keep =
                        _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
                    acc[i][0] = _mm256_blendv_ps(
                        acc[i][0], _mm256_fmadd_ps(av, b0, acc[i][0]),
                        keep);
                    acc[i][1] = _mm256_blendv_ps(
                        acc[i][1], _mm256_fmadd_ps(av, b1, acc[i][1]),
                        keep);
                }
            }
            for (std::size_t i = 0; i < kConvTileRows; ++i)
                for (std::size_t h = 0; h < 2; ++h) {
                    float* c = t.c + i * kConvTileCols + j0 + 8 * h;
                    _mm256_storeu_ps(
                        c, s0 == 0 ? acc[i][h]
                                   : _mm256_add_ps(_mm256_loadu_ps(c),
                                                   acc[i][h]));
                }
        }
}

/** Sub-tile of the weight-gradient kernel that fits the 16 ymm:
 *  one ymm of channels by two taps. */
constexpr std::size_t kGradTaps = 2;

/** The dots of one image for one 8-channel, two-tap sub-tile. */
struct GradImage
{
    const float* dy;
    std::size_t ldc;
    const float* x;
    const std::size_t* pos;
    std::size_t plane;
    const std::size_t* taps;
};

/** dot()'s lane tree, depth first, as in the AVX-512 variant:
 *  node (l, H) adds node (l + H, 2H) to node (l, 2H); the leaves are
 *  the lanes' fma chains. */
template <std::size_t H>
__attribute__((always_inline)) inline void
gradTree(const GradImage& g, std::size_t l, __m256 (&out)[kGradTaps])
{
    if constexpr (H == kDotLanes) {
        for (std::size_t r = 0; r < kGradTaps; ++r)
            out[r] = _mm256_setzero_ps();
        for (std::size_t p = l; p < g.plane; p += kDotLanes) {
            const __m256 d = _mm256_loadu_ps(g.dy + p * g.ldc);
            const float* xp = g.x + g.pos[p];
            for (std::size_t r = 0; r < kGradTaps; ++r)
                out[r] = _mm256_fmadd_ps(d, _mm256_set1_ps(xp[g.taps[r]]),
                                         out[r]);
        }
    } else {
        __m256 hi[kGradTaps];
        gradTree<2 * H>(g, l, out);
        gradTree<2 * H>(g, l + H, hi);
        for (std::size_t r = 0; r < kGradTaps; ++r)
            out[r] = _mm256_add_ps(out[r], hi[r]);
    }
}

void
convGradTileAvx2(const ConvGradTileArgs& t)
{
    for (std::size_t r0 = 0; r0 < kConvGradTileTaps; r0 += kGradTaps)
        for (std::size_t c0 = 0; c0 < kConvGradTileRows; c0 += 8) {
            __m256 total[kGradTaps];
            for (std::size_t r = 0; r < kGradTaps; ++r)
                total[r] = _mm256_setzero_ps();
            for (std::size_t img = 0; img < t.n; ++img) {
                const GradImage g = {t.dy + img * t.plane * t.ldc + c0,
                                     t.ldc, t.x + img * t.xImage, t.pos,
                                     t.plane, t.taps + r0};
                __m256 d[kGradTaps];
                gradTree<1>(g, 0, d);
                for (std::size_t r = 0; r < kGradTaps; ++r)
                    total[r] = _mm256_add_ps(total[r], d[r]);
            }
            for (std::size_t r = 0; r < kGradTaps; ++r)
                _mm256_storeu_ps(t.dw + (r0 + r) * kConvGradTileRows + c0,
                                 total[r]);
        }
}

void
addRowInPlaceAvx2(float* y, const float* row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i),
                                       _mm256_loadu_ps(row + i)));
    }
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        const __m256 r = _mm256_add_ps(_mm256_maskload_ps(y + i, m),
                                       _mm256_maskload_ps(row + i, m));
        _mm256_maskstore_ps(y + i, m, r);
    }
}

void
addScalarInPlaceAvx2(float* y, float v, std::size_t n)
{
    const __m256 vv = _mm256_set1_ps(v);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i), vv));
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        _mm256_maskstore_ps(
            y + i, m, _mm256_add_ps(_mm256_maskload_ps(y + i, m), vv));
    }
}

/** The pinned quantize pipeline on 8 lanes: divide, clamp to the
 *  round range, round half away from zero, convert, int clamp. */
inline __m256i
latticeQuantize8(__m256 x, const LatticeParams& p)
{
    const __m256 v0 = _mm256_div_ps(x, _mm256_set1_ps(p.scale));
    // minPs / maxPs operand order matches kernel_scalar.hpp.
    const __m256 v1 = _mm256_min_ps(v0, _mm256_set1_ps(kRoundClamp));
    const __m256 v = _mm256_max_ps(v1, _mm256_set1_ps(-kRoundClamp));
    const __m256 t =
        _mm256_round_ps(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 f = _mm256_sub_ps(v, t);
    const __m256 tie = _mm256_or_ps(
        _mm256_cmp_ps(f, _mm256_set1_ps(0.5f), _CMP_EQ_OQ),
        _mm256_cmp_ps(f, _mm256_set1_ps(-0.5f), _CMP_EQ_OQ));
    const __m256 away = _mm256_add_ps(t, _mm256_add_ps(f, f));
    const __m256 near = _mm256_round_ps(
        v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256 r = _mm256_blendv_ps(near, away, tie);
    __m256i q = _mm256_cvttps_epi32(r); // exact: r is integral
    q = _mm256_min_epi32(q, _mm256_set1_epi32(p.hi));
    q = _mm256_max_epi32(q, _mm256_set1_epi32(p.lo));
    return q;
}

void
latticeQuantizeAvx2(const float* x, std::int32_t* q, std::size_t n,
                    LatticeParams p)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                            latticeQuantize8(_mm256_loadu_ps(x + i), p));
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        _mm256_maskstore_epi32(
            q + i, m, latticeQuantize8(_mm256_maskload_ps(x + i, m), p));
    }
}

void
latticeDequantAvx2(const std::int32_t* q, float* out, std::size_t n,
                   float scale)
{
    const __m256 sv = _mm256_set1_ps(scale);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_cvtepi32_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(q + i)));
        _mm256_storeu_ps(out + i, _mm256_mul_ps(v, sv));
    }
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        const __m256 v =
            _mm256_cvtepi32_ps(_mm256_maskload_epi32(q + i, m));
        _mm256_maskstore_ps(out + i, m, _mm256_mul_ps(v, sv));
    }
}

void
latticeRoundTripAvx2(const float* x, float* out, std::size_t n,
                     LatticeParams p)
{
    const __m256 sv = _mm256_set1_ps(p.scale);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i q = latticeQuantize8(_mm256_loadu_ps(x + i), p);
        _mm256_storeu_ps(out + i,
                         _mm256_mul_ps(_mm256_cvtepi32_ps(q), sv));
    }
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        const __m256i q =
            latticeQuantize8(_mm256_maskload_ps(x + i, m), p);
        _mm256_maskstore_ps(out + i, m,
                            _mm256_mul_ps(_mm256_cvtepi32_ps(q), sv));
    }
}

void
lstmGatesAvx2(const float* z, const float* c_prev, float* gates,
              float* c_next, float* h_next, std::size_t hidden)
{
    const float* zi = z;
    const float* zf = z + hidden;
    const float* zg = z + 2 * hidden;
    const float* zo = z + 3 * hidden;
    float* gi = gates;
    float* gf = gates + hidden;
    float* gg = gates + 2 * hidden;
    float* go = gates + 3 * hidden;
    // Pass 1: activations stay scalar libm (identical in every ISA).
    for (std::size_t j = 0; j < hidden; ++j) {
        gi[j] = sigmoidScalar(zi[j]);
        gf[j] = sigmoidScalar(zf[j]);
        gg[j] = std::tanh(zg[j]);
        go[j] = sigmoidScalar(zo[j]);
    }
    // Pass 2: c_next = fma(gf, c_prev, gi * gg), vectorized.
    std::size_t j = 0;
    for (; j + 8 <= hidden; j += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(gi + j),
                                          _mm256_loadu_ps(gg + j));
        const __m256 c = _mm256_fmadd_ps(_mm256_loadu_ps(gf + j),
                                         _mm256_loadu_ps(c_prev + j),
                                         prod);
        _mm256_storeu_ps(c_next + j, c);
    }
    for (; j < hidden; ++j)
        c_next[j] = fmadd(gf[j], c_prev[j], gi[j] * gg[j]);
    // Pass 3: scalar tanh(c).
    for (j = 0; j < hidden; ++j)
        h_next[j] = std::tanh(c_next[j]);
    // Pass 4: h_next *= go, vectorized.
    for (j = 0; j + 8 <= hidden; j += 8)
        _mm256_storeu_ps(h_next + j,
                         _mm256_mul_ps(_mm256_loadu_ps(h_next + j),
                                       _mm256_loadu_ps(go + j)));
    for (; j < hidden; ++j)
        h_next[j] *= go[j];
}

std::int64_t
termPairAccumulateAvx2(const std::int16_t* exps, const std::int8_t* signs,
                       std::size_t n, std::int64_t y_in)
{
    __m256i acc = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        std::uint64_t e_bits = 0;
        std::memcpy(&e_bits, exps + i, 8);
        const __m256i e64 =
            _mm256_cvtepi16_epi64(_mm_cvtsi64_si128(
                static_cast<long long>(e_bits)));
        const __m256i mag = _mm256_sllv_epi64(one, e64);
        std::uint32_t s_bits = 0;
        std::memcpy(&s_bits, signs + i, 4);
        const __m256i s64 = _mm256_cvtepi8_epi64(
            _mm_cvtsi32_si128(static_cast<int>(s_bits)));
        const __m256i neg = _mm256_sub_epi64(zero, mag);
        const __m256i is_neg = _mm256_cmpgt_epi64(zero, s64);
        acc = _mm256_add_epi64(acc,
                               _mm256_blendv_epi8(mag, neg, is_neg));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    std::int64_t total = y_in + lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) {
        const std::int64_t mag = std::int64_t{1} << exps[i];
        total += signs[i] >= 0 ? mag : -mag;
    }
    return total;
}

std::int64_t
weightedBucketSumAvx2(const std::int64_t* buckets, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t e = 0;
    for (; e + 4 <= n; e += 4) {
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(buckets + e));
        const __m256i sh = _mm256_set_epi64x(
            static_cast<long long>(e + 3), static_cast<long long>(e + 2),
            static_cast<long long>(e + 1), static_cast<long long>(e));
        acc = _mm256_add_epi64(acc, _mm256_sllv_epi64(b, sh));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    std::int64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; e < n; ++e)
        total += buckets[e] * (std::int64_t{1} << e);
    return total;
}

} // namespace

namespace detail {

const KernelTable*
avx2Table()
{
    static const KernelTable table = {
        Isa::Avx2,
        dotAvx2,
        axpyAvx2,
        convTileAvx2,
        convGradTileAvx2,
        addRowInPlaceAvx2,
        addScalarInPlaceAvx2,
        latticeQuantizeAvx2,
        latticeDequantAvx2,
        latticeRoundTripAvx2,
        lstmGatesAvx2,
        termPairAccumulateAvx2,
        weightedBucketSumAvx2,
    };
    return &table;
}

} // namespace detail

} // namespace kernels
} // namespace mrq

#else // !MRQ_KERNELS_HAVE_AVX2

namespace mrq {
namespace kernels {
namespace detail {

const KernelTable*
avx2Table()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_HAVE_AVX2
