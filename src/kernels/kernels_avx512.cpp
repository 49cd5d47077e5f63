/**
 * @file
 * AVX-512F kernel variant.
 *
 * Compiled with -mavx512f via per-source flags (src/CMakeLists.txt
 * defines MRQ_KERNELS_HAVE_AVX512 when the compiler accepts it).  The
 * 16 virtual dot lanes are one zmm accumulator; tails use zero-masked
 * loads and a merge-masked fma, so lanes past n keep their value
 * exactly (as in the AVX2 variant; an fma of zeros would turn a -0
 * lane into +0), and the reduction splits the zmm into two ymm halves so the tree is the
 * same lane pairing as generic and AVX2.  The lattice rounding
 * restates the kernel_scalar.hpp construction with vroundscale.
 */

#include "kernels/kernels.hpp"

#ifdef MRQ_KERNELS_HAVE_AVX512

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "kernels/kernel_scalar.hpp"

namespace mrq {
namespace kernels {

namespace {

/** Mask selecting the first k of 16 lanes (0 < k <= 16). */
inline __mmask16
tailMask16(std::size_t k)
{
    return static_cast<__mmask16>((1u << k) - 1u);
}

/** Collapse one zmm of 16 virtual lanes with the fixed tree: the two
 *  ymm halves pair lane l with l+8, then as in the AVX2 variant. */
inline float
reduceLanes16(__m512 acc)
{
    // extractf64x4 is the AVX512F-only way to take the upper 256 bits.
    const __m256 upper = _mm256_castpd_ps(
        _mm512_extractf64x4_pd(_mm512_castps_pd(acc), 1));
    const __m256 s8 = _mm256_add_ps(_mm512_castps512_ps256(acc), upper);
    const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                                 _mm256_extractf128_ps(s8, 1));
    const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    const __m128 s1 =
        _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
    return _mm_cvtss_f32(s1);
}

float
dotAvx512(const float* a, const float* b, std::size_t n)
{
    __m512 acc = _mm512_setzero_ps();
    std::size_t i = 0;
    const std::size_t full = n - n % kDotLanes;
    for (; i < full; i += kDotLanes)
        acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + i),
                              _mm512_loadu_ps(b + i), acc);
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        acc = _mm512_mask3_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                                    _mm512_maskz_loadu_ps(m, b + i), acc,
                                    m);
    }
    return reduceLanes16(acc);
}

void
axpyAvx512(float a, const float* x, float* y, std::size_t n)
{
    const __m512 av = _mm512_set1_ps(a);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 r = _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i),
                                         _mm512_loadu_ps(y + i));
        _mm512_storeu_ps(y + i, r);
    }
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512 r =
            _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(m, x + i),
                            _mm512_maskz_loadu_ps(m, y + i));
        _mm512_mask_storeu_ps(y + i, m, r);
    }
}

/** A whole segment in registers: four rows of four zmm.  The zero
 *  skip is a merge-masked fma whose mask is a != 0 (unordered, so a
 *  NaN weight still runs).  Segments after the first add into C. */
void
convTileAvx512(const ConvTileArgs& t)
{
    constexpr std::size_t kVecs = kConvTileCols / 16;
    const __m512 zero = _mm512_setzero_ps();
    for (std::size_t s0 = 0; s0 < t.k; s0 += t.seg) {
        __m512 acc[kConvTileRows][kVecs];
        for (std::size_t i = 0; i < kConvTileRows; ++i)
            for (std::size_t v = 0; v < kVecs; ++v)
                acc[i][v] = zero;
        for (std::size_t kk = s0; kk < s0 + t.seg; ++kk) {
            const float* brow = t.b + t.taps[kk];
            __m512 b[kVecs];
            for (std::size_t v = 0; v < kVecs; ++v)
                b[v] = _mm512_loadu_ps(brow + 16 * v);
            const float* ak = t.a + kk * kConvTileRows;
            for (std::size_t i = 0; i < kConvTileRows; ++i) {
                const __m512 av = _mm512_set1_ps(ak[i]);
                const __mmask16 keep =
                    _mm512_cmp_ps_mask(av, zero, _CMP_NEQ_UQ);
                for (std::size_t v = 0; v < kVecs; ++v)
                    acc[i][v] =
                        _mm512_mask3_fmadd_ps(av, b[v], acc[i][v], keep);
            }
        }
        for (std::size_t i = 0; i < kConvTileRows; ++i)
            for (std::size_t v = 0; v < kVecs; ++v) {
                float* c = t.c + i * kConvTileCols + 16 * v;
                _mm512_storeu_ps(
                    c, s0 == 0 ? acc[i][v]
                               : _mm512_add_ps(_mm512_loadu_ps(c),
                                               acc[i][v]));
            }
    }
}

static_assert(kConvGradTileRows == 16, "one zmm of channels per tap");

/** The dots of one image, channels across the zmm lanes. */
struct GradImage
{
    const float* dy;
    std::size_t ldc;
    const float* x;
    const std::size_t* pos;
    std::size_t plane;
    const std::size_t* taps;
};

/**
 * Node (l, H) of dot()'s lane tree for every channel and tap at once:
 * H == kDotLanes is lane l's fma chain over p = l, l + 16, ...; a
 * node above it adds node (l + H, 2H) to node (l, 2H), so
 * gradTree<1>(g, 0) is lane 0 after the tree has collapsed (lane l
 * absorbs l + 8, then l + 4, l + 2, l + 1).  Depth-first, at most one
 * pending partial per level stays live.
 */
template <std::size_t H>
__attribute__((always_inline)) inline void
gradTree(const GradImage& g, std::size_t l, __m512 (&out)[kConvGradTileTaps])
{
    if constexpr (H == kDotLanes) {
        for (std::size_t r = 0; r < kConvGradTileTaps; ++r)
            out[r] = _mm512_setzero_ps();
        for (std::size_t p = l; p < g.plane; p += kDotLanes) {
            const __m512 d = _mm512_loadu_ps(g.dy + p * g.ldc);
            const float* xp = g.x + g.pos[p];
            for (std::size_t r = 0; r < kConvGradTileTaps; ++r)
                out[r] = _mm512_fmadd_ps(d, _mm512_set1_ps(xp[g.taps[r]]),
                                         out[r]);
        }
    } else {
        __m512 hi[kConvGradTileTaps];
        gradTree<2 * H>(g, l, out);
        gradTree<2 * H>(g, l + H, hi);
        for (std::size_t r = 0; r < kConvGradTileTaps; ++r)
            out[r] = _mm512_add_ps(out[r], hi[r]);
    }
}

void
convGradTileAvx512(const ConvGradTileArgs& t)
{
    __m512 total[kConvGradTileTaps];
    for (std::size_t r = 0; r < kConvGradTileTaps; ++r)
        total[r] = _mm512_setzero_ps();
    for (std::size_t img = 0; img < t.n; ++img) {
        const GradImage g = {t.dy + img * t.plane * t.ldc, t.ldc,
                             t.x + img * t.xImage, t.pos, t.plane, t.taps};
        __m512 d[kConvGradTileTaps];
        gradTree<1>(g, 0, d);
        for (std::size_t r = 0; r < kConvGradTileTaps; ++r)
            total[r] = _mm512_add_ps(total[r], d[r]);
    }
    for (std::size_t r = 0; r < kConvGradTileTaps; ++r)
        _mm512_storeu_ps(t.dw + r * kConvGradTileRows, total[r]);
}

void
addRowInPlaceAvx512(float* y, const float* row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(y + i,
                         _mm512_add_ps(_mm512_loadu_ps(y + i),
                                       _mm512_loadu_ps(row + i)));
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512 r =
            _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i),
                          _mm512_maskz_loadu_ps(m, row + i));
        _mm512_mask_storeu_ps(y + i, m, r);
    }
}

void
addScalarInPlaceAvx512(float* y, float v, std::size_t n)
{
    const __m512 vv = _mm512_set1_ps(v);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(y + i,
                         _mm512_add_ps(_mm512_loadu_ps(y + i), vv));
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        _mm512_mask_storeu_ps(
            y + i, m,
            _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i), vv));
    }
}

/** The pinned quantize pipeline on 16 lanes (kernel_scalar.hpp). */
inline __m512i
latticeQuantize16(__m512 x, const LatticeParams& p)
{
    const __m512 v0 = _mm512_div_ps(x, _mm512_set1_ps(p.scale));
    const __m512 v1 = _mm512_min_ps(v0, _mm512_set1_ps(kRoundClamp));
    const __m512 v = _mm512_max_ps(v1, _mm512_set1_ps(-kRoundClamp));
    const __m512 t = _mm512_roundscale_ps(
        v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m512 f = _mm512_sub_ps(v, t);
    const __mmask16 tie =
        _mm512_cmp_ps_mask(f, _mm512_set1_ps(0.5f), _CMP_EQ_OQ) |
        _mm512_cmp_ps_mask(f, _mm512_set1_ps(-0.5f), _CMP_EQ_OQ);
    const __m512 away = _mm512_add_ps(t, _mm512_add_ps(f, f));
    const __m512 near = _mm512_roundscale_ps(
        v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m512 r = _mm512_mask_blend_ps(tie, near, away);
    __m512i q = _mm512_cvttps_epi32(r); // exact: r is integral
    q = _mm512_min_epi32(q, _mm512_set1_epi32(p.hi));
    q = _mm512_max_epi32(q, _mm512_set1_epi32(p.lo));
    return q;
}

void
latticeQuantizeAvx512(const float* x, std::int32_t* q, std::size_t n,
                      LatticeParams p)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_si512(q + i,
                            latticeQuantize16(_mm512_loadu_ps(x + i), p));
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        _mm512_mask_storeu_epi32(
            q + i, m,
            latticeQuantize16(_mm512_maskz_loadu_ps(m, x + i), p));
    }
}

void
latticeDequantAvx512(const std::int32_t* q, float* out, std::size_t n,
                     float scale)
{
    const __m512 sv = _mm512_set1_ps(scale);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 v =
            _mm512_cvtepi32_ps(_mm512_loadu_si512(q + i));
        _mm512_storeu_ps(out + i, _mm512_mul_ps(v, sv));
    }
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512 v = _mm512_cvtepi32_ps(
            _mm512_maskz_loadu_epi32(m, q + i));
        _mm512_mask_storeu_ps(out + i, m, _mm512_mul_ps(v, sv));
    }
}

void
latticeRoundTripAvx512(const float* x, float* out, std::size_t n,
                       LatticeParams p)
{
    const __m512 sv = _mm512_set1_ps(p.scale);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i q = latticeQuantize16(_mm512_loadu_ps(x + i), p);
        _mm512_storeu_ps(out + i,
                         _mm512_mul_ps(_mm512_cvtepi32_ps(q), sv));
    }
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512i q =
            latticeQuantize16(_mm512_maskz_loadu_ps(m, x + i), p);
        _mm512_mask_storeu_ps(out + i, m,
                              _mm512_mul_ps(_mm512_cvtepi32_ps(q), sv));
    }
}

void
lstmGatesAvx512(const float* z, const float* c_prev, float* gates,
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
    for (; j + 16 <= hidden; j += 16) {
        const __m512 prod = _mm512_mul_ps(_mm512_loadu_ps(gi + j),
                                          _mm512_loadu_ps(gg + j));
        const __m512 c = _mm512_fmadd_ps(_mm512_loadu_ps(gf + j),
                                         _mm512_loadu_ps(c_prev + j),
                                         prod);
        _mm512_storeu_ps(c_next + j, c);
    }
    for (; j < hidden; ++j)
        c_next[j] = fmadd(gf[j], c_prev[j], gi[j] * gg[j]);
    // Pass 3: scalar tanh(c).
    for (j = 0; j < hidden; ++j)
        h_next[j] = std::tanh(c_next[j]);
    // Pass 4: h_next *= go, vectorized.
    for (j = 0; j + 16 <= hidden; j += 16)
        _mm512_storeu_ps(h_next + j,
                         _mm512_mul_ps(_mm512_loadu_ps(h_next + j),
                                       _mm512_loadu_ps(go + j)));
    for (; j < hidden; ++j)
        h_next[j] *= go[j];
}

std::int64_t
termPairAccumulateAvx512(const std::int16_t* exps,
                         const std::int8_t* signs, std::size_t n,
                         std::int64_t y_in)
{
    __m512i acc = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i zero = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m128i e16;
        std::memcpy(&e16, exps + i, 16);
        const __m512i e64 = _mm512_cvtepi16_epi64(e16);
        const __m512i mag = _mm512_sllv_epi64(one, e64);
        std::uint64_t s_bits = 0;
        std::memcpy(&s_bits, signs + i, 8);
        const __m512i s64 = _mm512_cvtepi8_epi64(
            _mm_cvtsi64_si128(static_cast<long long>(s_bits)));
        const __mmask8 is_neg = _mm512_cmpgt_epi64_mask(zero, s64);
        acc = _mm512_add_epi64(
            acc, _mm512_mask_sub_epi64(mag, is_neg, zero, mag));
    }
    std::int64_t total = y_in + _mm512_reduce_add_epi64(acc);
    for (; i < n; ++i) {
        const std::int64_t mag = std::int64_t{1} << exps[i];
        total += signs[i] >= 0 ? mag : -mag;
    }
    return total;
}

std::int64_t
weightedBucketSumAvx512(const std::int64_t* buckets, std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8) {
        const __m512i b = _mm512_loadu_si512(buckets + e);
        const __m512i sh = _mm512_set_epi64(
            static_cast<long long>(e + 7), static_cast<long long>(e + 6),
            static_cast<long long>(e + 5), static_cast<long long>(e + 4),
            static_cast<long long>(e + 3), static_cast<long long>(e + 2),
            static_cast<long long>(e + 1), static_cast<long long>(e));
        acc = _mm512_add_epi64(acc, _mm512_sllv_epi64(b, sh));
    }
    std::int64_t total = _mm512_reduce_add_epi64(acc);
    for (; e < n; ++e)
        total += buckets[e] * (std::int64_t{1} << e);
    return total;
}

} // namespace

namespace detail {

const KernelTable*
avx512Table()
{
    static const KernelTable table = {
        Isa::Avx512,
        dotAvx512,
        axpyAvx512,
        convTileAvx512,
        convGradTileAvx512,
        addRowInPlaceAvx512,
        addScalarInPlaceAvx512,
        latticeQuantizeAvx512,
        latticeDequantAvx512,
        latticeRoundTripAvx512,
        lstmGatesAvx512,
        termPairAccumulateAvx512,
        weightedBucketSumAvx512,
    };
    return &table;
}

} // namespace detail

} // namespace kernels
} // namespace mrq

#else // !MRQ_KERNELS_HAVE_AVX512

namespace mrq {
namespace kernels {
namespace detail {

const KernelTable*
avx512Table()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_HAVE_AVX512
