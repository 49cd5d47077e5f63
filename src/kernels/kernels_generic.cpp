/**
 * @file
 * Generic (scalar) kernel variant and the dispatch glue (the
 * ISA-invariant TQ helpers live in tq_table.cpp).
 *
 * The scalar kernels are the reference implementation of the
 * determinism contract (kernels.hpp): 16 virtual accumulator lanes
 * for reductions, explicit std::fma for every multiply-add, and the
 * pinned rounding constructions from kernel_scalar.hpp.  The SIMD
 * variants must match them bit for bit — see tests/kernels/.
 */

#include "kernels/kernels.hpp"

#include "common/logging.hpp"
#include "kernels/kernel_scalar.hpp"

namespace mrq {
namespace kernels {

namespace {

/** Fixed binary tree: lane l absorbs lane l + half, half halving. */
float
reduceLanes(float (&lanes)[kDotLanes])
{
    for (std::size_t half = kDotLanes / 2; half > 0; half /= 2)
        for (std::size_t l = 0; l < half; ++l)
            lanes[l] += lanes[l + half];
    return lanes[0];
}

float
dotGeneric(const float* a, const float* b, std::size_t n)
{
    float lanes[kDotLanes] = {};
    std::size_t i = 0;
    const std::size_t full = n - n % kDotLanes;
    for (; i < full; i += kDotLanes)
        for (std::size_t l = 0; l < kDotLanes; ++l)
            lanes[l] = fmadd(a[i + l], b[i + l], lanes[l]);
    for (; i < n; ++i)
        lanes[i % kDotLanes] = fmadd(a[i], b[i], lanes[i % kDotLanes]);
    return reduceLanes(lanes);
}

void
axpyGeneric(float a, const float* x, float* y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = fmadd(a, x[i], y[i]);
}

/** The zero skip is a branch per (kk, row). */
void
convTileGeneric(const ConvTileArgs& t)
{
    float* c = t.c;
    for (std::size_t s0 = 0; s0 < t.k; s0 += t.seg) {
        float acc[kConvTileRows][kConvTileCols] = {};
        for (std::size_t kk = s0; kk < s0 + t.seg; ++kk) {
            const float* brow = t.b + t.taps[kk];
            const float* ak = t.a + kk * kConvTileRows;
            for (std::size_t i = 0; i < kConvTileRows; ++i) {
                const float a = ak[i];
                if (a == 0.0f)
                    continue;
                for (std::size_t j = 0; j < kConvTileCols; ++j)
                    acc[i][j] = fmadd(a, brow[j], acc[i][j]);
            }
        }
        for (std::size_t i = 0; i < kConvTileRows; ++i)
            for (std::size_t j = 0; j < kConvTileCols; ++j) {
                float& out = c[i * kConvTileCols + j];
                out = s0 == 0 ? acc[i][j] : out + acc[i][j];
            }
    }
}

/** One dot() per (tap, channel), written out with its own lanes. */
void
convGradTileGeneric(const ConvGradTileArgs& t)
{
    for (std::size_t r = 0; r < kConvGradTileTaps; ++r)
        for (std::size_t i = 0; i < kConvGradTileRows; ++i) {
            float total = 0.0f;
            for (std::size_t img = 0; img < t.n; ++img) {
                const float* dy = t.dy + img * t.plane * t.ldc + i;
                const float* x = t.x + img * t.xImage + t.taps[r];
                float lanes[kDotLanes] = {};
                for (std::size_t p = 0; p < t.plane; ++p)
                    lanes[p % kDotLanes] = fmadd(
                        dy[p * t.ldc], x[t.pos[p]], lanes[p % kDotLanes]);
                total += reduceLanes(lanes);
            }
            t.dw[r * kConvGradTileRows + i] = total;
        }
}

void
addRowInPlaceGeneric(float* y, const float* row, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += row[i];
}

void
addScalarInPlaceGeneric(float* y, float v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += v;
}

void
latticeQuantizeGeneric(const float* x, std::int32_t* q, std::size_t n,
                       LatticeParams p)
{
    for (std::size_t i = 0; i < n; ++i)
        q[i] = latticeQuantizeOne(x[i], p);
}

void
latticeDequantGeneric(const std::int32_t* q, float* out, std::size_t n,
                      float scale)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = latticeDequantOne(q[i], scale);
}

void
latticeRoundTripGeneric(const float* x, float* out, std::size_t n,
                        LatticeParams p)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = latticeDequantOne(latticeQuantizeOne(x[i], p), p.scale);
}

void
lstmGatesGeneric(const float* z, const float* c_prev, float* gates,
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
    // Pass 1: activations — scalar libm in every ISA variant.
    for (std::size_t j = 0; j < hidden; ++j) {
        gi[j] = sigmoidScalar(zi[j]);
        gf[j] = sigmoidScalar(zf[j]);
        gg[j] = std::tanh(zg[j]);
        go[j] = sigmoidScalar(zo[j]);
    }
    // Pass 2: cell state, one fma per element (vectorized in SIMD).
    for (std::size_t j = 0; j < hidden; ++j)
        c_next[j] = fmadd(gf[j], c_prev[j], gi[j] * gg[j]);
    // Pass 3: tanh(c) — scalar libm again.
    for (std::size_t j = 0; j < hidden; ++j)
        h_next[j] = std::tanh(c_next[j]);
    // Pass 4: gate the hidden state (vectorized in SIMD).
    for (std::size_t j = 0; j < hidden; ++j)
        h_next[j] *= go[j];
}

std::int64_t
termPairAccumulateGeneric(const std::int16_t* exps,
                          const std::int8_t* signs, std::size_t n,
                          std::int64_t y_in)
{
    std::int64_t acc = y_in;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t mag = std::int64_t{1} << exps[i];
        acc += signs[i] >= 0 ? mag : -mag;
    }
    return acc;
}

std::int64_t
weightedBucketSumGeneric(const std::int64_t* buckets, std::size_t n)
{
    std::int64_t acc = 0;
    for (std::size_t e = 0; e < n; ++e)
        acc += buckets[e] * (std::int64_t{1} << e);
    return acc;
}

const KernelTable&
genericTable()
{
    static const KernelTable table = {
        Isa::Generic,
        dotGeneric,
        axpyGeneric,
        convTileGeneric,
        convGradTileGeneric,
        addRowInPlaceGeneric,
        addScalarInPlaceGeneric,
        latticeQuantizeGeneric,
        latticeDequantGeneric,
        latticeRoundTripGeneric,
        lstmGatesGeneric,
        termPairAccumulateGeneric,
        weightedBucketSumGeneric,
    };
    return table;
}

} // namespace

const KernelTable*
kernelTableFor(Isa isa)
{
    if (!isaAvailable(isa))
        return nullptr;
    switch (isa) {
      case Isa::Generic:
        return &genericTable();
      case Isa::Avx2:
        return detail::avx2Table();
      case Isa::Avx512:
        return detail::avx512Table();
    }
    return nullptr;
}

const KernelTable&
kernels()
{
    const KernelTable* table = kernelTableFor(activeIsa());
    return table != nullptr ? *table : genericTable();
}

LatticeParams
makeLatticeParams(int bits, float scale, bool is_signed)
{
    // qmax must stay below the kernels' pre-round clamp (2^22) so the
    // clamp can never alter a level the int clamp would keep.
    invariant(bits >= 1 && bits <= 22,
              "makeLatticeParams: bits out of kernel range");
    const std::int32_t qmax = (std::int32_t{1} << bits) - 1;
    LatticeParams p;
    p.scale = scale;
    p.lo = is_signed ? -qmax : 0;
    p.hi = qmax;
    return p;
}

} // namespace kernels
} // namespace mrq
