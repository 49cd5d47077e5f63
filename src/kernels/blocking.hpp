/**
 * @file
 * Blocking constants and integer helpers shared by every kernel
 * variant and by the hw-sim tiling code.
 *
 * The determinism contract of the kernel substrate is defined here:
 * every ISA variant of a floating-point reduction uses the same
 * virtual lane count and the same reduction tree, so generic, AVX2
 * and AVX-512 builds produce byte-identical results (see kernels.hpp
 * for the exact dot-product contract).
 */

#ifndef MRQ_KERNELS_BLOCKING_HPP
#define MRQ_KERNELS_BLOCKING_HPP

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace mrq {
namespace kernels {

/**
 * Virtual accumulator lanes of every dot-product-shaped reduction.
 * Element i of the reduced range always lands in lane i % kDotLanes,
 * regardless of ISA: the generic build keeps 16 scalar accumulators,
 * AVX2 keeps two 8-float vectors, AVX-512 one 16-float vector.  16 is
 * the widest hardware lane count we target, so no variant has to
 * split or merge lanes.
 */
constexpr std::size_t kDotLanes = 16;

/**
 * Column-block width of the axpy-row GEMMs (matmul, matmulTransA).
 * Products with n <= this width are chunked by output row only; wider
 * ones are cut into (row, column block) tiles so a K x width panel of
 * B stays in L2 across rows.  A tile boundary never splits an output
 * element's k-chain, so the width affects speed, not bits.
 */
constexpr std::size_t kGemmColumnBlock = 1024;

/**
 * Tile of the implicit-GEMM conv kernel (KernelTable::convTile):
 * kConvTileRows output channels by kConvTileCols output columns, held
 * in registers over the whole k-chain.  On AVX-512 that is 4 rows of
 * four 16-lane accumulators; AVX2 walks the tile in 16-column strips.
 * Every output element still sees one ascending-k chain, so the tile
 * shape affects speed, not bits.
 */
constexpr std::size_t kConvTileRows = 4;
constexpr std::size_t kConvTileCols = 64;

/**
 * Tile of the conv weight-gradient kernel (KernelTable::convGradTile):
 * kConvGradTileRows output channels (one 16-lane vector of a
 * channel-minor dY row) by kConvGradTileTaps taps.  Each of its dots
 * keeps dot()'s own lane order, so the tile shape affects speed, not
 * bits.
 */
constexpr std::size_t kConvGradTileRows = 16;
constexpr std::size_t kConvGradTileTaps = 4;

/** Exponent bound of any power-of-two term we handle (matches the
 *  encodeNaf/encodeBooth runaway invariant in src/core/sdr.cpp). */
constexpr std::size_t kMaxTermExponent = 72;

/** Integer ceiling division (shared by kernel tiling and the hw-sim
 *  array/tile geometry in src/hw/).  Mixed unsigned argument widths
 *  promote to the wider type. */
template <typename A, typename B>
constexpr std::common_type_t<A, B>
ceilDiv(A a, B b)
{
    using T = std::common_type_t<A, B>;
    return (static_cast<T>(a) + static_cast<T>(b) - 1) /
           static_cast<T>(b);
}

} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_BLOCKING_HPP
