/**
 * @file
 * Dense linear-algebra kernels used by the NN layers.
 *
 * All kernels run on the shared runtime thread pool (see
 * src/runtime/thread_pool.hpp): work is chunked over independent
 * output rows (or row x column-block tiles), column rows or
 * (image, channel) planes with thread-count-independent chunk
 * boundaries, so results are bit-identical at any MRQ_THREADS
 * setting.  conv2dForward and conv2dBackward are the Conv2d passes:
 * implicit GEMMs over zero-padded copies of the input and of dY, with
 * no column buffers.  im2col is the explicit column lowering the
 * hardware simulator reads.
 */

#ifndef MRQ_TENSOR_OPS_HPP
#define MRQ_TENSOR_OPS_HPP

#include <array>
#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace mrq {

/**
 * Matrix product C = A * B.
 *
 * @param a Shape [m, k].
 * @param b Shape [k, n].
 * @return Shape [m, n].
 */
Tensor matmul(const Tensor& a, const Tensor& b);

/** Matrix product C = A^T * B where A is [k, m] and B is [k, n]. */
Tensor matmulTransA(const Tensor& a, const Tensor& b);

/** Matrix product C = A * B^T where A is [m, k] and B is [n, k]. */
Tensor matmulTransB(const Tensor& a, const Tensor& b);

/** 2-D transpose of an [m, n] matrix. */
Tensor transpose2d(const Tensor& a);

/**
 * Lower an NCHW input into channel-major convolution columns.
 *
 * Row r = (ch, ky, kx) holds, image after image, the input value each
 * output position reads through that tap (zero where it falls in the
 * padding).  Viewed as [c*kernel*kernel, n*out_h*out_w], the columns
 * are the B operand of a whole batch's conv as one matmul (the hw
 * simulator reads them).
 *
 * @param input  Shape [n, c, h, w].
 * @param kernel Kernel size (square).
 * @param stride Stride (same both axes).
 * @param pad    Zero padding (same all sides).
 * @return Shape [c*kernel*kernel, n, out_h*out_w].
 */
Tensor im2col(const Tensor& input, std::size_t kernel, std::size_t stride,
              std::size_t pad);

/** im2col into @p cols, reusing its buffer when it already has the
 *  result's shape (a per-layer workspace across steps). */
void im2colInto(const Tensor& input, std::size_t kernel, std::size_t stride,
                std::size_t pad, Tensor& cols);

/** Per-layer buffers of conv2dForward and conv2dBackward, reused
 *  across calls so a steady-state pass allocates only its outputs. */
struct ConvWorkspace
{
    /** One dX phase of conv2dBackward: the dX pixels
     *  ((y0 + i) * s + ry - pad, (x0 + j) * s + rx - pad), i < rows and
     *  j < cols, and their chain of taps times outC. */
    struct Phase
    {
        std::size_t ry, rx, y0, x0, rows, cols;
        std::size_t chain;  ///< Chain length: taps * outC.
        std::size_t tap0;   ///< First entry in gradTaps.
        std::size_t grid;   ///< Flat grid columns (valid and discarded).
        std::size_t item0;  ///< First work item.
    };

    /** [n, c, h, w, kernel, stride, pad] of the last forward. */
    std::array<std::size_t, 7> geometry{};
    std::size_t gridPitch = 0;     ///< Row pitch of the input grid.
    std::size_t gridPlane = 0;     ///< Image pitch of the input grid.
    std::vector<float> input;      ///< Zero-padded phase planes of x.
    std::vector<float> panel;      ///< Weights packed per row block.
    std::vector<std::size_t> taps; ///< B-row offset of each tap.

    /** geometry plus outC, for the dY buffers. */
    std::array<std::size_t, 8> gradGeometry{};
    std::vector<float> grad;           ///< Zero-padded planes of dY.
    std::vector<float> gradRows;       ///< dY channel-minor, [N][OH*OW][ldc].
    std::vector<std::size_t> gradTaps; ///< dX B-row offsets, phase by phase.
    std::vector<std::size_t> gradPos;  ///< Input-grid offset of each output.
    std::vector<Phase> phases;         ///< dX phases that hold pixels.
};

/**
 * Standard convolution y = w * x (+ bias) as one implicit GEMM.
 *
 * x is copied once into @p ws as zero-padded planes, channel-major
 * and split into stride x stride phase planes, so that every tap
 * (ch, ky, kx) reads a contiguous run of one flat output grid: the
 * grid's pitch keeps the leading but not the trailing padding, it
 * spans the whole batch, and its columns past the output width or
 * height are computed and discarded.  KernelTable::convTile runs each tile's full k-chain in
 * registers, and the epilogue adds the bias and stores into NCHW y.
 * Every y element gets the same fma sequence as
 * matmul(w, im2col(x)) — ascending k, zero weights skipped — so the
 * bits match it at any ISA and thread count.
 *
 * @param x    Shape [n, c, h, w].
 * @param w    Shape [out_c, c * kernel * kernel].
 * @param bias Shape [out_c], or nullptr.
 * @return Shape [n, out_c, out_h, out_w].
 */
Tensor conv2dForward(const Tensor& x, const Tensor& w, const Tensor* bias,
                     std::size_t kernel, std::size_t stride,
                     std::size_t pad, ConvWorkspace& ws);

/**
 * Gradients of the last conv2dForward run with @p ws, as one implicit
 * GEMM for dX and one register-blocked kernel for dW.
 *
 * dX: dY is copied once into @p ws as zero-padded planes,
 * channel-major.  dX pixel iy takes tap ky from dY row oy when
 * iy + pad = oy * stride + ky, so dX splits into stride x stride
 * phases by ((iy + pad) % stride, (ix + pad) % stride); each phase is
 * a stride-1 implicit GEMM of its own (rotated) taps over padded dY,
 * run by KernelTable::convTile with one segment of outC rows per tap.
 * Every dX pixel is +0 plus its per-tap sums in ascending (ky, kx)
 * order, each sum an ascending-c fma chain from +0 with zero weights
 * skipped: the bits of col2im(matmulTransA(w, dY)).  Pixels of a
 * phase no tap reaches stay +0.
 *
 * dW: KernelTable::convGradTile reads dY channel-minor and the input
 * straight from the forward's padded grid in @p ws; each dW[c, k] is
 * +0 plus one dot()-ordered dot per image, folded in image order.
 *
 * @param dy Shape [n, out_c, out_h, out_w] of that forward.
 * @param w  The forward's weights, [out_c, c * kernel * kernel].
 * @param dw Receives dL/dw (reshaped to w's shape if needed).
 * @return dL/dx, the forward input's shape.
 */
Tensor conv2dBackward(const Tensor& dy, const Tensor& w, ConvWorkspace& ws,
                      Tensor& dw);

/** Output spatial size for a conv/pool sweep. */
inline std::size_t
convOutSize(std::size_t in, std::size_t kernel, std::size_t stride,
            std::size_t pad)
{
    require(in + 2 * pad >= kernel, "convOutSize: kernel larger than input");
    return (in + 2 * pad - kernel) / stride + 1;
}

} // namespace mrq

#endif // MRQ_TENSOR_OPS_HPP
