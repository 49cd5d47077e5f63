/**
 * @file
 * Dense linear-algebra kernels used by the NN layers.
 *
 * All kernels run on the shared runtime thread pool (see
 * src/runtime/thread_pool.hpp): work is chunked over independent
 * output rows (or row x column-block tiles), column rows or
 * (image, channel) planes with thread-count-independent chunk
 * boundaries, so results are bit-identical at any MRQ_THREADS
 * setting.  conv2dForward is the Conv2d forward pass (an implicit
 * GEMM); im2col / col2im implement the channel-major column lowering
 * its backward pass uses.
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
 * are the B operand of a whole batch's conv as one matmul (Conv2d's
 * backward pass and the hw simulator read them).
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

/**
 * Inverse of im2col: scatter-add columns back into an NCHW gradient.
 *
 * @param cols Shape [c*kernel*kernel, n, out_h*out_w] (im2col's layout).
 * @param c,h,w Original spatial geometry.
 */
Tensor col2im(const Tensor& cols, std::size_t c, std::size_t h,
              std::size_t w, std::size_t kernel, std::size_t stride,
              std::size_t pad);

/** Per-layer buffers of conv2dForward, reused across calls so a
 *  steady-state forward allocates only its output. */
struct ConvWorkspace
{
    std::array<std::size_t, 7> geometry{}; ///< Shape input was zeroed for.
    std::vector<float> input;      ///< Zero-padded phase planes of x.
    std::vector<float> panel;      ///< Weights packed per row block.
    std::vector<std::size_t> taps; ///< B-row offset of each tap.
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
