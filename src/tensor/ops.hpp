/**
 * @file
 * Dense linear-algebra kernels used by the NN layers.
 *
 * All kernels run on the shared runtime thread pool (see
 * src/runtime/thread_pool.hpp): work is chunked over independent
 * output rows (or row x column-block tiles), column rows or
 * (image, channel) planes with thread-count-independent chunk
 * boundaries, so results are bit-identical at any MRQ_THREADS
 * setting.  im2col / col2im implement the channel-major convolution
 * lowering used by the Conv2d layer.
 */

#ifndef MRQ_TENSOR_OPS_HPP
#define MRQ_TENSOR_OPS_HPP

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
 * feed a whole batch through one matmul.
 *
 * @param input  Shape [n, c, h, w].
 * @param kernel Kernel size (square).
 * @param stride Stride (same both axes).
 * @param pad    Zero padding (same all sides).
 * @return Shape [c*kernel*kernel, n, out_h*out_w].
 */
Tensor im2col(const Tensor& input, std::size_t kernel, std::size_t stride,
              std::size_t pad);

/**
 * Inverse of im2col: scatter-add columns back into an NCHW gradient.
 *
 * @param cols Shape [c*kernel*kernel, n, out_h*out_w] (im2col's layout).
 * @param c,h,w Original spatial geometry.
 */
Tensor col2im(const Tensor& cols, std::size_t c, std::size_t h,
              std::size_t w, std::size_t kernel, std::size_t stride,
              std::size_t pad);

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
