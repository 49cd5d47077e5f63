#include "nn/conv.hpp"

#include <algorithm>

#include "kernels/kernel_scalar.hpp"
#include "kernels/kernels.hpp"
#include "kernels/roofline.hpp"
#include "nn/init.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace mrq {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               Rng& rng, bool bias)
    : inChannels_(in_channels), outChannels_(out_channels),
      kernel_(kernel), stride_(stride), pad_(pad), hasBias_(bias)
{
    const std::size_t fan_in = in_channels * kernel * kernel;
    weight_.value = Tensor({out_channels, fan_in});
    kaimingNormal(weight_.value, fan_in, rng);
    weight_.resetGrad();
    quantizer_.initClip(weight_.value);
    if (hasBias_) {
        bias_.value = Tensor({out_channels});
        bias_.decay = false;
        bias_.resetGrad();
    }
}

Tensor
Conv2d::forward(const Tensor& x)
{
    require(x.rank() == 4 && x.dim(1) == inChannels_,
            "Conv2d::forward: expected [N, ", inChannels_,
            ", H, W], got ", x.shapeString());
    const std::size_t oh = convOutSize(x.dim(2), kernel_, stride_, pad_);
    const std::size_t ow = convOutSize(x.dim(3), kernel_, stride_, pad_);

    cachedWq_ = quantizer_.project(weight_);
    quantizer_.addMacs(x.dim(0) * outChannels_ * inChannels_ * kernel_ *
                       kernel_ * oh * ow);
    return conv2dForward(x, cachedWq_, hasBias_ ? &bias_.value : nullptr,
                         kernel_, stride_, pad_, workspace_);
}

Tensor
Conv2d::backward(const Tensor& dy)
{
    // The workspace keeps the forward's padded input, which is all
    // backward reads of it.
    require(workspace_.geometry[1] != 0, "Conv2d::backward before forward");
    require(dy.rank() == 4 && dy.dim(1) == outChannels_,
            "Conv2d::backward: gradient shape mismatch");
    Tensor dx = conv2dBackward(dy, cachedWq_, workspace_, dw_);

    if (hasBias_) {
        // Per image a sequential sum from +0, folded in image order.
        const std::size_t n = dy.dim(0), plane = dy.dim(2) * dy.dim(3);
        parallelFor(outChannels_, parallelGrain(n * plane),
                    [&](std::size_t c0, std::size_t c1) {
            for (std::size_t c = c0; c < c1; ++c) {
                float total = 0.0f;
                for (std::size_t img = 0; img < n; ++img) {
                    const float* g =
                        dy.data() + (img * outChannels_ + c) * plane;
                    float sum = 0.0f;
                    for (std::size_t i = 0; i < plane; ++i)
                        sum += g[i];
                    total += sum;
                }
                bias_.grad[c] += total;
            }
        });
    }

    Tensor dw_master = quantizer_.backward(weight_.value, dw_);
    if (!weight_.grad.sameShape(weight_.value))
        weight_.resetGrad();
    weight_.grad += dw_master;
    return dx;
}

void
Conv2d::collectParameters(std::vector<Parameter*>& out)
{
    out.push_back(&weight_);
    if (hasBias_)
        out.push_back(&bias_);
    out.push_back(&quantizer_.clipParam());
}

void
Conv2d::setQuantContext(QuantContext* ctx)
{
    quantizer_.setContext(ctx);
}

DepthwiseConv2d::DepthwiseConv2d(std::size_t channels, std::size_t kernel,
                                 std::size_t stride, std::size_t pad,
                                 Rng& rng)
    : channels_(channels), kernel_(kernel), stride_(stride), pad_(pad)
{
    weight_.value = Tensor({channels, kernel, kernel});
    kaimingNormal(weight_.value, kernel * kernel, rng);
    weight_.resetGrad();
    quantizer_.initClip(weight_.value);
}

Tensor
DepthwiseConv2d::forward(const Tensor& x)
{
    require(x.rank() == 4 && x.dim(1) == channels_,
            "DepthwiseConv2d::forward: channel mismatch");
    const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::size_t oh = convOutSize(h, kernel_, stride_, pad_);
    const std::size_t ow = convOutSize(w, kernel_, stride_, pad_);

    cachedInput_ = x;
    cachedWq_ = quantizer_.project(weight_);
    quantizer_.addMacs(n * channels_ * kernel_ * kernel_ * oh * ow);

    Tensor y({n, channels_, oh, ow});
    const kernels::KernelTable& kt = kernels::kernels();
    kernels::KernelRegion kr(
        kernels::KernelId::GemmAxpy,
        static_cast<std::int64_t>(n * channels_ * kernel_ * kernel_ * oh *
                                  ow));
    // Each (image, channel) plane is independent.  Every output pixel
    // accumulates its taps in (ky, kx) order with one pinned fma per
    // tap, so the stride-1 row-kernel path and the strided scalar
    // path produce identical bits.
    parallelFor(n * channels_, parallelGrain(oh * ow * kernel_ * kernel_),
                [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
            const std::size_t img = p / channels_;
            const std::size_t c = p % channels_;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                float* yrow = y.data() +
                              ((img * channels_ + c) * oh + oy) * ow;
                for (std::size_t ky = 0; ky < kernel_; ++ky) {
                    const long iy = static_cast<long>(oy * stride_ + ky) -
                                    static_cast<long>(pad_);
                    if (iy < 0 || iy >= static_cast<long>(h))
                        continue;
                    const float* xrow =
                        x.data() +
                        ((img * channels_ + c) * h +
                         static_cast<std::size_t>(iy)) * w;
                    for (std::size_t kx = 0; kx < kernel_; ++kx) {
                        const float wq = cachedWq_(c, ky, kx);
                        if (stride_ == 1) {
                            // Valid ox range: 0 <= ox + kx - pad < w.
                            const long shift = static_cast<long>(kx) -
                                               static_cast<long>(pad_);
                            const long start = std::max(0L, -shift);
                            const long end = std::min(
                                static_cast<long>(ow),
                                static_cast<long>(w) - shift);
                            if (start < end)
                                kt.axpy(wq, xrow + start + shift,
                                        yrow + start,
                                        static_cast<std::size_t>(
                                            end - start));
                            continue;
                        }
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            const long ix =
                                static_cast<long>(ox * stride_ + kx) -
                                static_cast<long>(pad_);
                            if (ix < 0 || ix >= static_cast<long>(w))
                                continue;
                            yrow[ox] = kernels::fmadd(
                                wq,
                                xrow[static_cast<std::size_t>(ix)],
                                yrow[ox]);
                        }
                    }
                }
            }
        }
    });
    return y;
}

Tensor
DepthwiseConv2d::backward(const Tensor& dy)
{
    require(!cachedInput_.empty(),
            "DepthwiseConv2d::backward before forward");
    const Tensor& x = cachedInput_;
    const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::size_t oh = dy.dim(2), ow = dy.dim(3);

    Tensor dw(cachedWq_.shape());
    Tensor dx(x.shape());
    // Parallel over channels: each channel accumulates its own dw row
    // and dx planes across all images in the original image order, so
    // results match the serial loop exactly.
    parallelFor(channels_,
                parallelGrain(n * oh * ow * kernel_ * kernel_),
                [&](std::size_t c0, std::size_t c1) {
        for (std::size_t c = c0; c < c1; ++c) {
            for (std::size_t img = 0; img < n; ++img) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const float g = dy(img, c, oy, ox);
                        if (g == 0.0f)
                            continue;
                        for (std::size_t ky = 0; ky < kernel_; ++ky) {
                            const long iy =
                                static_cast<long>(oy * stride_ + ky) -
                                static_cast<long>(pad_);
                            if (iy < 0 || iy >= static_cast<long>(h))
                                continue;
                            for (std::size_t kx = 0; kx < kernel_; ++kx) {
                                const long ix =
                                    static_cast<long>(ox * stride_ + kx) -
                                    static_cast<long>(pad_);
                                if (ix < 0 || ix >= static_cast<long>(w))
                                    continue;
                                const auto uy =
                                    static_cast<std::size_t>(iy);
                                const auto ux =
                                    static_cast<std::size_t>(ix);
                                dw(c, ky, kx) += g * x(img, c, uy, ux);
                                dx(img, c, uy, ux) +=
                                    g * cachedWq_(c, ky, kx);
                            }
                        }
                    }
                }
            }
        }
    });

    Tensor dw_master = quantizer_.backward(weight_.value, dw);
    if (!weight_.grad.sameShape(weight_.value))
        weight_.resetGrad();
    weight_.grad += dw_master;
    return dx;
}

void
DepthwiseConv2d::collectParameters(std::vector<Parameter*>& out)
{
    out.push_back(&weight_);
    out.push_back(&quantizer_.clipParam());
}

void
DepthwiseConv2d::setQuantContext(QuantContext* ctx)
{
    quantizer_.setContext(ctx);
}

} // namespace mrq
