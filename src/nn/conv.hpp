/**
 * @file
 * 2-D convolutions (standard and depthwise) with weight quantization.
 */

#ifndef MRQ_NN_CONV_HPP
#define MRQ_NN_CONV_HPP

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "nn/weight_quantizer.hpp"
#include "tensor/ops.hpp"

namespace mrq {

/** Standard NCHW convolution on the register-tiled conv core: the
 *  forward pass is one implicit GEMM over a zero-padded copy of the
 *  input (conv2dForward); backward computes dX as a transposed
 *  implicit GEMM over zero-padded dY and dW from that same padded
 *  input (conv2dBackward), with no column buffers (see DESIGN.md,
 *  "Conv path"). */
class Conv2d : public Module
{
  public:
    /**
     * @param in_channels  Input channel count.
     * @param out_channels Output channel count.
     * @param kernel       Square kernel size.
     * @param stride       Stride (both axes).
     * @param pad          Zero padding (all sides).
     * @param rng          Initializer RNG.
     * @param bias         Whether to learn a per-channel bias.
     */
    Conv2d(std::size_t in_channels, std::size_t out_channels,
           std::size_t kernel, std::size_t stride, std::size_t pad,
           Rng& rng, bool bias = false);

    Tensor forward(const Tensor& x) override;
    Tensor backward(const Tensor& dy) override;
    void collectParameters(std::vector<Parameter*>& out) override;
    void setQuantContext(QuantContext* ctx) override;

    void
    calibrateWeightClips() override
    {
        quantizer_.initClip(weight_.value);
    }

    Parameter& weight() { return weight_; }
    WeightQuantizer& quantizer() { return quantizer_; }
    std::size_t inChannels() const { return inChannels_; }
    std::size_t outChannels() const { return outChannels_; }
    std::size_t kernel() const { return kernel_; }
    std::size_t stride() const { return stride_; }
    std::size_t pad() const { return pad_; }

  private:
    std::size_t inChannels_, outChannels_, kernel_, stride_, pad_;
    bool hasBias_;

    Parameter weight_{"conv.weight"}; ///< [outC, inC * k * k]
    Parameter bias_{"conv.bias"};
    WeightQuantizer quantizer_{"conv.clip_w"};

    Tensor cachedWq_;
    ConvWorkspace workspace_; ///< Also holds the input backward reads.
    Tensor dw_; ///< Gradient w.r.t. cachedWq_, reused across steps.
};

/** Depthwise 3x3-style convolution: one filter per channel. */
class DepthwiseConv2d : public Module
{
  public:
    DepthwiseConv2d(std::size_t channels, std::size_t kernel,
                    std::size_t stride, std::size_t pad, Rng& rng);

    Tensor forward(const Tensor& x) override;
    Tensor backward(const Tensor& dy) override;
    void collectParameters(std::vector<Parameter*>& out) override;
    void setQuantContext(QuantContext* ctx) override;

    void
    calibrateWeightClips() override
    {
        quantizer_.initClip(weight_.value);
    }

    Parameter& weight() { return weight_; }

  private:
    std::size_t channels_, kernel_, stride_, pad_;

    Parameter weight_{"dwconv.weight"}; ///< [C, k, k]
    WeightQuantizer quantizer_{"dwconv.clip_w"};

    Tensor cachedInput_;
    Tensor cachedWq_;
};

} // namespace mrq

#endif // MRQ_NN_CONV_HPP
