#ifndef AUTOMC_NN_LAYERS_H_
#define AUTOMC_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace automc {
namespace nn {

// 2-D convolution over NCHW input. Weight layout is [out_c, in_c, k, k].
// Bias is optional (CIFAR-style nets put normalization right after convs).
class Conv2d : public Layer {
 public:
  // `rng == nullptr` skips Kaiming init and leaves the weight aliasing the
  // shared zero page — for shells whose weights are assigned right after
  // construction (Clone, deserialization).
  Conv2d(int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
         int64_t pad, bool has_bias, Rng* rng);

  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::vector<Param*> Params() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override { return "Conv2d"; }
  int64_t FlopsLastForward() const override { return flops_last_; }

  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t pad() const { return pad_; }
  bool has_bias() const { return has_bias_; }

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }
  const Param& bias() const { return bias_; }

  // Structured surgery: keep only the listed output filters (sorted unique
  // indices) / input channels. Resets gradients and caches.
  void KeepOutputFilters(const std::vector<int64_t>& keep);
  void KeepInputChannels(const std::vector<int64_t>& keep);

 private:
  int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;
  Param bias_;

  // Forward cache: an O(1) copy-on-write alias of the training input.
  // Backward redoes each sample's im2col from it rather than keeping the
  // k*k-times larger column matrices alive between the passes.
  tensor::Tensor x_cache_;
  int64_t flops_last_ = 0;
  bool cached_ = false;
};

// Fully connected layer over [N, in] input; weight [out, in], bias [out].
class Linear : public Layer {
 public:
  // As with Conv2d, `rng == nullptr` builds a zero-page-aliased shell.
  Linear(int64_t in, int64_t out, Rng* rng);

  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::vector<Param*> Params() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override { return "Linear"; }
  int64_t FlopsLastForward() const override { return flops_last_; }

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

  // Keep only the listed input features (when the upstream conv/pool
  // shrinks). `group` is the number of consecutive features per retained
  // upstream channel (spatial positions after flatten).
  void KeepInputFeatures(const std::vector<int64_t>& keep_channels,
                         int64_t group);

 private:
  int64_t in_, out_;
  Param weight_;
  Param bias_;
  tensor::Tensor x_cache_;
  int64_t flops_last_ = 0;
};

// Batch normalization over the channel axis of NCHW input.
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(int64_t channels);

  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::vector<Param*> Params() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override { return "BatchNorm2d"; }

  int64_t channels() const { return channels_; }
  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  tensor::Tensor& running_mean() { return running_mean_; }
  tensor::Tensor& running_var() { return running_var_; }

  void KeepChannels(const std::vector<int64_t>& keep);

 private:
  int64_t channels_;
  Param gamma_;
  Param beta_;
  tensor::Tensor running_mean_;
  tensor::Tensor running_var_;
  float momentum_ = 0.1f;
  float eps_ = 1e-5f;

  // Forward caches (training mode).
  tensor::Tensor x_hat_;
  tensor::Tensor batch_inv_std_;  // [C]
  std::vector<int64_t> x_shape_;
  bool trained_forward_ = false;
};

// Rectified linear unit (any shape).
class ReLU : public Layer {
 public:
  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<ReLU>();
  }
  std::string Name() const override { return "ReLU"; }

 private:
  tensor::Tensor mask_;
};

// Light Multi-segment Activation (LMA, Xu et al. 2020): a learnable
// piecewise-linear activation with fixed uniform breakpoints in
// [-bound, bound] and one learnable slope per segment (plus a learnable
// output offset). Used by the LMA distillation method so small students can
// mimic teachers more flexibly than with ReLU.
class LMAActivation : public Layer {
 public:
  explicit LMAActivation(int64_t segments, float bound = 2.0f);

  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::vector<Param*> Params() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override { return "LMA"; }

  int64_t segments() const { return segments_; }
  float bound() const { return bound_; }
  Param& slopes() { return slopes_; }
  Param& offset() { return offset_; }

 private:
  // Index of the segment containing x, and that segment's left edge.
  int64_t SegmentOf(float x) const;
  float SegmentLeft(int64_t seg) const;
  // Activation value at x given current slopes.
  float Eval(float x, int64_t seg) const;

  int64_t segments_;
  float bound_;
  float width_;
  Param slopes_;   // [segments]
  Param offset_;   // [1]
  tensor::Tensor x_cache_;
};

// Max pooling with square window.
class MaxPool2d : public Layer {
 public:
  MaxPool2d(int64_t kernel, int64_t stride);

  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<MaxPool2d>(kernel_, stride_);
  }
  std::string Name() const override { return "MaxPool2d"; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_, stride_;
  std::vector<int64_t> argmax_;
  std::vector<int64_t> x_shape_;
};

// Global average pooling: [N,C,H,W] -> [N,C,1,1].
class GlobalAvgPool : public Layer {
 public:
  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<GlobalAvgPool>();
  }
  std::string Name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<int64_t> x_shape_;
};

// Flattens [N,C,H,W] -> [N, C*H*W].
class Flatten : public Layer {
 public:
  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Flatten>();
  }
  std::string Name() const override { return "Flatten"; }

 private:
  std::vector<int64_t> x_shape_;
};

// Ordered container of layers executed in sequence.
class Sequential : public Layer {
 public:
  Sequential() = default;

  void Add(std::unique_ptr<Layer> layer) { children_.push_back(std::move(layer)); }
  int64_t NumChildren() const { return static_cast<int64_t>(children_.size()); }
  Layer* Child(int64_t i) { return children_[static_cast<size_t>(i)].get(); }
  const Layer* Child(int64_t i) const {
    return children_[static_cast<size_t>(i)].get();
  }
  // Replaces the child at `i`, returning the old layer (used by low-rank
  // surgery to swap a Conv2d for a decomposed composite).
  std::unique_ptr<Layer> ReplaceChild(int64_t i, std::unique_ptr<Layer> layer);

  tensor::Tensor Forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_out) override;
  std::vector<Param*> Params() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override { return "Sequential"; }
  int64_t FlopsLastForward() const override;

 private:
  std::vector<std::unique_ptr<Layer>> children_;
};

}  // namespace nn
}  // namespace automc

#endif  // AUTOMC_NN_LAYERS_H_
