// SpikingClassifier: a complete SNN behind the shared Classifier interface.
//
// Pipeline per batch [N, C, H, W]:
//   1. replicate the image T times (time-major [T*N, C, H, W]) — the paper's
//      "observation period in which the SNN receives the same input";
//   2. run the layer stack (encoder LIF -> conv/LIF/pool ... -> linear ->
//      LiReadout), which collapses time and yields logits [N, classes];
//   3. for training/attacks, backprop through the whole unrolled window and
//      (for input gradients) sum the per-step image gradients.
#pragma once

#include <memory>

#include "nn/classifier.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "snn/lif_layer.hpp"

namespace snnsec::snn {

class SpikingClassifier final : public nn::Classifier {
 public:
  /// `net` must map [T*N, C, H, W] -> [N, classes] (i.e. end in LiReadout).
  SpikingClassifier(std::unique_ptr<nn::Sequential> net,
                    std::int64_t time_steps, std::int64_t num_classes,
                    std::string description);

  tensor::Tensor logits(const tensor::Tensor& x) override;
  tensor::Tensor input_gradient(const tensor::Tensor& x,
                                const std::vector<std::int64_t>& labels,
                                double* loss_out) override;
  tensor::Tensor output_gradient(const tensor::Tensor& x,
                                 const tensor::Tensor& cotangent) override;
  double train_batch(const tensor::Tensor& x,
                     const std::vector<std::int64_t>& labels,
                     nn::Optimizer& optimizer) override;
  std::vector<nn::Parameter*> parameters() override;
  std::int64_t num_classes() const override { return num_classes_; }
  std::string describe() const override;

  std::int64_t time_steps() const { return time_steps_; }
  nn::Sequential& net() { return *net_; }

  /// Mean spike rate of every LifLayer and AlifLayer in the stack after the
  /// most recent forward — dead (all-zero) or saturated layers explain non-learnable
  /// (V_th, T) grid cells.
  std::vector<double> spike_rates() const;

  /// Run one probed forward on `x` and return per-spiking-layer (LIF and
  /// ALIF) activity statistics (firing rate, spike counts, silent/saturated
  /// fractions, membrane-potential histograms). Layers are labeled
  /// "lif0".."lifK" in stack order, whatever their neuron model. The probe
  /// machinery is disarmed again before returning, so subsequent forwards
  /// pay no extra cost.
  std::vector<obs::ActivityStats> collect_activity(const tensor::Tensor& x);

  /// Replicate [N, ...] into time-major [T*N, ...].
  static tensor::Tensor replicate_over_time(const tensor::Tensor& x,
                                            std::int64_t time_steps);
  /// Sum time-major [T*N, ...] back to [N, ...].
  static tensor::Tensor sum_over_time(const tensor::Tensor& x,
                                      std::int64_t time_steps);

 private:
  std::unique_ptr<nn::Sequential> net_;
  nn::SoftmaxCrossEntropy loss_;
  std::int64_t time_steps_;
  std::int64_t num_classes_;
  std::string description_;
};

}  // namespace snnsec::snn
