#include "snn/spiking_network.hpp"

#include <cstring>
#include <sstream>

#include "obs/trace.hpp"
#include "snn/alif_layer.hpp"

namespace snnsec::snn {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Arms or disarms a spiking layer's activity probe and returns its stats
/// slot; null for a layer that does not spike.
const obs::ActivityStats* set_layer_probe(nn::Layer& layer, bool on) {
  if (auto* lif = dynamic_cast<LifLayer*>(&layer)) {
    lif->set_probe(on);
    return &lif->last_activity();
  }
  if (auto* alif = dynamic_cast<AlifLayer*>(&layer)) {
    alif->set_probe(on);
    return &alif->last_activity();
  }
  return nullptr;
}

}  // namespace

SpikingClassifier::SpikingClassifier(std::unique_ptr<nn::Sequential> net,
                                     std::int64_t time_steps,
                                     std::int64_t num_classes,
                                     std::string description)
    : net_(std::move(net)),
      time_steps_(time_steps),
      num_classes_(num_classes),
      description_(std::move(description)) {
  SNNSEC_CHECK(net_ != nullptr, "SpikingClassifier: null network");
  SNNSEC_CHECK(time_steps_ > 0, "SpikingClassifier: T must be positive");
  SNNSEC_CHECK(num_classes_ > 1, "SpikingClassifier: need >= 2 classes");
}

Tensor SpikingClassifier::replicate_over_time(const Tensor& x,
                                              std::int64_t time_steps) {
  std::vector<std::int64_t> dims = x.shape().dims();
  SNNSEC_CHECK(!dims.empty(), "replicate_over_time: rank-0 input");
  dims[0] *= time_steps;
  Tensor out((Shape(dims)));
  const std::size_t block = static_cast<std::size_t>(x.numel());
  for (std::int64_t t = 0; t < time_steps; ++t)
    std::memcpy(out.data() + static_cast<std::size_t>(t) * block, x.data(),
                block * sizeof(float));
  return out;
}

Tensor SpikingClassifier::sum_over_time(const Tensor& x,
                                        std::int64_t time_steps) {
  std::vector<std::int64_t> dims = x.shape().dims();
  SNNSEC_CHECK(!dims.empty() && dims[0] % time_steps == 0,
               "sum_over_time: dim0 not divisible by T");
  dims[0] /= time_steps;
  Tensor out((Shape(dims)));
  const std::int64_t block = out.numel();
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t t = 0; t < time_steps; ++t) {
    const float* src = px + t * block;
    for (std::int64_t i = 0; i < block; ++i) po[i] += src[i];
  }
  return out;
}

Tensor SpikingClassifier::logits(const Tensor& x) {
  SNNSEC_TRACE_SCOPE("snn.forward");
  return net_->forward(replicate_over_time(x, time_steps_), nn::Mode::kEval);
}

Tensor SpikingClassifier::input_gradient(
    const Tensor& x, const std::vector<std::int64_t>& labels,
    double* loss_out) {
  SNNSEC_TRACE_SCOPE("snn.input_gradient");
  const Tensor out =
      net_->forward(replicate_over_time(x, time_steps_), nn::Mode::kAttack);
  const double loss = loss_.forward(out, labels);
  if (loss_out != nullptr) *loss_out = loss;
  const Tensor grad_seq = net_->backward(loss_.backward());
  return sum_over_time(grad_seq, time_steps_);
}

Tensor SpikingClassifier::output_gradient(const Tensor& x,
                                          const Tensor& cotangent) {
  const Tensor out =
      net_->forward(replicate_over_time(x, time_steps_), nn::Mode::kAttack);
  SNNSEC_CHECK(cotangent.shape() == out.shape(),
               "output_gradient: cotangent shape "
                   << cotangent.shape().to_string() << " != logits shape "
                   << out.shape().to_string());
  const Tensor grad_seq = net_->backward(cotangent);
  return sum_over_time(grad_seq, time_steps_);
}

double SpikingClassifier::train_batch(const Tensor& x,
                                      const std::vector<std::int64_t>& labels,
                                      nn::Optimizer& optimizer) {
  optimizer.zero_grad();
  Tensor out;
  {
    SNNSEC_TRACE_SCOPE("snn.forward");
    out = net_->forward(replicate_over_time(x, time_steps_), nn::Mode::kTrain);
  }
  const double loss = loss_.forward(out, labels);
  {
    SNNSEC_TRACE_SCOPE("snn.bptt");
    net_->backward(loss_.backward());
  }
  optimizer.step();
  return loss;
}

std::vector<nn::Parameter*> SpikingClassifier::parameters() {
  return net_->parameters();
}

std::vector<double> SpikingClassifier::spike_rates() const {
  std::vector<double> rates;
  auto* self = const_cast<SpikingClassifier*>(this);
  for (std::size_t i = 0; i < self->net_->size(); ++i) {
    const nn::Layer* layer = &self->net_->layer(i);
    if (const auto* lif = dynamic_cast<const LifLayer*>(layer))
      rates.push_back(lif->last_spike_rate());
    else if (const auto* alif = dynamic_cast<const AlifLayer*>(layer))
      rates.push_back(alif->last_spike_rate());
  }
  return rates;
}

std::vector<obs::ActivityStats> SpikingClassifier::collect_activity(
    const Tensor& x) {
  SNNSEC_TRACE_SCOPE("snn.probe");
  std::vector<nn::Layer*> spiking;
  for (std::size_t i = 0; i < net_->size(); ++i)
    if (set_layer_probe(net_->layer(i), true))
      spiking.push_back(&net_->layer(i));
  net_->forward(replicate_over_time(x, time_steps_), nn::Mode::kEval);
  std::vector<obs::ActivityStats> stats;
  stats.reserve(spiking.size());
  for (std::size_t i = 0; i < spiking.size(); ++i) {
    obs::ActivityStats s = *set_layer_probe(*spiking[i], false);
    // One index over LIF and ALIF layers alike, as in the serve sketch.
    s.layer = "lif" + std::to_string(i);
    stats.push_back(std::move(s));
  }
  return stats;
}

std::string SpikingClassifier::describe() const {
  std::ostringstream oss;
  oss << description_ << " (T=" << time_steps_ << ")\n" << net_->summary();
  return oss.str();
}

}  // namespace snnsec::snn
