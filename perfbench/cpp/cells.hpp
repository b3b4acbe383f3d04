// (Vth, T) cells served by the benchmark: data, training recipe, the
// per-seed checkpoint cache and one-shot reference predictions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/provider.hpp"
#include "nn/lenet.hpp"
#include "snn/spiking_network.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

struct CellSpec {
  const char* name;
  double v_th;
  std::int64_t time_steps;
};

/// Independent sub-seed for one use of the run seed.
std::uint64_t derive_seed(std::uint64_t seed, const char* tag);

/// The quick-profile setting every workload shares: 16x16 synthetic
/// digits and the half-width spiking LeNet. bench_data is the serving
/// traffic (300 test images).
snnsec::nn::LenetSpec bench_arch();
snnsec::data::DataSpec bench_data(std::uint64_t seed);
/// The quick profile's training budget: 1,000 train and 200 test images.
snnsec::data::DataSpec train_data(std::uint64_t seed);

/// Trains the cell on `data` (5 epochs, lr 4e-3) and saves it to `path`.
void train_cell(const CellSpec& cell, const snnsec::data::DataBundle& data,
                std::uint64_t seed, const std::string& path);

std::unique_ptr<snnsec::snn::SpikingClassifier> load_cell(
    const std::string& path);

/// argmax of the one-shot SpikingClassifier::logits, per image.
std::vector<std::int64_t> reference_preds(
    snnsec::snn::SpikingClassifier& model,
    const snnsec::tensor::Tensor& images);

/// Splits [N, ...] into N single-image tensors [1, ...].
std::vector<snnsec::tensor::Tensor> split_images(
    const snnsec::tensor::Tensor& images);

/// White-box PGD against `model` on `images` (step size 0.1 epsilon).
snnsec::tensor::Tensor pgd_images(snnsec::snn::SpikingClassifier& model,
                                  const snnsec::tensor::Tensor& images,
                                  const std::vector<std::int64_t>& labels,
                                  double epsilon, std::int64_t steps,
                                  std::uint64_t seed);

}  // namespace perfbench
