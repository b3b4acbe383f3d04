#include "cells.hpp"

#include <algorithm>

#include "attacks/pgd.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "spans.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

using snnsec::tensor::Tensor;
namespace nn = snnsec::nn;
namespace snn = snnsec::snn;

std::uint64_t derive_seed(std::uint64_t seed, const char* tag) {
  return snnsec::util::Rng(seed).fork(tag).next_u64();
}

nn::LenetSpec bench_arch() {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.5);
  arch.image_size = 16;
  return arch;
}

snnsec::data::DataSpec bench_data(std::uint64_t seed) {
  snnsec::data::DataSpec spec;
  spec.train_n = 128;  // only the traced training probe reads these
  spec.test_n = 300;
  spec.image_size = 16;
  spec.seed = derive_seed(seed, "data");
  spec.force_synthetic = true;  // never depend on IDX files on the host
  return spec;
}

snnsec::data::DataSpec train_data(std::uint64_t seed) {
  snnsec::data::DataSpec spec = bench_data(seed);
  spec.train_n = 1000;
  spec.test_n = 200;
  return spec;
}

void train_cell(const CellSpec& cell, const snnsec::data::DataBundle& data,
                std::uint64_t seed, const std::string& path) {
  const nn::LenetSpec arch = bench_arch();
  snn::SnnConfig cfg;
  cfg.v_th = cell.v_th;
  cfg.time_steps = cell.time_steps;
  snnsec::util::Rng rng(derive_seed(seed, cell.name));
  auto model = snn::build_spiking_lenet(arch, cfg, rng);
  nn::TrainConfig tcfg;
  tcfg.epochs = 5;
  tcfg.lr = 4e-3;
  tcfg.shuffle_seed = derive_seed(seed, "shuffle");
  nn::Trainer(tcfg).fit(*model, data.train.images, data.train.labels);
  snn::save_spiking_lenet(path, *model, arch, cfg);
}

std::unique_ptr<snn::SpikingClassifier> load_cell(const std::string& path) {
  return snn::load_spiking_lenet(path).model;
}

std::vector<std::int64_t> reference_preds(snn::SpikingClassifier& model,
                                          const Tensor& images) {
  std::vector<std::int64_t> out;
  const std::int64_t n = images.dim(0);
  for (std::int64_t b = 0; b < n; b += 32) {
    const Tensor x = nn::slice_batch(images, b, std::min(n, b + 32));
    for (const std::int64_t p : snnsec::tensor::argmax_rows(model.logits(x)))
      out.push_back(p);
  }
  return out;
}

std::vector<Tensor> split_images(const Tensor& images) {
  std::vector<Tensor> out;
  for (std::int64_t i = 0; i < images.dim(0); ++i)
    out.push_back(nn::slice_batch(images, i, i + 1));
  return out;
}

Tensor pgd_images(snn::SpikingClassifier& model, const Tensor& images,
                  const std::vector<std::int64_t>& labels, double epsilon,
                  std::int64_t steps, std::uint64_t seed) {
  Span span("attacks.pgd.perturb");
  snnsec::attack::PgdConfig pc;
  pc.steps = steps;
  pc.rel_stepsize = 0.1;
  pc.seed = seed;
  snnsec::attack::Pgd pgd(pc);
  snnsec::attack::AttackBudget budget;
  budget.epsilon = epsilon;
  return pgd.perturb(model, images, labels, budget);
}

}  // namespace perfbench
