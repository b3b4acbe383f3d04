// AnytimeRunner: per-timestep logits must bit-match the one-shot forward at
// t = T, and truncated logits must be a deterministic prefix property.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "nn/activations.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "serve/server.hpp"
#include "snn/anytime.hpp"
#include "snn/encoder.hpp"
#include "snn/li_readout.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snnsec::snn {
namespace {

using tensor::Shape;
using tensor::Tensor;

nn::LenetSpec test_arch() {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = 8;
  return arch;
}

SnnConfig test_config(std::int64_t t = 7,
                      NeuronModel neuron = NeuronModel::kLif,
                      double input_gain = 3.0) {
  SnnConfig cfg;
  cfg.v_th = 1.1;
  cfg.time_steps = t;
  cfg.neuron_model = neuron;
  cfg.input_gain = input_gain;
  return cfg;
}

std::unique_ptr<SpikingClassifier> make_model(
    std::int64_t t = 7, NeuronModel neuron = NeuronModel::kLif,
    double input_gain = 3.0) {
  util::Rng rng(42);
  return build_spiking_lenet(test_arch(), test_config(t, neuron, input_gain),
                             rng);
}

/// A configuration in which spikes reach every layer within the window: on
/// the default one the hidden layers past conv1 stay silent for T = 7, so
/// the logits would not depend on most weights. Here every spiking layer
/// fires (rates ~0.7/0.7/0.1/0.2/0.1 on random_batch inputs).
SnnConfig active_config(std::int64_t t = 12,
                        NeuronModel neuron = NeuronModel::kLif,
                        double input_gain = 3.0) {
  SnnConfig cfg = test_config(t, neuron, input_gain);
  cfg.v_th = 0.25;
  cfg.weight_gain = 6.0;
  return cfg;
}

std::unique_ptr<SpikingClassifier> make_active_model(std::uint64_t seed = 42,
                                                     std::int64_t t = 12) {
  util::Rng rng(seed);
  return build_spiking_lenet(test_arch(), active_config(t), rng);
}

std::unique_ptr<SpikingClassifier> make_active_model(const SnnConfig& cfg) {
  util::Rng rng(42);
  return build_spiking_lenet(test_arch(), cfg, rng);
}

Tensor random_batch(std::int64_t n, std::uint64_t seed = 7) {
  util::Rng rng(seed);
  Tensor x(Shape{n, 1, 8, 8});
  rng.fill_uniform(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  return x;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
}

bool same_bytes(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() && same_bytes(a.data(), b.data(), a.numel());
}

/// Negate every conv/linear weight — a sign-bit flip of each weight word,
/// which reaches every weight the runner packs.
void flip_weight_signs(SpikingClassifier& model) {
  for (nn::Parameter* p : model.parameters()) {
    if (p->name != "weight") continue;
    float* v = p->value.data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) v[i] = -v[i];
  }
}

TEST(AnytimeRunner, FullWindowMatchesOneShotBitwise) {
  auto model = make_active_model();
  const Tensor x = random_batch(3);
  const Tensor one_shot = model->logits(x);
  for (double rate : model->spike_rates()) EXPECT_GT(rate, 0.0);

  AnytimeRunner runner(*model);
  const Tensor& stepped = runner.run(x);
  EXPECT_TRUE(runner.done());
  EXPECT_EQ(runner.steps_done(), model->time_steps());
  expect_bitwise_equal(stepped, one_shot);
}

TEST(AnytimeRunner, EventLinearWithoutSpikingProducerMatchesOneShot) {
  // An event-resolved Linear fed by a pooled map (no LIF/ALIF stage right
  // before it) builds its event lists inside the step, still on the weight
  // begin() packed.
  const std::int64_t t = 6;
  LifParameters lif;
  lif.v_th = 0.25f;
  util::Rng rng(5);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Scale>(3.0f);
  net->add(make_constant_current_encoder(t, lif, Surrogate{}));
  net->emplace<nn::AvgPool2d>(2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(16, 10, rng);
  static_cast<nn::Linear&>(net->layer(net->size() - 1))
      .set_input_hint(tensor::SparsityHint::kEvents);
  net->emplace<LiReadout>(t, lif);
  SpikingClassifier model(std::move(net), t, 10, "pooled-event head");

  const Tensor x = random_batch(3, 71);
  const Tensor one_shot = model.logits(x);
  AnytimeRunner runner(model);
  expect_bitwise_equal(runner.run(x), one_shot);
}

TEST(AnytimeRunner, FullWindowMatchesOneShotAlif) {
  auto model = make_active_model(active_config(12, NeuronModel::kAlif));
  const Tensor x = random_batch(2, 11);
  const Tensor one_shot = model->logits(x);
  for (double rate : model->spike_rates()) EXPECT_GT(rate, 0.0);

  AnytimeRunner runner(*model);
  expect_bitwise_equal(runner.run(x), one_shot);

  // With beta = 0 the threshold never adapts: theta = v_th + 0 * b is v_th
  // exactly and every other ALIF op is the LIF op, so the ALIF stack must
  // reproduce the LIF stack's logits bit for bit. Unlike the self-
  // consistency check above, this one sees a wrong alif_step select.
  SnnConfig no_adapt = active_config(12, NeuronModel::kAlif);
  no_adapt.alif_beta = 0.0f;
  auto alif0 = make_active_model(no_adapt);
  auto lif = make_active_model(active_config(12));
  AnytimeRunner alif0_runner(*alif0);
  expect_bitwise_equal(alif0_runner.run(x), lif->logits(x));
}

TEST(AnytimeRunner, NoScaleLayerWhenInputGainIsOne) {
  // input_gain == 1 drops the Scale layer from the stack; the runner must
  // still compile and match.
  auto model =
      make_active_model(active_config(12, NeuronModel::kLif, /*gain=*/1.0));
  ASSERT_NE(model->net().layer(0).kind(), "Scale");
  const Tensor x = random_batch(2, 13);
  const Tensor one_shot = model->logits(x);
  for (double rate : model->spike_rates()) EXPECT_GT(rate, 0.0);
  AnytimeRunner runner(*model);
  expect_bitwise_equal(runner.run(x), one_shot);
}

TEST(AnytimeRunner, TruncatedLogitsArePrefixDeterministic) {
  auto model = make_active_model();
  const Tensor x = random_batch(2, 21);

  // Two independent runners truncated at the same depth agree bitwise.
  AnytimeRunner a(*model);
  AnytimeRunner b(*model);
  const std::int64_t cut = 10;
  Tensor at_cut = a.run(x, cut);
  EXPECT_EQ(a.steps_done(), cut);
  EXPECT_FALSE(a.done());
  expect_bitwise_equal(at_cut, b.run(x, cut));

  // Continuing the truncated runner to T converges to the one-shot logits:
  // truncation is a prefix of the same computation, not a different one.
  while (!a.done()) a.step();
  expect_bitwise_equal(a.logits(), model->logits(x));
}

TEST(AnytimeRunner, TruncationMatchesModelBuiltWithSmallerT) {
  // The running-max decode means logits after t steps equal the logits of
  // the same weights evaluated with window T' = t. Build a T'=10 model with
  // identical weights (same RNG seed) and compare. (With this config the
  // readout's input depends on the weights past conv1 only from t ~ 9 on.)
  auto full = make_active_model(42, 12);
  auto small = make_active_model(42, 10);
  const Tensor x = random_batch(2, 31);

  AnytimeRunner runner(*full);
  expect_bitwise_equal(runner.run(x, 10), small->logits(x));
}

TEST(AnytimeRunner, RunnerIsReusableAcrossRequests) {
  auto model = make_active_model();
  AnytimeRunner runner(*model);

  const Tensor x1 = random_batch(2, 41);
  const Tensor x2 = random_batch(2, 43);
  const Tensor fresh1 = model->logits(x1);
  const Tensor fresh2 = model->logits(x2);

  expect_bitwise_equal(runner.run(x1), fresh1);
  expect_bitwise_equal(runner.run(x2), fresh2);
  // State fully resets: repeating the first request reproduces it.
  expect_bitwise_equal(runner.run(x1), fresh1);
}

TEST(AnytimeRunner, BatchedMatchesSingleRequestBitwise) {
  auto model = make_active_model();
  const std::int64_t n = 4;
  const Tensor batch = random_batch(n, 51);
  AnytimeRunner runner(*model);
  const Tensor batched = runner.run(batch);

  for (std::int64_t i = 0; i < n; ++i) {
    Tensor one(Shape{1, 1, 8, 8});
    std::copy(batch.data() + i * 64, batch.data() + (i + 1) * 64, one.data());
    const Tensor& single = runner.run(one);
    for (std::int64_t c = 0; c < model->num_classes(); ++c)
      EXPECT_EQ(single.data()[c],
                batched.data()[i * model->num_classes() + c])
          << "sample " << i << " class " << c;
  }
}

TEST(AnytimeRunner, RejectsPoissonEncoder) {
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = 8;
  SnnConfig cfg;
  cfg.time_steps = 4;
  cfg.encoder = EncoderKind::kPoisson;
  util::Rng rng(42);
  auto model = build_spiking_lenet(arch, cfg, rng);
  EXPECT_THROW(AnytimeRunner{*model}, util::Error);
}

TEST(AnytimeRunner, RejectsArmedSpikeFault) {
  auto model = make_active_model();
  SpikeFault fault;
  fault.drop_prob = 0.1;
  for (std::size_t i = 0; i < model->net().size(); ++i)
    if (model->net().layer(i).kind() == "LifLayer")
      static_cast<LifLayer&>(model->net().layer(i)).set_spike_fault(fault);

  AnytimeRunner runner(*model);
  EXPECT_THROW(runner.begin(random_batch(1)), util::Error);
}

TEST(AnytimeRunner, AllowFaultsOptsIntoArmedSpikeFaults) {
  // Chaos mode: the same armed fault that a default runner rejects is
  // replayed per step under allow_faults, bit-identically to the one-shot
  // faulted forward and deterministically across runners.
  auto model = make_active_model();
  const Tensor x = random_batch(2, 21);
  const Tensor clean = model->logits(x);
  for (double rate : model->spike_rates()) EXPECT_GT(rate, 0.0);

  SpikeFault fault;
  fault.drop_prob = 0.0;
  fault.stuck_one_fraction = 1.0;  // saturate every LIF: visibly not clean
  fault.seed = 31;
  for (std::size_t i = 0; i < model->net().size(); ++i)
    if (model->net().layer(i).kind() == "LifLayer")
      static_cast<LifLayer&>(model->net().layer(i)).set_spike_fault(fault);

  AnytimeRunner strict(*model);
  EXPECT_THROW(strict.begin(x), util::Error)
      << "default runners must keep rejecting armed faults";

  const Tensor faulted = model->logits(x);  // one-shot under the fault
  AnytimeRunner a(*model, /*allow_faults=*/true);
  AnytimeRunner b(*model, /*allow_faults=*/true);
  const Tensor& la = a.run(x, model->time_steps());
  expect_bitwise_equal(la, faulted);
  expect_bitwise_equal(la, b.run(x, model->time_steps()));
  bool differs = false;
  for (std::int64_t i = 0; i < clean.numel(); ++i)
    if (la.data()[i] != clean.data()[i]) differs = true;
  EXPECT_TRUE(differs) << "a saturated network cannot match clean logits";

  // Disarming restores the clean bit-exact contract for default runners.
  for (std::size_t i = 0; i < model->net().size(); ++i)
    if (model->net().layer(i).kind() == "LifLayer")
      static_cast<LifLayer&>(model->net().layer(i))
          .set_spike_fault(SpikeFault{});
  AnytimeRunner healed(*model);
  expect_bitwise_equal(healed.run(x, model->time_steps()), clean);
}

// Staleness: the runner packs event-kernel weights once per batch, in
// begin(). A weight mutation between two batches must be seen by the next
// batch exactly as the one-shot forward of the mutated model sees it.

TEST(AnytimeRunnerStaleness, OptimizerStepIsSeenByTheNextBatch) {
  auto model = make_active_model();
  const Tensor x = random_batch(3, 61);
  AnytimeRunner runner(*model);
  const Tensor before = runner.run(x);

  nn::Sgd::Config sgd;
  sgd.lr = 0.5;
  nn::Sgd opt(model->parameters(), sgd);
  model->train_batch(x, {1, 4, 7}, opt);

  const Tensor want = model->logits(x);
  EXPECT_FALSE(same_bytes(want, before)) << "the step must move the logits";
  EXPECT_TRUE(same_bytes(runner.run(x), want));
}

TEST(AnytimeRunnerStaleness, ScopedFaultWeightFlipsAreSeenAndUndone) {
  auto model = make_active_model();
  const Tensor x = random_batch(3, 63);
  AnytimeRunner runner(*model);
  const Tensor clean = runner.run(x);
  {
    faults::ScopedFault flips(
        *model, {faults::FaultKind::kWeightBitflip, 0.002, 17});
    ASSERT_GT(flips.injected(), 0u);
    const Tensor want = model->logits(x);
    EXPECT_FALSE(same_bytes(want, clean)) << "the flips must move the logits";
    EXPECT_TRUE(same_bytes(runner.run(x), want));
  }
  // The scope restored the weights; the next batch repacks them.
  EXPECT_TRUE(same_bytes(runner.run(x), clean));
  EXPECT_TRUE(same_bytes(clean, model->logits(x)));
}

TEST(AnytimeRunnerStaleness, CheckpointLoadIsSeenByTheNextBatch) {
  // A second model with other weights is saved and loaded positionally into
  // the runner's model — the restore replaces each Parameter's tensor, so a
  // pack keyed on the old buffers would go stale.
  auto model = make_active_model();
  auto other = make_active_model(/*seed=*/43);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "snnsec_test_serve_anytime_reload.snnm")
          .string();
  save_spiking_lenet(path, *other, test_arch(), active_config());

  const Tensor x = random_batch(2, 65);
  AnytimeRunner runner(*model);
  const Tensor before = runner.run(x);

  const CheckpointPayload payload = load_validated_payload(path);
  const auto params = model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "p%03u", static_cast<unsigned>(i));
    params[i]->value = payload.archive.at(name);
  }
  std::filesystem::remove(path);

  const Tensor want = model->logits(x);
  EXPECT_TRUE(same_bytes(want, other->logits(x)));
  EXPECT_FALSE(same_bytes(want, before)) << "the load must move the logits";
  EXPECT_TRUE(same_bytes(runner.run(x), want));
}

TEST(AnytimeRunnerStaleness, ChaosHookWeightFlipShowsInTheSameBatch) {
  // The serving loop runs chaos_on_batch before the batch's begin(), so a
  // weight flip from the hook reaches the very batch it fired on. Batch 1
  // is clean, the hook flips on batch 2 and flips back on batch 3.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "snnsec_test_serve_anytime_chaos.snnm")
          .string();
  {
    auto model = make_active_model();
    save_spiking_lenet(path, *model, test_arch(), active_config());
  }
  serve::ServerConfig cfg;
  cfg.model_path = path;
  std::atomic<int> batches{0};
  cfg.chaos_on_batch = [&](const serve::ChaosContext& ctx) {
    if (batches.fetch_add(1) >= 1) flip_weight_signs(*ctx.model);
  };
  serve::Server server(cfg);

  auto reference = load_spiking_lenet(path);
  SpikingClassifier& ref = *reference.model;
  const Tensor x = random_batch(1, 67);
  const Tensor clean = ref.logits(x);
  flip_weight_signs(ref);
  const Tensor flipped = ref.logits(x);
  ASSERT_FALSE(same_bytes(clean, flipped));
  const std::int64_t k = clean.numel();

  serve::InferResult r;
  ASSERT_TRUE(server.infer(x, serve::RequestOptions{}, r));
  ASSERT_EQ(r.status, serve::ResultStatus::kOk);
  EXPECT_TRUE(same_bytes(r.scores.data(), clean.data(), k)) << "batch 1";
  ASSERT_TRUE(server.infer(x, serve::RequestOptions{}, r));
  ASSERT_EQ(r.status, serve::ResultStatus::kOk);
  EXPECT_TRUE(same_bytes(r.scores.data(), flipped.data(), k)) << "batch 2";
  ASSERT_TRUE(server.infer(x, serve::RequestOptions{}, r));
  ASSERT_EQ(r.status, serve::ResultStatus::kOk);
  EXPECT_TRUE(same_bytes(r.scores.data(), clean.data(), k)) << "batch 3";
  EXPECT_EQ(batches.load(), 3);
  std::filesystem::remove(path);
}

TEST(AnytimeRunner, StepProfileSplitsEveryStageWithoutChangingLogits) {
  auto model = make_active_model();
  const Tensor x = random_batch(2, 81);
  AnytimeRunner runner(*model);
  EXPECT_EQ(runner.stage_labels(),
            (std::vector<std::string>{"scale", "encoder", "conv1", "lif1",
                                      "pool1", "conv2", "lif2", "pool2",
                                      "conv3", "lif3", "flatten", "fc1",
                                      "lif4", "fc2", "readout"}));
  StepProfile profile;
  runner.set_profile(&profile);
  EXPECT_EQ(profile.stages, runner.stage_labels());
  expect_bitwise_equal(runner.run(x), model->logits(x));
  EXPECT_EQ(profile.steps, model->time_steps());
  ASSERT_EQ(profile.ns.size(), profile.stages.size());
  std::int64_t total = 0;
  for (std::int64_t ns : profile.ns) {
    EXPECT_GE(ns, 0);
    total += ns;
  }
  EXPECT_GT(total, 0);

  // Detached, step() leaves the profile alone.
  runner.set_profile(nullptr);
  const std::vector<std::int64_t> before = profile.ns;
  runner.run(x);
  EXPECT_EQ(profile.ns, before);
  EXPECT_EQ(profile.steps, model->time_steps());
  profile.reset();
  EXPECT_EQ(profile.steps, 0);
  for (std::int64_t ns : profile.ns) EXPECT_EQ(ns, 0);
}

TEST(AnytimeRunner, StepGuards) {
  auto model = make_model(2);
  AnytimeRunner runner(*model);
  EXPECT_THROW(runner.step(), util::Error);  // step before begin
  runner.run(random_batch(1));
  EXPECT_THROW(runner.step(), util::Error);  // step past T
}

}  // namespace
}  // namespace snnsec::snn
