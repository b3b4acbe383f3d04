// Spike-activity probes: membrane-histogram layout, LifLayer activity
// stats, firing-rate monotonicity in V_th and network-level collection.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "snn/lif_layer.hpp"
#include "snn/spiking_lenet.hpp"

namespace snnsec::obs {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(MembraneHistSpec, IndexClampsAndCovers) {
  MembraneHistSpec spec;  // [-1, 3), 16 buckets
  EXPECT_EQ(spec.index(-100.0), 0);
  EXPECT_EQ(spec.index(spec.lo), 0);
  EXPECT_EQ(spec.index(100.0), spec.buckets - 1);
  EXPECT_EQ(spec.index(spec.hi), spec.buckets - 1);
  // Every bucket's lower edge maps back into that bucket.
  for (int i = 0; i < spec.buckets; ++i)
    EXPECT_EQ(spec.index(spec.bucket_lo(i) + 1e-9), i);
  EXPECT_DOUBLE_EQ(spec.bucket_lo(0), spec.lo);
}

// One probed forward on a driven LIF population and sanity of every field.
TEST(LifLayerProbe, ActivityStatsAreConsistent) {
  const std::int64_t t_steps = 16, n = 2, f = 8;
  snn::LifParameters params;
  snn::LifLayer layer(t_steps, params, snn::Surrogate{});
  layer.set_probe(true);
  EXPECT_TRUE(layer.probe_armed());

  // Mixed drive: half the features get strong input, half none, so the
  // population has both firing and silent neurons.
  Tensor x(Shape{t_steps * n, f});
  for (std::int64_t r = 0; r < t_steps * n; ++r)
    for (std::int64_t c = 0; c < f; ++c) x[r * f + c] = c < f / 2 ? 2.0f : 0.0f;
  layer.forward(x, nn::Mode::kEval);
  layer.set_probe(false);

  const ActivityStats& s = layer.last_activity();
  EXPECT_EQ(s.neuron_steps, t_steps * n * f);
  EXPECT_EQ(s.neurons, n * f);
  EXPECT_GT(s.spike_count, 0);
  EXPECT_LE(s.spike_count, s.neuron_steps);
  EXPECT_NEAR(s.firing_rate,
              static_cast<double>(s.spike_count) /
                  static_cast<double>(s.neuron_steps),
              1e-6);
  // Undriven features never fire; driven ones do.
  EXPECT_NEAR(s.silent_fraction, 0.5, 1e-9);
  EXPECT_GE(s.saturated_fraction, 0.0);
  EXPECT_LE(s.saturated_fraction, 1.0 - s.silent_fraction);
  // Histogram covers every membrane sample.
  const std::int64_t hist_total =
      std::accumulate(s.v_hist.begin(), s.v_hist.end(), std::int64_t{0});
  EXPECT_EQ(hist_total, s.neuron_steps);
  EXPECT_LE(s.v_min, s.v_mean);
  EXPECT_GE(s.v_max, s.v_mean);
  EXPECT_FALSE(s.summary().empty());
}

TEST(LifLayerProbe, DisarmedForwardSkipsCollection) {
  snn::LifParameters params;
  snn::LifLayer layer(4, params, snn::Surrogate{});
  Tensor x(Shape{4, 3}, 2.0f);
  layer.forward(x, nn::Mode::kEval);
  EXPECT_EQ(layer.last_activity().neuron_steps, 0);  // never filled
}

// The paper's core mechanism: raising V_th can only suppress spikes, so
// the probed firing rate must be non-increasing in V_th.
TEST(LifLayerProbe, FiringRateMonotoneInVth) {
  const std::int64_t t_steps = 16, n = 3, f = 6;
  // Drive is constant over time per (sample, feature) neuron so the
  // classic monotone f-I relationship applies exactly.
  Tensor x(Shape{t_steps * n, f});
  for (std::int64_t r = 0; r < t_steps * n; ++r)
    for (std::int64_t c = 0; c < f; ++c)
      x[r * f + c] =
          0.5f + 0.25f * static_cast<float>(((r % n) * f + c) % 5);

  double prev_rate = 1.0;
  bool any_fired = false;
  for (const float v_th : {0.5f, 1.0f, 1.5f, 2.5f}) {
    snn::LifParameters params;
    params.v_th = v_th;
    snn::LifLayer layer(t_steps, params, snn::Surrogate{});
    layer.set_probe(true);
    layer.forward(x, nn::Mode::kEval);
    const ActivityStats& s = layer.last_activity();
    EXPECT_LE(s.firing_rate, prev_rate + 1e-12)
        << "firing rate increased when V_th rose to " << v_th;
    EXPECT_GE(s.silent_fraction, 0.0);
    prev_rate = s.firing_rate;
    any_fired = any_fired || s.spike_count > 0;
  }
  EXPECT_TRUE(any_fired) << "drive too weak to excite any threshold";
}

TEST(SpikingClassifierProbe, CollectActivityLabelsLayers) {
  nn::LenetSpec spec = nn::LenetSpec{}.scaled(0.25);
  spec.image_size = 8;
  snn::SnnConfig cfg;
  cfg.time_steps = 5;
  util::Rng rng(7);
  auto model = snn::build_spiking_lenet(spec, cfg, rng);

  Tensor x(Shape{2, 1, 8, 8}, 0.8f);
  const std::vector<ActivityStats> acts = model->collect_activity(x);
  ASSERT_FALSE(acts.empty());
  for (std::size_t i = 0; i < acts.size(); ++i) {
    EXPECT_EQ(acts[i].layer, "lif" + std::to_string(i));
    EXPECT_GT(acts[i].neuron_steps, 0);
    EXPECT_GE(acts[i].firing_rate, 0.0);
    EXPECT_LE(acts[i].firing_rate, 1.0);
  }
  // Probes are disarmed again: a further forward must not touch stats.
  const Tensor logits = model->logits(x);
  EXPECT_EQ(logits.dim(0), 2);
}

TEST(SpikingClassifierProbe, CollectActivityCoversAlifLayers) {
  // An ALIF LeNet spikes in its encoder and in every hidden layer, like the
  // LIF one; each of them must report, not only the LIF encoder.
  nn::LenetSpec spec = nn::LenetSpec{}.scaled(0.25);
  spec.image_size = 8;
  snn::SnnConfig cfg;
  cfg.time_steps = 5;
  const Tensor x(Shape{2, 1, 8, 8}, 0.8f);
  util::Rng lif_rng(7);
  auto lif_model = snn::build_spiking_lenet(spec, cfg, lif_rng);
  const std::size_t lif_layers = lif_model->collect_activity(x).size();
  cfg.neuron_model = snn::NeuronModel::kAlif;
  util::Rng rng(7);
  auto model = snn::build_spiking_lenet(spec, cfg, rng);
  const std::vector<ActivityStats> acts = model->collect_activity(x);
  EXPECT_EQ(acts.size(), 5u);  // encoder, conv1, conv2, conv3, fc1
  EXPECT_EQ(acts.size(), lif_layers);
  EXPECT_EQ(acts.size(), model->spike_rates().size());
  for (std::size_t i = 0; i < acts.size(); ++i) {
    EXPECT_EQ(acts[i].layer, "lif" + std::to_string(i));
    EXPECT_GT(acts[i].neuron_steps, 0);
    EXPECT_EQ(acts[i].v_hist.size(),
              static_cast<std::size_t>(acts[i].v_spec.buckets));
  }
}

TEST(RecordActivity, PublishesSeries) {
  ActivityStats s;
  s.layer = "lif_test";
  s.firing_rate = 0.25;
  s.spike_count = 10;
  s.neuron_steps = 40;
  s.silent_fraction = 0.5;
  record_activity({s}, {{"v_th", "1.0"}});
  Registry& reg = Registry::instance();
  bool saw_gauge = false, saw_counter = false;
  for (const MetricSnapshot& m : reg.snapshot()) {
    if (m.name == "snn.firing_rate" && !m.labels.empty() &&
        m.labels[0].second == "lif_test") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(m.value, 0.25);
    }
    if (m.name == "snn.spikes" && !m.labels.empty() &&
        m.labels[0].second == "lif_test") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(m.value, 10.0);
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_counter);
}

}  // namespace
}  // namespace snnsec::obs
