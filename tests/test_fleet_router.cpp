// fleet::Router: threat-level routing, token-bucket quota, ensemble vote,
// kReroute escalation to the hardened group, and config validation.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/router.hpp"
#include "obs/envelope.hpp"
#include "obs/sketch.hpp"
#include "serve/model_cache.hpp"
#include "serve/server.hpp"
#include "snn/anytime.hpp"
#include "snn/model_io.hpp"
#include "snn/spiking_lenet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snnsec::fleet {
namespace {

namespace fs = std::filesystem;
using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kImage = 8;

/// One tiny untrained checkpoint per (Vth, T) cell, written once per run.
std::string checkpoint(const char* name, double v_th, std::int64_t steps) {
  const std::string path =
      (fs::temp_directory_path() / (std::string("snnsec_test_fleet_") + name +
                                    ".snnm"))
          .string();
  nn::LenetSpec arch = nn::LenetSpec{}.scaled(0.25);
  arch.image_size = kImage;
  snn::SnnConfig cfg;
  cfg.v_th = v_th;
  cfg.time_steps = steps;
  util::Rng rng(42);
  auto model = snn::build_spiking_lenet(arch, cfg, rng);
  snn::save_spiking_lenet(path, *model, arch, cfg);
  return path;
}

const std::string& low_path() {
  static const std::string p = checkpoint("low", 0.8, 8);
  return p;
}
const std::string& bal_path() {
  static const std::string p = checkpoint("bal", 1.1, 8);
  return p;
}
const std::string& hard_path() {
  static const std::string p = checkpoint("hard", 1.4, 10);
  return p;
}

Tensor random_image(std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(Shape{1, 1, kImage, kImage});
  rng.fill_uniform(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  return x;
}

serve::ServerConfig cell_server() {
  serve::ServerConfig sc;
  sc.batcher.max_batch = 2;
  sc.batcher.max_delay_us = 200;
  sc.batcher.capacity = 16;
  return sc;
}

GroupConfig group(const char* name, GroupRole role, const std::string& path) {
  GroupConfig g;
  g.name = name;
  g.role = role;
  g.model_path = path;
  g.replicas = 1;
  g.server = cell_server();
  return g;
}

RouterConfig three_cell_config() {
  RouterConfig cfg;
  cfg.groups.push_back(group("low", GroupRole::kLowLatency, low_path()));
  cfg.groups.push_back(group("bal", GroupRole::kBalanced, bal_path()));
  cfg.groups.push_back(group("hard", GroupRole::kHardened, hard_path()));
  cfg.tenants.push_back({1, Threat::kTrusted, 0.0, 0.0});
  cfg.tenants.push_back({2, Threat::kSuspect, 0.0, 0.0});
  cfg.tenants.push_back({3, Threat::kHostile, 0.0, 0.0});
  cfg.default_tenant.threat = Threat::kTrusted;
  return cfg;
}

/// Envelope whose bands sit far from any real activity, fitted against the
/// given cell — every request scored by that cell is flagged.
std::shared_ptr<const obs::ActivityEnvelope> absurd_envelope(
    const std::string& model_path) {
  const auto artifact = serve::ModelCache::global().acquire(model_path);
  const auto replica = artifact->make_replica();
  snn::AnytimeRunner runner(*replica);
  obs::SketchAccumulator acc;
  acc.configure(runner.sketch_layers());
  std::vector<obs::ActivitySketch> sketches(2);
  for (auto& s : sketches) {
    s.steps = artifact->config().time_steps;
    s.layers.resize(runner.sketch_layers().size());
    for (auto& l : s.layers) {
      l.firing_rate = 100.0;
      l.silent_fraction = 100.0;
      l.saturated_fraction = 100.0;
      l.v_mean = 100.0;
      l.hist_frac.assign(static_cast<std::size_t>(acc.buckets()), 100.0);
    }
  }
  auto envelope = std::make_shared<obs::ActivityEnvelope>();
  envelope->fit(sketches, runner.sketch_layers(), acc.buckets(),
                artifact->config_hash());
  return envelope;
}

TEST(FleetRouter, AnchorsRolesAndSharedGeometry) {
  Router router(three_cell_config());
  ASSERT_EQ(router.num_groups(), 3);
  EXPECT_EQ(router.group_role(router.low_latency_group()),
            GroupRole::kLowLatency);
  EXPECT_EQ(router.group_role(router.hardened_group()),
            GroupRole::kHardened);
  EXPECT_EQ(router.group_name(router.hardened_group()), "hard");
  EXPECT_EQ(router.arch().image_size, kImage);
  EXPECT_EQ(router.num_classes(), 10);
  EXPECT_EQ(router.replica_count(0), 1);
}

TEST(FleetRouter, TrustedRidesLowLatencyCliffBudget) {
  Router router(three_cell_config());
  FleetResult r;
  ASSERT_TRUE(router.infer(1, random_image(10), {}, r));
  EXPECT_EQ(r.group, router.low_latency_group());
  EXPECT_FALSE(r.ensemble);
  EXPECT_FALSE(r.rerouted);
  // Low-latency default budget sits at the truncation cliff: 8 - 8/8 = 7.
  EXPECT_EQ(r.result.steps_used, 7);
  EXPECT_TRUE(r.result.truncated);
  EXPECT_GE(r.fleet_latency_us, 0);

  const RouterStats s = router.stats();
  EXPECT_EQ(s.requests, 1);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.quota_rejected, 0);
}

TEST(FleetRouter, ExplicitStepBudgetOverridesGroupDefault) {
  Router router(three_cell_config());
  serve::RequestOptions opt;
  opt.max_steps = 3;
  FleetResult r;
  ASSERT_TRUE(router.infer(1, random_image(11), opt, r));
  EXPECT_EQ(r.result.steps_used, 3);
}

TEST(FleetRouter, SuspectRoutesToHardenedGroup) {
  Router router(three_cell_config());
  FleetResult r;
  ASSERT_TRUE(router.infer(2, random_image(12), {}, r));
  EXPECT_EQ(r.group, router.hardened_group());
  // The hardened group runs its full window by default.
  EXPECT_EQ(r.result.steps_used, 10);
}

TEST(FleetRouter, HostileGetsMajorityEnsembleVote) {
  Router router(three_cell_config());
  FleetResult r;
  ASSERT_TRUE(router.infer(3, random_image(13), {}, r));
  EXPECT_TRUE(r.ensemble);
  EXPECT_GE(r.votes_for, 1);
  ASSERT_GE(r.group, 0);
  ASSERT_LT(r.group, router.num_groups());
  // The returned prediction is the one the winning cell produced.
  ASSERT_EQ(static_cast<std::int64_t>(r.cell_results.size()),
            router.num_groups());
  ASSERT_TRUE(r.cell_ok[static_cast<std::size_t>(r.group)]);
  EXPECT_EQ(r.result.pred,
            r.cell_results[static_cast<std::size_t>(r.group)].pred);
  // Majority check: no losing class got more votes than the winner.
  std::int64_t best = 0;
  for (std::size_t g = 0; g < r.cell_results.size(); ++g) {
    if (!r.cell_ok[g]) continue;
    std::int64_t votes = 0;
    for (std::size_t h = 0; h < r.cell_results.size(); ++h) {
      if (r.cell_ok[h] && r.cell_results[h].pred == r.cell_results[g].pred)
        ++votes;
    }
    best = std::max(best, votes);
  }
  EXPECT_EQ(r.votes_for, best);
  EXPECT_EQ(router.stats().ensembles, 1);
}

TEST(FleetRouter, FixedQuotaBudgetAdmitsExactlyBurst) {
  RouterConfig cfg = three_cell_config();
  // rate 0 + burst 3: a fixed budget that never refills.
  cfg.tenants.push_back({7, Threat::kTrusted, 0.0, 3.0});
  Router router(cfg);
  FleetResult r;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(router.infer(7, random_image(20 + i), {}, r))
        << "request " << i << " should be admitted";
    EXPECT_FALSE(r.quota_rejected);
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(router.infer(7, random_image(30 + i), {}, r));
    EXPECT_TRUE(r.quota_rejected);
    EXPECT_EQ(r.result.error, "quota");
    EXPECT_EQ(r.group, -1);
  }
  const RouterStats s = router.stats();
  EXPECT_EQ(s.quota_rejected, 2);
  EXPECT_EQ(s.completed, 3);
  // Unrelated tenants are unaffected by tenant 7's empty bucket.
  ASSERT_TRUE(router.infer(1, random_image(40), {}, r));
}

TEST(FleetRouter, UnknownTenantFallsBackToDefaultPolicy) {
  RouterConfig cfg = three_cell_config();
  cfg.default_tenant.threat = Threat::kSuspect;
  Router router(cfg);
  EXPECT_EQ(router.tenant_threat(999), Threat::kSuspect);
  EXPECT_EQ(router.tenant_threat(2), Threat::kSuspect);
  EXPECT_EQ(router.tenant_threat(1), Threat::kTrusted);
  FleetResult r;
  ASSERT_TRUE(router.infer(999, random_image(50), {}, r));
  EXPECT_EQ(r.group, router.hardened_group());
}

TEST(FleetRouter, RerouteEscalatesFlaggedToHardenedCell) {
  RouterConfig cfg = three_cell_config();
  // The low-latency cell flags everything; policy kReroute escalates.
  auto& low = cfg.groups[0].server;
  low.envelope = absurd_envelope(low_path());
  low.detect_policy = serve::DetectPolicy::kReroute;
  Router router(cfg);

  FleetResult r;
  ASSERT_TRUE(router.infer(1, random_image(60), {}, r));
  EXPECT_TRUE(r.rerouted);
  // The prediction returned is the hardened cell's, not the flagged
  // low-latency answer: the hardened group runs without a detector, so the
  // served result carries no anomaly score and its full 10-step window.
  EXPECT_EQ(r.group, router.hardened_group());
  EXPECT_EQ(r.result.anomaly_score, -1.0);
  EXPECT_FALSE(r.result.flagged);
  EXPECT_EQ(r.result.steps_used, 10);

  const RouterStats s = router.stats();
  EXPECT_EQ(s.rerouted, 1);
  EXPECT_EQ(s.reroute_served, 1);
  // The low-latency replica saw (and flagged) the original request.
  EXPECT_GE(s.groups[static_cast<std::size_t>(router.low_latency_group())]
                .flagged,
            1);
}

TEST(FleetRouter, ReusedResultSurvivesRerouteThenEnsemble) {
  // Regression: the kReroute path grows cell_results alone. A FleetResult
  // reused across requests (exactly what Frontend executors and the
  // loadgen RouterClient do) then reaches the ensemble path with
  // cell_results already sized but cell_ok still empty; the ensemble must
  // size each scratch vector independently or it writes out of bounds.
  RouterConfig cfg = three_cell_config();
  auto& low = cfg.groups[0].server;
  low.envelope = absurd_envelope(low_path());
  low.detect_policy = serve::DetectPolicy::kReroute;
  Router router(cfg);

  FleetResult r;  // one result object reused across tenants
  ASSERT_TRUE(router.infer(1, random_image(80), {}, r));
  ASSERT_TRUE(r.rerouted);
  ASSERT_EQ(static_cast<std::int64_t>(r.cell_results.size()),
            router.num_groups());
  ASSERT_TRUE(r.cell_ok.empty());  // the precondition that triggered OOB

  ASSERT_TRUE(router.infer(3, random_image(81), {}, r));
  EXPECT_TRUE(r.ensemble);
  ASSERT_EQ(static_cast<std::int64_t>(r.cell_ok.size()),
            router.num_groups());
  ASSERT_GE(r.group, 0);
  EXPECT_EQ(r.result.pred,
            r.cell_results[static_cast<std::size_t>(r.group)].pred);

  // The winner represents its class with the structurally strongest cell:
  // no surviving same-pred cell has a higher (Vth, T) key.
  const RouterStats s = router.stats();
  const auto key = [&](std::int64_t g) {
    const auto& grp = s.groups[static_cast<std::size_t>(g)];
    return std::make_pair(grp.v_th, grp.time_steps);
  };
  for (std::int64_t g = 0; g < router.num_groups(); ++g) {
    if (!r.cell_ok[static_cast<std::size_t>(g)]) continue;
    if (r.cell_results[static_cast<std::size_t>(g)].pred != r.result.pred)
      continue;
    EXPECT_GE(key(r.group), key(g));
  }
}

TEST(FleetRouter, ObservePolicyDoesNotEscalate) {
  RouterConfig cfg = three_cell_config();
  auto& low = cfg.groups[0].server;
  low.envelope = absurd_envelope(low_path());
  low.detect_policy = serve::DetectPolicy::kObserve;
  Router router(cfg);
  FleetResult r;
  ASSERT_TRUE(router.infer(1, random_image(61), {}, r));
  EXPECT_FALSE(r.rerouted);
  EXPECT_EQ(r.group, router.low_latency_group());
  EXPECT_TRUE(r.result.flagged);
}

TEST(FleetRouter, StatsAggregateReplicaServers) {
  Router router(three_cell_config());
  FleetResult r;
  ASSERT_TRUE(router.infer(1, random_image(70), {}, r));
  ASSERT_TRUE(router.infer(2, random_image(71), {}, r));
  const RouterStats s = router.stats();
  ASSERT_EQ(s.groups.size(), 3U);
  EXPECT_EQ(s.groups[0].name, "low");
  EXPECT_NEAR(s.groups[static_cast<std::size_t>(router.hardened_group())]
                  .v_th,
              1.4, 1e-6);
  EXPECT_EQ(s.groups[static_cast<std::size_t>(router.hardened_group())]
                .time_steps,
            10);
  std::int64_t submitted = 0;
  for (const auto& g : s.groups) submitted += g.submitted;
  EXPECT_EQ(submitted, 2);
}

TEST(FleetRouter, RejectsDuplicateTenantIds) {
  RouterConfig cfg = three_cell_config();
  cfg.tenants.push_back({1, Threat::kSuspect, 0.0, 0.0});
  EXPECT_THROW(Router router(std::move(cfg)), util::Error);
}

TEST(FleetRouter, HostileTenantsNeedAtLeastThreeGroups) {
  RouterConfig cfg;
  cfg.groups.push_back(group("low", GroupRole::kLowLatency, low_path()));
  cfg.groups.push_back(group("hard", GroupRole::kHardened, hard_path()));
  cfg.tenants.push_back({3, Threat::kHostile, 0.0, 0.0});
  EXPECT_THROW(Router router(std::move(cfg)), util::Error);
}

}  // namespace
}  // namespace snnsec::fleet
