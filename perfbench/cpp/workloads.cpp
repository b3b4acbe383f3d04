#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <tuple>

#include "cells.hpp"
#include "core/explorer.hpp"
#include "driver.hpp"
#include "nn/metrics.hpp"
#include "probes.hpp"
#include "serve/model_cache.hpp"
#include "serving.hpp"
#include "snn/model_io.hpp"
#include "spans.hpp"
#include "tensor/serialize.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace core = snnsec::core;
namespace data = snnsec::data;
namespace nn = snnsec::nn;
namespace serve = snnsec::serve;
using snnsec::tensor::Tensor;

namespace {

// Fixed offered rates of serve_open and of the sweet spot explore
// deploys: ~25% and ~60% of the ~1,000 rps a T=16 cell saturates at on
// one core. The SLO search holds p99 within kSloLimitMs.
constexpr double kR1Rps = 250.0;
constexpr double kR2Rps = 600.0;
constexpr double kSloLimitMs = 5.0;

const CellSpec kServeCell{"serve", 1.0, 16};

constexpr std::int64_t kProbeSet = 64;    // bit-identity replay images
constexpr std::int64_t kServeAdv = 300;   // serve_open PGD images
// serve_open's wall_s: the fastest of kDrains drains of
// kDrainRequests each, sent back to back by one client and spread over the
// run between the rate blocks, so one spell of host noise cannot slow all
// of them. One client: hand-offs between submitter threads wait on thread
// wake-ups, which a loaded VM host slows by up to 2x from run to run.
constexpr int kDrains = 8;
constexpr std::int64_t kDrainRequests = 500;
constexpr std::int64_t kWarmRequests = 200;
// Set-ups take ~25 ms, so they are repeated and the median reported.
constexpr int kSetupReps = 21;
constexpr int kBlocks = 16;  // alternating r1/r2 blocks per run
constexpr double kR1Share = 0.4;  // of --seconds, spent at r1
constexpr double kR2Share = 0.25;

std::string seed_dir(const RunArgs& a) {
  return (fs::path(a.cache_dir) / ("seed-" + std::to_string(a.seed)))
      .string();
}
// The served cell is a deployed artifact: trained from a fixed seed once
// per cache directory, which run.py keys by a digest of the library and
// benchmark sources. Every run seed serves the same model; only the
// traffic, test images and attacks vary with the seed.
constexpr std::uint64_t kArtifactSeed = 42;

std::string cell_path(const RunArgs& a, const CellSpec& c) {
  return (fs::path(a.cache_dir) / "artifacts" /
          (std::string(c.name) + ".snnm"))
      .string();
}
std::string serve_adv_path(const RunArgs& a) {
  return (fs::path(seed_dir(a)) /
          ("serve_adv_" + std::to_string(kServeAdv) + ".tensor"))
      .string();
}

std::vector<std::int64_t> head(const std::vector<std::int64_t>& v,
                               std::int64_t n) {
  return {v.begin(), v.begin() + n};
}

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Median wall time of `reps` runs of `setup`.
double timed_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int k = 0; k < reps; ++k) {
    const Clock::time_point t0 = Clock::now();
    setup();
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(s);
}

/// Requests for a phase at `rate` that takes `share` of the run's seconds
/// (at least 1,000, so p99 has ten samples beyond it).
std::int64_t phase_requests(double rate, double share, double seconds) {
  return std::max<std::int64_t>(
      1000, static_cast<std::int64_t>(rate * share * seconds));
}

/// The client's counts must equal the server's own counters.
void expect_agree(const Counts& client, const Counts& reported,
                  const std::string& what, Checks& checks) {
  checks.expect(client == reported,
                what + ": client counts (offered/completed/refused/failed) "
                       "differ from the server's own counters");
}

void expect_clean_phase(const PhaseResult& r, const std::string& what,
                        Checks& checks) {
  expect_agree(r.counts, r.reported, what, checks);
  checks.expect(r.counts.refused == 0 && r.counts.failed == 0,
                what + ": refused or failed requests at a fixed rate");
}

/// Warm-up, r1 and r2 blocks with optional drains between them
/// (-> wall_s), then the SLO search. serve.allocs_per_req comes from the
/// untraced r1 blocks.
void measure_serving(const RunArgs& args, bool drain, ServeRig& rig,
                     AnswerCheck& check, RunOutput& out) {
  const double s = args.seconds;
  const std::uint64_t seed = derive_seed(args.seed, "traffic");
  // Every submitter serves requests once before anything is measured.
  const PhaseResult warm = serve_phase(rig, 0.0, kWarmRequests, seed, nullptr,
                                       &check, kClientThreads);
  expect_clean_phase(warm, "warm-up", out.checks);
  out.counts += warm.counts;
  // r1 and r2 run in alternating blocks spread over the whole run; each
  // figure is the median over blocks of the block's p50 or p99, so a spell
  // of host noise (vCPU steal, late wake-ups of halted vCPUs) spoils a few
  // blocks rather than the figure.
  const std::tuple<const char*, double, double> rates[] = {
      {"r1", kR1Rps, kR1Share}, {"r2", kR2Rps, kR2Share}};
  std::vector<double> p50[2], p99[2];
  std::vector<double> walls;
  std::int64_t r1_allocs = 0;
  std::int64_t r1_requests = 0;
  for (int round = 0; round < kBlocks; ++round) {
    for (int k = 0; k < 2; ++k) {
      const auto& [label, rate, share] = rates[k];
      const PhaseResult r = serve_phase(
          rig, rate, phase_requests(rate, share, s) / kBlocks,
          seed ^ static_cast<std::uint64_t>(rate * kBlocks + round), nullptr,
          &check, kClientThreads);
      expect_clean_phase(r, label, out.checks);
      out.counts += r.counts;
      p50[k].push_back(r.latency_pct_ms(0.5));
      p99[k].push_back(r.latency_pct_ms(0.99));
      if (k == 0) {
        r1_allocs += r.allocs;
        r1_requests += r.counts.offered;
      }
    }
    if (drain && round % (kBlocks / kDrains) == 0) {
      const PhaseResult d =
          serve_phase(rig, 0.0, kDrainRequests,
                      seed ^ static_cast<std::uint64_t>(7 + round), nullptr,
                      &check, /*threads=*/1);
      expect_clean_phase(d, "drain", out.checks);
      out.counts += d.counts;
      walls.push_back(d.wall_s);
    }
  }
  out.metrics.set("serve.allocs_per_req", ratio(r1_allocs, r1_requests),
                  "count");
  for (int k = 0; k < 2; ++k) {
    const char* label = std::get<0>(rates[k]);
    out.metrics.set(std::string("p50_ms.") + label,
                    median(p50[k]), "ms");
    out.metrics.set(std::string("p99_ms.") + label,
                    median(p99[k]), "ms");
  }
  if (drain)
    out.metrics.set("wall_s", *std::min_element(walls.begin(), walls.end()),
                    "s");
  SloSpec spec;
  spec.limit_ms = kSloLimitMs;
  spec.lo_rps = kR2Rps;
  spec.probe_s = 0.06 * s;
  spec.min_samples = 500;
  AnswerCheck slo_check;
  const SloResult slo = slo_search(spec, [&](double rate, std::int64_t n) {
    PhaseResult r =
        serve_phase(rig, rate, n, seed ^ static_cast<std::uint64_t>(rate),
                    nullptr, &slo_check, kClientThreads);
    expect_agree(r.counts, r.reported, "SLO probe", out.checks);
    return r;
  });
  out.slo_counts += slo.counts;
  out.checks.expect(slo_check.mismatches == 0,
                    "SLO probes: answers differ from the one-shot logits");
  out.metrics.set("slo_rps", slo.slo_rps, "1/s");
  for (const auto& [rate, ok] : slo.probes)
    std::fprintf(stderr, "perfbench: slo probe %.1f rps %s\n", rate,
                 ok ? "pass" : "miss");
  check.mismatches += slo_check.mismatches;
}

/// Traced r1 phase after measure_serving; fills gen.late_ms.p99 and
/// trace.overhead_pct (traced p50 against the untraced p50_ms.r1).
PhaseResult traced_r1(const RunArgs& args, ServeRig& rig,
                      std::vector<ServeSample>& rec,
                      AnswerCheck& check, RunOutput& out) {
  const std::int64_t n = phase_requests(kR1Rps, kR1Share, args.seconds);
  Spans::get().set_enabled(true);
  PhaseResult traced =
      serve_phase(rig, kR1Rps, n, derive_seed(args.seed, "traced"), &rec,
                  &check, kClientThreads);
  out.counts += traced.counts;
  expect_clean_phase(traced, "traced r1", out.checks);
  out.metrics.set("gen.late_ms.p99", traced.late_pct_ms(0.99), "ms");
  const double u = out.metrics.get("p50_ms.r1");
  out.metrics.set("trace.overhead_pct",
                  100.0 * (traced.chunked_pct_ms(0.5) - u) / u, "%");
  return traced;
}

/// Replays `images` one at a time through the server; returns accuracy and
/// checks every answer against the one-shot reference.
double replay(serve::Server& server, const std::vector<Tensor>& images,
              const std::vector<std::int64_t>& labels,
              const std::vector<std::int64_t>& ref, const char* what,
              RunOutput& out) {
  serve::InferResult r;
  std::int64_t correct = 0;
  std::int64_t mismatches = 0;
  Counts counts;
  const serve::ServerStats before = server.stats();
  for (std::size_t i = 0; i < images.size(); ++i) {
    ++counts.offered;
    if (!server.infer(images[i], serve::RequestOptions{}, r)) {
      ++(r.status == serve::ResultStatus::kRejected ? counts.refused
                                                    : counts.failed);
      continue;
    }
    ++counts.completed;
    if (r.pred == labels[i]) ++correct;
    if (r.pred != ref[i]) ++mismatches;
  }
  expect_agree(counts, counts_since(server, before), what, out.checks);
  out.counts += counts;
  out.checks.expect(mismatches == 0,
                    std::string(what) +
                        ": served predictions differ from the one-shot "
                        "logits argmax");
  return ratio(correct, static_cast<std::int64_t>(images.size()));
}

/// The study explore runs: the quick profile on one cell above A_th = 0.70
/// and one below it (the learnability cliff). Training data and weight
/// initialisation are fixed, so every run trains the same cells and
/// wall_s, clean_acc and the served sweet spot do not depend on how a
/// seed happened to train; the seed picks the attacked test images (see
/// explore_data), the PGD random starts and the served traffic.
core::ExplorationConfig explore_config(std::uint64_t seed) {
  core::ExplorationConfig cfg = core::quick_profile();
  cfg.v_th_grid = {1.0};
  cfg.t_grid = {8, 16};
  cfg.data = train_data(kArtifactSeed);
  cfg.seed = kArtifactSeed;
  cfg.pgd.seed = derive_seed(seed, "pgd");
  return cfg;
}

/// The study's data with the test split in seed order: the explorer
/// attacks the first attack_test_cap test images.
data::DataBundle explore_data(const core::ExplorationConfig& cfg,
                              std::uint64_t seed) {
  data::DataBundle bundle = data::load_digits(cfg.data);
  snnsec::util::Rng rng(derive_seed(seed, "attack-set"));
  bundle.test.shuffle(rng);
  return bundle;
}

// ---- explore ---------------------------------------------------------------

void run_explore(const RunArgs& args, RunOutput& out) {
  const core::ExplorationConfig cfg = explore_config(args.seed);
  const fs::path dir = fs::path(args.tmp_dir) / "explore";
  const std::string journal = (dir / "journal.jsonl").string();

  data::DataBundle bundle;
  const double setup_s = timed_setup(args.trace ? 1 : kSetupReps, [&] {
    Span span("data.load_digits");
    bundle = explore_data(cfg, args.seed);
    core::RobustnessExplorer explorer(cfg, dir.string(), journal);
  });
  out.metrics.set("setup_s", setup_s, "s");

  // Fresh directory: no cached cells and no journal, so the grid is
  // measured rather than replayed.
  fs::remove_all(dir);
  fs::create_directories(dir);
  Spans::get().set_enabled(args.trace);
  core::ExplorationReport report;
  std::vector<double> cell_s;
  {
    core::RobustnessExplorer explorer(cfg, dir.string(), journal);
    const Clock::time_point t0 = Clock::now();
    Clock::time_point mark = t0;
    {
      Span span("core.explore");
      report = explorer.explore(bundle, [&](const core::CellResult&) {
        const Clock::time_point now = Clock::now();
        Spans::get().record("core.cell", mark, now);
        cell_s.push_back(seconds_between(mark, now));
        mark = now;
      });
    }
    out.metrics.set("wall_s", seconds_between(t0, Clock::now()), "s");
  }
  Spans::get().set_enabled(false);

  out.checks.expect(
      report.cells.size() == cfg.v_th_grid.size() * cfg.t_grid.size(),
      "explore: the report does not hold one cell per grid point");
  std::vector<double> clean, robust, train_s, attack_s;
  std::int64_t skipped = 0;
  const core::CellResult* best = nullptr;
  double best_rob = -1.0;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const core::CellResult& c = report.cells[i];
    ++out.counts.offered;
    const bool ok = c.status == core::CellStatus::kOk ||
                    c.status == core::CellStatus::kSkippedLearnability;
    out.checks.expect(ok, "explore cell (" + std::to_string(c.v_th) + ", " +
                              std::to_string(c.time_steps) + ") ended " +
                              core::to_string(c.status));
    ++(ok ? out.counts.completed : out.counts.failed);
    train_s.push_back(c.train_seconds);
    std::fprintf(stderr, "perfbench: cell (%.2f, %lld) clean %.3f %s\n",
                 c.v_th, static_cast<long long>(c.time_steps),
                 c.clean_accuracy, core::to_string(c.status));
    if (c.status == core::CellStatus::kSkippedLearnability) ++skipped;
    if (!c.learnable) continue;
    clean.push_back(c.clean_accuracy);
    double rob = 0.0;
    for (const auto& [eps, pt] : c.robustness) {
      robust.push_back(pt.robustness);
      rob += pt.robustness;
    }
    attack_s.push_back(cell_s[i] - c.train_seconds);
    if (rob > best_rob) {
      best_rob = rob;
      best = &c;
    }
  }
  out.checks.expect(best != nullptr, "explore: no cell passed A_th");
  if (best == nullptr) return;
  out.metrics.set("clean_acc", mean(clean), "ratio");
  out.metrics.set("robust_acc", mean(robust), "ratio");

  // Deploy the sweet spot (the product of Algorithm 1) and serve it.
  core::RobustnessExplorer explorer(cfg, dir.string(), journal);
  auto trained = explorer.train_cell(best->v_th, best->time_steps, bundle);
  out.checks.expect(trained.from_cache, "explore: sweet spot not cached");
  snnsec::snn::SnnConfig snn_cfg = cfg.snn_template;
  snn_cfg.v_th = best->v_th;
  snn_cfg.time_steps = best->time_steps;
  const std::string ckpt = (dir / "sweet_spot.snnm").string();
  snnsec::snn::save_spiking_lenet(ckpt, *trained.model, cfg.arch, snn_cfg);

  ServeRig rig;
  rig.images = split_images(bundle.test.images);
  rig.labels = bundle.test.labels;
  rig.ref = reference_preds(*trained.model, bundle.test.images);
  rig.start(ckpt);
  const std::vector<Tensor> probe(rig.images.begin(),
                                  rig.images.begin() + kProbeSet);
  replay(*rig.server, probe, head(rig.labels, kProbeSet),
         head(rig.ref, kProbeSet), "explore probe set", out);

  AnswerCheck check;
  measure_serving(args, false, rig, check, out);
  if (args.trace) {
    std::vector<ServeSample> rec;
    const PhaseResult r1 = traced_r1(args, rig, rec, check, out);
    serve_record_metrics(r1, rec, out.metrics);
    out.metrics.set("serve.shed",
                    static_cast<double>(rig.server->stats().shed), "count");
    out.metrics.set("core.cell.train_s", mean(train_s), "s");
    out.metrics.set("core.cell.attack_s", mean(attack_s), "s");
    out.metrics.set("core.cells_skipped", static_cast<double>(skipped),
                    "count");
    ProbeInputs in;
    in.model = trained.model.get();
    in.cell = CellSpec{"sweet_spot", best->v_th, best->time_steps};
    in.data = &bundle;
    in.checkpoint = ckpt;
    in.tmp_dir = args.tmp_dir;
    in.explore_core = true;
    run_probes(in, out.metrics);
  }
  out.checks.expect(check.mismatches == 0,
                    "explore deploy: served answers differ from the "
                    "one-shot logits argmax");
  rig.server->stop();
}

// ---- serve_open ------------------------------------------------------------

void run_serve_open(const RunArgs& args, RunOutput& out) {
  const std::string ckpt = cell_path(args, kServeCell);
  data::DataBundle bundle;
  std::unique_ptr<ServeRig> rig;
  const double setup_s = timed_setup(args.trace ? 1 : kSetupReps, [&] {
    if (rig) rig->server->stop();
    serve::ModelCache::global().clear();  // every set-up loads the file
    Span span("data.load_digits");
    bundle = data::load_digits(bench_data(args.seed));
    rig = std::make_unique<ServeRig>();
    rig->images = split_images(bundle.test.images);
    rig->labels = bundle.test.labels;
    rig->start(ckpt);
  });
  out.metrics.set("setup_s", setup_s, "s");

  auto model = load_cell(ckpt);
  rig->ref = reference_preds(*model, bundle.test.images);
  const std::vector<Tensor> probe(rig->images.begin(),
                                  rig->images.begin() + kProbeSet);
  replay(*rig->server, probe, head(rig->labels, kProbeSet),
         head(rig->ref, kProbeSet), "serve_open probe set", out);
  const Tensor adv = snnsec::tensor::load_tensor_file(serve_adv_path(args));
  out.metrics.set(
      "robust_acc",
      replay(*rig->server, split_images(adv),
             head(bundle.test.labels, kServeAdv),
             reference_preds(*model, adv), "serve_open PGD set", out),
      "ratio");

  AnswerCheck check;
  measure_serving(args, true, *rig, check, out);
  out.metrics.set("clean_acc", ratio(check.correct, check.answers), "ratio");
  if (args.trace) {
    std::vector<ServeSample> rec;
    const PhaseResult r1 = traced_r1(args, *rig, rec, check, out);
    serve_record_metrics(r1, rec, out.metrics);
    out.metrics.set("serve.shed",
                    static_cast<double>(rig->server->stats().shed), "count");
    ProbeInputs in;
    in.model = model.get();
    in.cell = kServeCell;
    in.data = &bundle;
    in.checkpoint = ckpt;
    in.tmp_dir = args.tmp_dir;
    run_probes(in, out.metrics);
  }
  out.checks.expect(check.mismatches == 0,
                    "serve_open: served answers differ from the one-shot "
                    "logits argmax");
  rig->server->stop();
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "explore" || name == "serve_open";
}

void prepare(const RunArgs& args) {
  if (args.workload == "explore") return;  // explore trains in its run
  fs::create_directories(seed_dir(args));
  fs::create_directories(fs::path(args.cache_dir) / "artifacts");
  const auto ensure = [&](const CellSpec& c) {
    const std::string path = cell_path(args, c);
    if (fs::exists(path)) return;
    const std::string part = path + ".part";
    train_cell(c, data::load_digits(train_data(kArtifactSeed)), kArtifactSeed,
               part);
    fs::rename(part, path);
  };
  ensure(kServeCell);
  const std::string adv = serve_adv_path(args);
  if (!fs::exists(adv)) {
    const data::DataBundle bundle = data::load_digits(bench_data(args.seed));
    auto model = load_cell(cell_path(args, kServeCell));
    const Tensor x = nn::slice_batch(bundle.test.images, 0, kServeAdv);
    const Tensor a =
        pgd_images(*model, x, head(bundle.test.labels, kServeAdv), 0.1, 5,
                   derive_seed(args.seed, "pgd"));
    snnsec::tensor::save_tensor_file(adv + ".part", a);
    fs::rename(adv + ".part", adv);
  }
}

RunOutput run_workload(const RunArgs& args) {
  RunOutput out;
  if (args.workload == "explore") run_explore(args, out);
  if (args.workload == "serve_open") run_serve_open(args, out);
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (args.trace) {
    span_layer_metrics(out.metrics);
    if (!args.trace_out.empty())
      Spans::get().write_chrome_trace(args.trace_out);
  }
  return out;
}

}  // namespace perfbench
