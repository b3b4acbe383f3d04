#include "probes.hpp"

#include <algorithm>
#include <filesystem>

#include "attacks/pgd.hpp"
#include "core/explorer.hpp"
#include "fleet/client.hpp"
#include "fleet/frontend.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "snn/anytime.hpp"
#include "snn/spiking_lenet.hpp"
#include "spans.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace nn = snnsec::nn;
namespace snn = snnsec::snn;
namespace serve = snnsec::serve;
namespace fleet = snnsec::fleet;
using snnsec::tensor::Tensor;

namespace {

/// Forwards to a spiking classifier, timing and counting input gradients.
class TimedClassifier final : public nn::Classifier {
 public:
  explicit TimedClassifier(snn::SpikingClassifier& inner) : inner_(inner) {}
  Tensor logits(const Tensor& x) override { return inner_.logits(x); }
  Tensor input_gradient(const Tensor& x,
                        const std::vector<std::int64_t>& labels,
                        double* loss_out) override {
    Span span("snn.input_gradient");
    ++grad_evals;
    return inner_.input_gradient(x, labels, loss_out);
  }
  Tensor output_gradient(const Tensor& x, const Tensor& cot) override {
    return inner_.output_gradient(x, cot);
  }
  double train_batch(const Tensor& x, const std::vector<std::int64_t>& labels,
                     nn::Optimizer& opt) override {
    return inner_.train_batch(x, labels, opt);
  }
  std::vector<nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  std::int64_t num_classes() const override { return inner_.num_classes(); }
  std::string describe() const override { return inner_.describe(); }

  std::int64_t grad_evals = 0;

 private:
  snn::SpikingClassifier& inner_;
};

const char* span_name(const std::string& stage) {
  // Span names must outlive the recorder; stages are few and fixed.
  static std::vector<std::unique_ptr<std::string>> names;
  for (const auto& n : names)
    if (*n == stage) return n->c_str();
  names.push_back(std::make_unique<std::string>(stage));
  return names.back()->c_str();
}

/// Stage names: kind-based with a per-kind ordinal (conv1, lif2, fc1, ...).
/// The LIF stage ahead of the first convolution is the spike encoder.
std::vector<std::string> stage_names(nn::Sequential& net) {
  std::map<std::string, int> seen;
  std::vector<std::string> out;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const std::string kind(net.layer(i).kind());
    const std::string base = kind == "Conv2d"      ? "conv"
                             : kind == "LifLayer"  ? "lif"
                             : kind == "AlifLayer" ? "alif"
                             : kind == "Linear"    ? "fc"
                             : kind == "AvgPool2d" ? "pool"
                             : kind == "Flatten"   ? "flatten"
                             : kind == "LiReadout" ? "readout"
                             : kind == "Scale"     ? "scale"
                                                   : "encoder";
    if ((base == "lif" || base == "alif") && seen.count("conv") == 0)
      out.push_back("encoder");
    else if (base == "conv" || base == "lif" || base == "alif" ||
             base == "fc" || base == "pool")
      out.push_back(base + std::to_string(++seen[base]));
    else
      out.push_back(base);
  }
  return out;
}

void probe_layers(snn::SpikingClassifier& model, const Tensor& images,
                  Report& out) {
  nn::Sequential& net = model.net();
  const std::vector<std::string> names = stage_names(net);
  Tensor x = snn::SpikingClassifier::replicate_over_time(
      nn::slice_batch(images, 0, 8), model.time_steps());
  for (std::size_t i = 0; i < net.size(); ++i) {
    const std::string& stage = names[i];
    if (stage == "flatten") {  // a reshape: nothing to time
      x = net.layer(i).forward(x, nn::Mode::kEval);
      continue;
    }
    const std::int64_t rows = x.dim(0);
    const std::int64_t width = x.numel() / rows;
    std::int64_t nonzero = 0;
    std::int64_t zero_rows = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      std::int64_t nz = 0;
      for (std::int64_t c = 0; c < width; ++c)
        if (x.data()[r * width + c] != 0.0F) ++nz;
      nonzero += nz;
      if (nz == 0) ++zero_rows;
    }
    std::vector<double> ms;
    Tensor y;
    for (int rep = 0; rep < 3; ++rep) {
      Span span(span_name("snn.layer." + stage));
      const Clock::time_point t0 = Clock::now();
      y = net.layer(i).forward(x, nn::Mode::kEval);
      ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    const std::string p = "snn.layer." + stage;
    out.set(p + ".fwd_ms", median(ms), "ms");
    out.set(p + ".in_density",
            static_cast<double>(nonzero) / static_cast<double>(x.numel()),
            "ratio");
    out.set(p + ".zero_slab_frac",
            static_cast<double>(zero_rows) / static_cast<double>(rows),
            "ratio");
    x = std::move(y);
  }
}

void probe_anytime(snn::SpikingClassifier& model, const Tensor& images,
                   Report& out) {
  snn::AnytimeRunner runner(model);
  const auto run = [&](std::int64_t batch, int reps) {
    std::vector<double> us;
    for (int k = 0; k < reps; ++k) {
      const std::int64_t b0 = (k * batch) % (images.dim(0) - batch);
      runner.begin(nn::slice_batch(images, b0, b0 + batch));
      while (!runner.done()) {
        Span span("snn.anytime.step");
        const Clock::time_point t0 = Clock::now();
        runner.step();
        us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      }
    }
    return us;
  };
  put_p50_p99(out, "snn.anytime.step_us.b1", run(1, 40), "us");
  put_p50_p99(out, "snn.anytime.step_us.b8", run(8, 10), "us");
}

void probe_train_eval(const ProbeInputs& in, Report& out) {
  const nn::LenetSpec arch = bench_arch();
  snn::SnnConfig cfg;
  cfg.v_th = in.cell.v_th;
  cfg.time_steps = in.cell.time_steps;
  snnsec::util::Rng rng(7);
  auto fresh = snn::build_spiking_lenet(arch, cfg, rng);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.lr = 4e-3;
  const std::int64_t n = 128;
  const Tensor x = nn::slice_batch(in.data->train.images, 0, n);
  const std::vector<std::int64_t> y(in.data->train.labels.begin(),
                                    in.data->train.labels.begin() + n);
  Clock::time_point t0 = Clock::now();
  {
    Span span("nn.fit");
    nn::Trainer(tc).fit(*fresh, x, y);
  }
  out.set("nn.fit.batch_ms",
          seconds_between(t0, Clock::now()) * 1e3 /
              static_cast<double>(n / tc.batch_size),
          "ms");
  t0 = Clock::now();
  {
    Span span("nn.accuracy");
    nn::accuracy(*in.model, in.data->test.images, in.data->test.labels);
  }
  out.set("nn.eval_ms", seconds_between(t0, Clock::now()) * 1e3, "ms");
}

void probe_attack(const ProbeInputs& in, Report& out) {
  const std::int64_t n = 16;
  const Tensor x = nn::slice_batch(in.data->test.images, 0, n);
  const std::vector<std::int64_t> y(in.data->test.labels.begin(),
                                    in.data->test.labels.begin() + n);
  TimedClassifier timed(*in.model);
  const std::vector<std::int64_t> before = in.model->predict(x);
  snnsec::attack::PgdConfig pc;
  pc.steps = 10;
  pc.rel_stepsize = 0.1;
  snnsec::attack::Pgd pgd(pc);
  snnsec::attack::AttackBudget budget;
  budget.epsilon = 0.1;
  const Clock::time_point t0 = Clock::now();
  Tensor adv;
  {
    Span span("attacks.pgd.perturb");
    adv = pgd.perturb(timed, x, y, budget);
  }
  const double ms = seconds_between(t0, Clock::now()) * 1e3;
  const std::vector<std::int64_t> after = in.model->predict(adv);
  std::int64_t fooled = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (before[k] == y[k] && after[k] != y[k]) ++fooled;
  }
  out.set("attacks.pgd.ms_per_sample", ms / static_cast<double>(n), "ms");
  out.set("attacks.grad_evals", static_cast<double>(timed.grad_evals),
          "count");
  out.set("attacks.fooled_frac",
          static_cast<double>(fooled) / static_cast<double>(n), "ratio");
  out.set("snn.input_gradient_ms",
          mean(Spans::get().durations_ms("snn.input_gradient")), "ms");
}

void probe_core(const ProbeInputs& in, Report& out) {
  snnsec::core::ExplorationConfig cfg = snnsec::core::quick_profile();
  cfg.v_th_grid = {in.cell.v_th};
  cfg.t_grid = {in.cell.time_steps};
  cfg.eps_grid = {0.1};
  cfg.accuracy_threshold = 0.0;  // always attack: the probe times both parts
  cfg.train.epochs = 1;
  cfg.data = bench_data(1);
  cfg.data.train_n = 64;
  cfg.data.test_n = 16;
  cfg.attack_test_cap = 8;
  cfg.pgd.steps = 3;
  const auto dir = std::filesystem::path(in.tmp_dir) / "core_probe";
  std::filesystem::create_directories(dir);
  const snnsec::data::DataBundle data = snnsec::data::load_digits(cfg.data);
  snnsec::core::RobustnessExplorer explorer(cfg, dir.string(),
                                            (dir / "journal.jsonl").string());
  Clock::time_point mark = Clock::now();
  double attack_s = 0.0;
  double train_s = 0.0;
  std::int64_t skipped = 0;
  explorer.explore(data, [&](const snnsec::core::CellResult& c) {
    const Clock::time_point now = Clock::now();
    Spans::get().record("core.cell", mark, now);
    train_s = c.train_seconds;
    attack_s = seconds_between(mark, now) - c.train_seconds;
    if (c.status == snnsec::core::CellStatus::kSkippedLearnability) ++skipped;
    mark = now;
  });
  out.set("core.cell.train_s", train_s, "s");
  out.set("core.cell.attack_s", attack_s, "s");
  out.set("core.cells_skipped", static_cast<double>(skipped), "count");
}

void probe_gemm(const ProbeInputs& in, Report& out) {
  serve::ServerConfig cfg = inline_server_config();
  cfg.model_path = in.checkpoint;
  serve::Server server(cfg);
  const Tensor x = nn::slice_batch(in.data->test.images, 0, 1);
  serve::InferResult r;
  server.infer(x, serve::RequestOptions{}, r);
  const double calls0 = registry_counter("tensor.gemm.calls");
  const double flops0 = registry_counter("tensor.gemm.flops");
  const double events0 = registry_counter("tensor.gemm.events_path");
  const int n = 40;
  for (int i = 0; i < n; ++i) server.infer(x, serve::RequestOptions{}, r);
  const double calls = registry_counter("tensor.gemm.calls") - calls0;
  out.set("tensor.gemm.calls_per_req", calls / n, "count");
  out.set("tensor.gemm.gflop_per_req",
          (registry_counter("tensor.gemm.flops") - flops0) / n / 1e9,
          "GFLOP");
  out.set("tensor.gemm.events_share",
          calls > 0 ? (registry_counter("tensor.gemm.events_path") - events0) /
                          calls
                    : 0.0,
          "ratio");
  server.stop();
}

/// A three-group router over the workload's cell: Router::infer per
/// threat class, the quota path and the wire round trip.
void probe_fleet(const ProbeInputs& in, Report& out) {
  fleet::Router router(fleet_router_config(
      {in.checkpoint, in.checkpoint, in.checkpoint}));
  const std::vector<Tensor> images = split_images(
      nn::slice_batch(in.data->test.images, 0, 32));
  fleet::FleetResult fr;
  const std::pair<const char*, std::uint64_t> classes[] = {
      {"trusted", kTrusted}, {"suspect", kSuspect}, {"hostile", kHostile}};
  for (const auto& [label, tenant] : classes) {
    std::vector<double> route_us;
    for (int i = 0; i < 60; ++i) {
      const Tensor& x = images[static_cast<std::size_t>(i) % images.size()];
      const Clock::time_point t0 = Clock::now();
      {
        Span span("fleet.route", static_cast<std::uint64_t>(i) + 1);
        router.infer(tenant, x, serve::RequestOptions{}, fr);
      }
      route_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    put_p50_p99(out, std::string("fleet.route_us.") + label, route_us, "us");
  }
  // Twice the bulk tenant's burst back to back: the quota path rejects.
  for (int i = 0; i < 2 * static_cast<int>(kBulkQuotaRps); ++i)
    router.infer(kBulk, images[0], serve::RequestOptions{}, fr);

  {
    fleet::FrontendConfig fc;
    fleet::Frontend fe(router, fc);
    fleet::WireClient client("127.0.0.1", fe.port(),
                             4 + 4 * static_cast<std::size_t>(
                                         images[0].numel()) + 1024);
    std::vector<double> wire_us;
    fleet::ResponseMeta resp;
    for (int i = 0; i < 100; ++i) {
      fleet::RequestMeta meta;
      meta.request_id = static_cast<std::uint64_t>(i) + 1;
      meta.tenant = kTrusted;
      const Tensor& x = images[static_cast<std::size_t>(i) % images.size()];
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      {
        Span span("fleet.wire", meta.request_id);
        ok = client.request(meta, x.data(),
                            static_cast<std::size_t>(x.numel()), resp);
      }
      if (ok)
        wire_us.push_back(seconds_between(t0, Clock::now()) * 1e6 -
                          static_cast<double>(resp.latency_us));
    }
    put_p50_p99(out, "fleet.wire_us", wire_us, "us");
    client.close();
    fe.stop();
  }
  router.stop();
}

}  // namespace

double registry_counter(const char* name) {
  return static_cast<double>(
      snnsec::obs::Registry::instance().counter(name).value());
}

void put_p50_p99(Report& out, const std::string& name,
                 const std::vector<double>& values, const std::string& unit) {
  out.set(name + ".p50", percentile(values, 0.50), unit);
  out.set(name + ".p99", percentile(values, 0.99), unit);
}

void serve_record_metrics(const PhaseResult& phase,
                          const std::vector<ServeSample>& rec, Report& out) {
  std::vector<double> queue, exec, batch, steps;
  std::int64_t truncated = 0;
  for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
    if (phase.outcomes[i].kind != Outcome::Kind::kCompleted) continue;
    const ServeSample& r = rec[i];
    queue.push_back(static_cast<double>(r.queue_us));
    exec.push_back(static_cast<double>(r.latency_us - r.queue_us));
    batch.push_back(static_cast<double>(r.batch));
    steps.push_back(static_cast<double>(r.steps));
    if (r.truncated) ++truncated;
  }
  put_p50_p99(out, "serve.queue_us", queue, "us");
  put_p50_p99(out, "serve.exec_us", exec, "us");
  out.set("serve.batch_size.mean", mean(batch), "count");
  out.set("serve.steps_used.mean", mean(steps), "count");
  out.set("serve.truncated_frac",
          batch.empty() ? 0.0
                        : static_cast<double>(truncated) /
                              static_cast<double>(batch.size()),
          "ratio");
}

void span_layer_metrics(Report& out) {
  const std::map<std::string, double> self = Spans::get().self_ms_by_layer();
  for (const char* layer :
       {"data", "nn", "snn", "attacks", "core", "serve", "fleet", "gen"}) {
    const auto it = self.find(layer);
    out.set(std::string("trace.self_ms.") + layer,
            it == self.end() ? 0.0 : it->second, "ms");
  }
}

void run_probes(const ProbeInputs& in, Report& out) {
  {
    std::vector<double> s;
    for (int k = 0; k < 3; ++k) {
      const Clock::time_point t0 = Clock::now();
      Span span("data.load_digits");
      snnsec::data::load_digits(bench_data(1));
      s.push_back(seconds_between(t0, Clock::now()));
    }
    out.set("data.load_s", median(s), "s");
  }
  probe_train_eval(in, out);
  probe_layers(*in.model, in.data->test.images, out);
  probe_anytime(*in.model, in.data->test.images, out);
  probe_attack(in, out);
  if (!in.explore_core) probe_core(in, out);
  probe_gemm(in, out);
  probe_fleet(in, out);
  out.set("fleet.quota.rejected", registry_counter("fleet.quota.rejected"),
          "count");
  out.set("fleet.frontend.shed", registry_counter("fleet.frontend.shed"),
          "count");
  out.set("fleet.ensemble.ties", registry_counter("fleet.ensemble.ties"),
          "count");
  out.set("pool.tasks", registry_counter("pool.tasks"), "count");
}

}  // namespace perfbench
