#include "serving.hpp"

#include "spans.hpp"

namespace perfbench {

namespace serve = snnsec::serve;
namespace fleet = snnsec::fleet;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform draw in [0, 1) for request i of a phase.
double unit_draw(std::uint64_t seed, std::int64_t i) {
  return static_cast<double>(
             splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(i))) >>
             11) *
         0x1.0p-53;
}

std::int64_t pick(std::uint64_t seed, std::int64_t i, std::size_t pool) {
  return static_cast<std::int64_t>(unit_draw(seed, i) *
                                   static_cast<double>(pool));
}

Outcome::Kind kind_of(serve::ResultStatus s) {
  switch (s) {
    case serve::ResultStatus::kOk:
    case serve::ResultStatus::kFlagged:
      return Outcome::Kind::kCompleted;
    case serve::ResultStatus::kRejected:
      return Outcome::Kind::kRefused;
    case serve::ResultStatus::kError:
      break;
  }
  return Outcome::Kind::kFailed;
}

}  // namespace

serve::ServerConfig inline_server_config() {
  serve::ServerConfig cfg;
  cfg.workers = 0;  // inline: submitters drive micro-batches (fleet mode)
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_delay_us = 200;
  cfg.batcher.capacity = 64;
  return cfg;
}

Counts counts_since(const serve::Server& server,
                    const serve::ServerStats& a) {
  const serve::ServerStats b = server.stats();
  Counts c;
  c.completed = b.completed - a.completed;
  c.refused = b.shed - a.shed;
  c.failed = b.errors - a.errors;
  c.offered = (b.submitted - a.submitted) + c.refused;
  return c;
}

void ServeRig::start(const std::string& checkpoint) {
  serve::ServerConfig cfg = inline_server_config();
  cfg.model_path = checkpoint;
  server = std::make_unique<serve::Server>(cfg);
  results.assign(kClientThreads, serve::InferResult{});
  for (serve::InferResult& r : results)  // warm path and result buffers
    for (int k = 0; k < 3; ++k)
      server->infer(images[0], serve::RequestOptions{}, r);
}

PhaseResult serve_phase(ServeRig& rig, double rate, std::int64_t n,
                        std::uint64_t seed, std::vector<ServeSample>* rec,
                        AnswerCheck* check, int threads) {
  std::vector<std::int64_t> image(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    image[static_cast<std::size_t>(i)] = pick(seed, i, rig.images.size());
  if (rec != nullptr) rec->assign(static_cast<std::size_t>(n), {});

  const SubmitFn submit = [&](int tid, std::int64_t i, Outcome& out) {
    const auto idx = static_cast<std::size_t>(i);
    serve::InferResult& r = rig.results[static_cast<std::size_t>(tid)];
    {
      Span span("serve.infer");
      rig.server->infer(rig.images[static_cast<std::size_t>(image[idx])],
                        serve::RequestOptions{}, r);
    }
    out.kind = kind_of(r.status);
    out.pred = r.pred;
    if (rec != nullptr)
      (*rec)[idx] = ServeSample{r.queue_us, r.latency_us, r.batch_size,
                                    r.steps_used, r.truncated};
  };
  const serve::ServerStats before = rig.server->stats();
  PhaseResult res = run_phase(rate, n, threads, submit);
  res.reported = counts_since(*rig.server, before);

  if (check != nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      const Outcome& o = res.outcomes[static_cast<std::size_t>(i)];
      if (o.kind != Outcome::Kind::kCompleted) continue;
      const auto img =
          static_cast<std::size_t>(image[static_cast<std::size_t>(i)]);
      ++check->answers;
      if (o.pred == rig.labels[img]) ++check->correct;
      if (o.pred != rig.ref[img]) ++check->mismatches;
    }
  }
  return res;
}

fleet::RouterConfig fleet_router_config(
    const std::vector<std::string>& checkpoints) {
  static const fleet::GroupRole kRoles[] = {fleet::GroupRole::kLowLatency,
                                            fleet::GroupRole::kBalanced,
                                            fleet::GroupRole::kHardened};
  static const char* const kNames[] = {"low", "balanced", "hardened"};
  fleet::RouterConfig rc;
  for (std::size_t g = 0; g < checkpoints.size(); ++g) {
    fleet::GroupConfig gc;
    gc.name = kNames[g];
    gc.role = kRoles[g];
    gc.model_path = checkpoints[g];
    gc.replicas = 1;
    gc.server = inline_server_config();
    gc.server.supervisor.enabled = true;
    rc.groups.push_back(gc);
  }
  rc.tenants.push_back({kTrusted, fleet::Threat::kTrusted, 0, 0});
  rc.tenants.push_back({kSuspect, fleet::Threat::kSuspect, 0, 0});
  rc.tenants.push_back({kHostile, fleet::Threat::kHostile, 0, 0});
  rc.tenants.push_back(
      {kBulk, fleet::Threat::kTrusted, kBulkQuotaRps, kBulkQuotaRps});
  rc.default_tenant.threat = fleet::Threat::kTrusted;
  return rc;
}

}  // namespace perfbench
