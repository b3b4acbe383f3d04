// snnsec_fleet: stand up a sharded (Vth, T) fleet behind the binary TCP
// front-end.
//
// Trains (or loads) one checkpoint per --vth/--steps pair, hosts each as a
// worker group of the fleet Router (first pair = low-latency cell, last =
// hardened cell, middle = balanced ensemble diversity), and serves the
// wire protocol on --port. Tenant convention, shared with snnsec_loadgen:
// tenant 1 is trusted, tenant 2 suspect, tenant 3 hostile; every other
// tenant id gets the default policy (--default-threat) and the optional
// --quota-rps/--quota-burst token bucket.
//
//   ./snnsec_fleet --model-dir /tmp/fleet --duration-s 30 &
//   ./snnsec_loadgen --connect 127.0.0.1:<port> --total 1000
//
// With --duration-s 0 the fleet runs until stdin reaches EOF (ctrl-d).
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "data/provider.hpp"
#include "fleet/frontend.hpp"
#include "fleet/router.hpp"
#include "serve_common.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace snnsec;

fleet::Threat parse_threat(const std::string& s) {
  if (s == "trusted") return fleet::Threat::kTrusted;
  if (s == "suspect") return fleet::Threat::kSuspect;
  if (s == "hostile") return fleet::Threat::kHostile;
  SNNSEC_FAIL("snnsec_fleet: unknown threat '"
              << s << "' (trusted | suspect | hostile)");
}

int run(int argc, const char* const* argv) {
  util::ArgParser args("snnsec_fleet",
                       "Sharded (Vth, T) fleet behind the TCP front-end");
  auto& model_dir = args.add_string(
      "model-dir",
      (std::filesystem::temp_directory_path() / "snnsec_fleet").string(),
      "directory for per-cell checkpoints (trained when missing)");
  auto& vths = args.add_double_list("vth", "0.9,1.1,1.4",
                                    "firing threshold per cell");
  auto& steps = args.add_int_list("steps", "8,12,16",
                                  "time window T per cell");
  auto& image = args.add_int("image", 16, "input image size");
  auto& epochs = args.add_int("epochs", 3, "training epochs per new cell");
  auto& train_n = args.add_int("train-n", 800, "training samples");
  auto& replicas = args.add_int("replicas", 1, "replicas per group");
  auto& port = args.add_int("port", 0, "TCP port (0 = ephemeral)");
  auto& executors = args.add_int("executors", 2, "executor threads");
  auto& max_conns = args.add_int("max-conns", 64, "connection limit");
  auto& queue = args.add_int("queue", 64, "dispatch ring depth");
  auto& quota_rps =
      args.add_double("quota-rps", 0.0, "default tenant rate (0 = none)");
  auto& quota_burst =
      args.add_double("quota-burst", 0.0, "default tenant burst tokens");
  auto& default_threat = args.add_string(
      "default-threat", "trusted", "policy for unknown tenants");
  auto& duration_s = args.add_int(
      "duration-s", 0, "serve this long, then exit (0 = until stdin EOF)");
  args.parse(argc, argv);

  SNNSEC_CHECK(vths.size() == steps.size(),
               "snnsec_fleet: --vth and --steps need one entry per cell");
  SNNSEC_CHECK(!vths.empty(), "snnsec_fleet: at least one cell required");

  data::DataSpec dspec;
  dspec.train_n = train_n;
  dspec.test_n = 100;
  dspec.image_size = image;
  const data::DataBundle bundle = data::load_digits(dspec);
  std::filesystem::create_directories(model_dir);

  fleet::RouterConfig rc;
  for (std::size_t i = 0; i < vths.size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "cell_vth%.2f_T%lld", vths[i],
                  static_cast<long long>(steps[i]));
    const std::string ckpt = model_dir + "/" + name + ".snnm";
    if (!std::filesystem::exists(ckpt))
      tools::train_checkpoint(ckpt, bundle, image, steps[i], vths[i],
                              epochs);
    fleet::GroupConfig g;
    g.name = name;
    g.role = i == 0 ? fleet::GroupRole::kLowLatency
             : i + 1 == vths.size() ? fleet::GroupRole::kHardened
                                    : fleet::GroupRole::kBalanced;
    g.model_path = ckpt;
    g.replicas = replicas;
    rc.groups.push_back(g);
  }
  const bool ensemble_ok = rc.groups.size() >= 3;
  rc.tenants.push_back({1, fleet::Threat::kTrusted, 0.0, 0.0});
  rc.tenants.push_back({2, fleet::Threat::kSuspect, 0.0, 0.0});
  if (ensemble_ok)
    rc.tenants.push_back({3, fleet::Threat::kHostile, 0.0, 0.0});
  rc.default_tenant.threat = parse_threat(default_threat);
  rc.default_tenant.rate_rps = quota_rps;
  rc.default_tenant.burst = quota_burst;

  fleet::Router router(std::move(rc));
  fleet::FrontendConfig fc;
  fc.port = static_cast<int>(port);
  fc.executors = executors;
  fc.max_connections = max_conns;
  fc.queue_capacity = queue;
  fleet::Frontend frontend(router, fc);
  std::printf("fleet: %lld groups on 127.0.0.1:%d (tenant 1 trusted, "
              "2 suspect%s)\n",
              static_cast<long long>(router.num_groups()), frontend.port(),
              ensemble_ok ? ", 3 hostile-ensemble" : "");
  std::fflush(stdout);

  if (duration_s > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(duration_s));
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
    }
  }

  frontend.stop();
  router.stop();
  const fleet::FrontendStats fs = frontend.stats();
  const fleet::RouterStats rs = router.stats();
  std::printf("frontend: %lld conns, %lld requests, %lld responses, "
              "%lld malformed, %lld shed\n",
              static_cast<long long>(fs.connections_accepted),
              static_cast<long long>(fs.requests),
              static_cast<long long>(fs.responses),
              static_cast<long long>(fs.malformed),
              static_cast<long long>(fs.shed));
  std::printf("router: %lld routed, %lld completed, %lld quota-rejected, "
              "%lld rerouted, %lld ensembles\n",
              static_cast<long long>(rs.requests),
              static_cast<long long>(rs.completed),
              static_cast<long long>(rs.quota_rejected),
              static_cast<long long>(rs.rerouted),
              static_cast<long long>(rs.ensembles));
  for (const auto& g : rs.groups)
    std::printf("  group %s (vth=%.2f T=%lld): %lld completed, %lld shed, "
                "%lld flagged\n",
                g.name.c_str(), g.v_th,
                static_cast<long long>(g.time_steps),
                static_cast<long long>(g.completed),
                static_cast<long long>(g.shed),
                static_cast<long long>(g.flagged));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
