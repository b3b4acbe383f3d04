// snnsec_perfbench: runs one benchmark workload and prints its metrics.
//
//   snnsec_perfbench prepare --workload W --seed N --cache DIR
//   snnsec_perfbench run --workload W --seed N --seconds S --trace 0|1
//                        --cache DIR --tmp DIR [--trace-out PATH]
//
// `run` prints a detail line (counts, environment, failed checks) and then
// the result line {"correct", "attempted", "failed", "metrics"}; it exits
// 1 when a correctness check fails. perfbench/run.py is the entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Counts;
using perfbench::json_escape;

std::string counts_json(const Counts& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"offered\": %lld, \"completed\": %lld, \"refused\": %lld, "
                "\"failed\": %lld}",
                static_cast<long long>(c.offered),
                static_cast<long long>(c.completed),
                static_cast<long long>(c.refused),
                static_cast<long long>(c.failed));
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: snnsec_perfbench prepare|run --workload W --seed N "
               "[--seconds S] [--trace 0|1] --cache DIR [--tmp DIR] "
               "[--trace-out PATH]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  perfbench::RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::stoull(v);
    else if (k == "--seconds") args.seconds = std::stod(v);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--cache") args.cache_dir = v;
    else if (k == "--tmp") args.tmp_dir = v;
    else if (k == "--trace-out") args.trace_out = v;
    else return usage();
  }
  if (!perfbench::known_workload(args.workload) || args.cache_dir.empty())
    return usage();
  if (mode == "prepare") {
    perfbench::prepare(args);
    return 0;
  }
  if (mode != "run" || args.tmp_dir.empty()) return usage();

  const perfbench::RunOutput out = perfbench::run_workload(args);
  std::string failures = "[";
  for (std::size_t i = 0; i < out.checks.failures().size(); ++i)
    failures += (i ? ", \"" : "\"") + json_escape(out.checks.failures()[i]) +
                "\"";
  failures += "]";
  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"threads\": %zu, \"nproc\": %u, \"counts\": %s, "
              "\"slo_probe_counts\": %s, \"failed_checks\": %s}}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              snnsec::util::ThreadPool::global().size(),
              std::thread::hardware_concurrency(),
              counts_json(out.counts).c_str(),
              counts_json(out.slo_counts).c_str(), failures.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              out.checks.ok() ? "true" : "false",
              static_cast<long long>(out.counts.offered),
              static_cast<long long>(out.counts.failed + out.counts.refused),
              out.metrics.json().c_str());
  std::fflush(stdout);
  return out.checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The compute pool is pinned to one thread: at more threads the serving
  // path allocates per request and can stall (thread-pool defects the
  // benchmark's multi-thread variants wait on).
  setenv("SNNSEC_THREADS", "1", /*overwrite=*/1);
  try {
    return main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snnsec_perfbench: %s\n", e.what());
    return 1;
  }
}
