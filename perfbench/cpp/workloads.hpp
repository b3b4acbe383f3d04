// The benchmark's workloads: explore and serve_open.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;  ///< trained cell and per-seed PGD sets
  std::string tmp_dir;    ///< private to this run
  std::string trace_out;  ///< Chrome trace written here by traced runs
};

struct RunOutput {
  Report metrics;
  Counts counts;  ///< measured operations (SLO-search probes excluded)
  Counts slo_counts;
  Checks checks;
};

bool known_workload(const std::string& name);

/// Trains (or finds cached) the served cell and the seed's PGD set.
void prepare(const RunArgs& args);

RunOutput run_workload(const RunArgs& args);

}  // namespace perfbench
