// Layer probes for traced runs: each times calls into one module's public
// functions on the workload's own cells and writes per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "cells.hpp"
#include "common.hpp"
#include "driver.hpp"
#include "serving.hpp"

namespace perfbench {

struct ProbeInputs {
  snnsec::snn::SpikingClassifier* model = nullptr;  ///< the T=16 cell
  CellSpec cell{};                                  ///< its (Vth, T)
  const snnsec::data::DataBundle* data = nullptr;
  std::string checkpoint;  ///< the same cell on disk
  std::string tmp_dir;
  bool explore_core = false;  ///< core.* already taken from the workload
};

void run_probes(const ProbeInputs& in, Report& out);

/// Registry counter value (0 if the series was never touched).
double registry_counter(const char* name);

/// serve.* (queue and exec p50/p99, batch and steps means, truncated
/// share) over the completed requests of a traced serve_phase.
void serve_record_metrics(const PhaseResult& phase,
                          const std::vector<ServeSample>& rec, Report& out);

/// p50/p99 of `values` as `<name>.p50` / `<name>.p99`.
void put_p50_p99(Report& out, const std::string& name,
                 const std::vector<double>& values, const std::string& unit);

/// trace.self_ms.<layer> for the layers the benchmark names.
void span_layer_metrics(Report& out);

}  // namespace perfbench
