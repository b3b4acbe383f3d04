// The serving rig driven by the due-time driver: an in-process
// serve::Server (serve_open, and the sweet spot deployed by explore), and
// the fleet configuration the traced runs probe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver.hpp"
#include "fleet/router.hpp"
#include "serve/server.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

inline constexpr int kClientThreads = 4;  // one process, <= nproc clients

/// Serve-side fields of one answered request (serve::InferResult).
struct ServeSample {
  std::int64_t queue_us = 0;
  std::int64_t latency_us = 0;
  std::int64_t batch = 0;
  std::int64_t steps = 0;
  bool truncated = false;
};

/// Accuracy and bit-identity over one phase's answers.
struct AnswerCheck {
  std::int64_t answers = 0;  ///< completed requests
  std::int64_t correct = 0;
  std::int64_t mismatches = 0;  ///< answers != one-shot reference
};

snnsec::serve::ServerConfig inline_server_config();

struct ServeRig {
  std::unique_ptr<snnsec::serve::Server> server;
  std::vector<snnsec::tensor::Tensor> images;  ///< clean test images [1,..]
  std::vector<std::int64_t> labels;
  std::vector<std::int64_t> ref;  ///< one-shot reference predictions
  std::vector<snnsec::serve::InferResult> results;  ///< one per thread

  /// Builds the server on `checkpoint` and warms every submitter's result.
  void start(const std::string& checkpoint);
};

/// The requests since the `before` snapshot as `server`'s own counters
/// report them: admitted plus shed are offered.
Counts counts_since(const snnsec::serve::Server& server,
                    const snnsec::serve::ServerStats& before);

/// One phase of n requests through Server::infer from `threads` submitters
/// (at most kClientThreads); rate 0 runs a closed loop. Fills `reported`
/// from the server's own counters and, when `rec` is given, one sample per
/// request.
PhaseResult serve_phase(ServeRig& rig, double rate, std::int64_t n,
                        std::uint64_t seed, std::vector<ServeSample>* rec,
                        AnswerCheck* check, int threads);

// ---- fleet, probed by traced runs -------------------------------------------

enum Tenant : std::uint64_t {
  kTrusted = 1,
  kSuspect = 2,
  kHostile = 3,
  kBulk = 4,  ///< quota-capped
};

/// The bulk tenant's token bucket (rate in rps, and burst).
inline constexpr double kBulkQuotaRps = 20.0;

/// Groups low, balanced and hardened over `checkpoints` (one supervised
/// inline replica each, as bench_fleet runs them) and the four tenants.
snnsec::fleet::RouterConfig fleet_router_config(
    const std::vector<std::string>& checkpoints);

}  // namespace perfbench
