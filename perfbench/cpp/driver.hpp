// Due-time load driver.
//
// Open loop (rate > 0): request i is due at t0 + i / rate. Up to `threads`
// submitter threads, kept across phases, claim requests in order, sleep
// until the due time and send.
// Latency runs on the client clock from the due time to the reply, so a
// target that falls behind shows its backlog in the latency instead of
// hiding it in a late send; how late sends ran is reported separately
// (gen.late_ms). Closed loop (rate 0, the drain phase) sends back to back.
//
// The SLO search offers rising rates lo, lo*(1+step), ... until a probe
// misses. A probe's figure is its p99 (the median of the p99s of eight
// stretches of the probe, so one host stall does not decide it) or, when
// worse, the backlog's lateness (median send lateness over the last tenth
// of the schedule); a refused or failed request makes it +inf. A probe
// misses when the figure exceeds the limit on two tries. The SLO rate is
// interpolated where the figure crosses the limit between the last
// passing and the first missing probe: steadier than a bisection whose
// first mid-point lands on the knee.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Outcome {
  enum class Kind : std::uint8_t { kCompleted, kRefused, kFailed };
  Kind kind = Kind::kFailed;
  std::int64_t pred = -1;
};

/// Sends request `index` from submitter `thread` and fills `out`.
using SubmitFn =
    std::function<void(int thread, std::int64_t index, Outcome& out)>;

struct PhaseResult {
  double rate_rps = 0.0;  ///< offered rate; 0 for a closed loop
  Counts counts;          ///< as the client saw the requests
  /// The same requests as the target's own counters report them; filled
  /// by the caller, which checks it against `counts`.
  Counts reported;
  /// Heap allocations, process-wide, while the phase ran. With tracing
  /// off the driver itself allocates none there: this is the target's.
  std::int64_t allocs = 0;
  std::vector<Outcome> outcomes;  ///< per request index
  std::vector<double> latency_ms;  ///< per request; completed ones count
  std::vector<double> late_ms;     ///< per request: due time -> send
  double wall_s = 0.0;

  /// Latency percentile over completed requests.
  double latency_pct_ms(double q) const;
  /// Splits the schedule into `chunks` contiguous stretches, takes each
  /// stretch's latency percentile q and returns the `across` quantile of
  /// those: a host stall spoils a stretch, not the figure.
  double chunked_pct_ms(double q, double across = 0.5,
                        int chunks = kChunks) const;
  double late_pct_ms(double q) const;
  /// Median send lateness over the final tenth of the schedule; a growing
  /// backlog pushes it up.
  double tail_late_ms() const;

  static constexpr int kChunks = 8;
};

/// One phase of n requests: open loop at `rate_rps`, closed loop at 0.
PhaseResult run_phase(double rate_rps, std::int64_t n, int threads,
                      const SubmitFn& submit);

bool slo_pass(const PhaseResult& r, double limit_ms);

struct SloSpec {
  double limit_ms = 5.0;
  double lo_rps = 100.0;  ///< expected to pass; halved (up to 3x) if not
  double step = 0.15;     ///< rate increment, as a share of lo_rps
  int max_probes = 12;    ///< rising probes before giving up (-> last rate)
  double probe_s = 1.0;
  std::int64_t min_samples = 500;
};

struct SloResult {
  double slo_rps = 0.0;
  std::vector<std::pair<double, bool>> probes;  ///< (rate, passed)
  Counts counts;
};

/// The p99 statistic the SLO is judged on (see the file comment).
double slo_p99_ms(const PhaseResult& r);

/// `probe(rate, n)` runs one open-loop phase of n requests at `rate`.
SloResult slo_search(
    const SloSpec& spec,
    const std::function<PhaseResult(double rate, std::int64_t n)>& probe);

}  // namespace perfbench
