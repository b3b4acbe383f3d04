// Tests of the benchmark's due-time driver: percentiles on known samples,
// a stalled target showing up in latency, exact allocation counts and a
// monotone SLO search.
// Exits non-zero on the first failed expectation.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "driver.hpp"

namespace {

using namespace perfbench;

int g_failed = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failed;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// A single-server target: each request holds one lock for `service_us`;
/// request `stall_at` holds it for `stall_ms` instead.
SubmitFn fake_target(std::mutex& m, int service_us, std::int64_t stall_at,
                     int stall_ms) {
  return [&m, service_us, stall_at, stall_ms](int, std::int64_t i,
                                              Outcome& out) {
    std::lock_guard<std::mutex> lk(m);
    if (i == stall_at)
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    else
      std::this_thread::sleep_for(std::chrono::microseconds(service_us));
    out.kind = Outcome::Kind::kCompleted;
    out.pred = i;
  };
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  expect(near(percentile(v, 0.5), 50.5), "p50 of 1..100 is 50.5");
  expect(near(percentile(v, 0.99), 99.01), "p99 of 1..100 is 99.01");
  expect(near(percentile(v, 0.0), 1.0) && near(percentile(v, 1.0), 100.0),
         "p0 and p100 are the extremes");
  expect(near(percentile({7.0}, 0.99), 7.0), "single sample");
  expect(near(percentile({}, 0.5), 0.0), "empty sample reads 0");
  expect(near(median({3.0, 1.0, 2.0, 10.0}), 2.5), "median of four");
}

void test_counts_and_latency() {
  std::mutex m;
  const PhaseResult r =
      run_phase(400.0, 200, 4, fake_target(m, 200, -1, 0));
  expect(r.counts.offered == 200 && r.counts.completed == 200 &&
             r.counts.refused == 0 && r.counts.failed == 0,
         "open loop completes every offered request");
  expect(r.latency_pct_ms(0.5) >= 0.2 && r.latency_pct_ms(0.5) < 5.0,
         "unloaded latency is about the service time");
  expect(r.wall_s >= 199.0 / 400.0, "arrivals follow the schedule");
  // Generous limit: host scheduling stalls reach ~15 ms on shared VMs.
  expect(slo_pass(r, 50.0), "an unloaded target meets a 50 ms SLO");
}

void test_stall_shows_in_latency() {
  std::mutex m;
  // 100 ms stall at 500 rps: ~50 later arrivals queue behind it. Their
  // latency is due-time based, so the p99 must carry the stall even
  // though each request's own service time stays ~0.2 ms.
  const PhaseResult r =
      run_phase(500.0, 1000, 4, fake_target(m, 200, 100, 100));
  expect(r.latency_pct_ms(0.99) > 40.0, "a stalled target shows in p99");
  expect(r.latency_pct_ms(0.5) < 5.0, "the median stays unloaded");
  expect(r.late_pct_ms(0.99) > 20.0,
         "sends behind the stall are reported late");
  std::printf("     stalled phase: p99 %.1f ms, chunked p99 %.1f ms\n",
              r.latency_pct_ms(0.99), r.chunked_pct_ms(0.99, 0.25));
  expect(r.chunked_pct_ms(0.99, 0.25) < 0.5 * r.latency_pct_ms(0.99),
         "one stall spoils one chunk, not the chunked p99");
  std::mutex m2;
  const PhaseResult slow =
      run_phase(100.0, 300, 4, fake_target(m2, 8000, -1, 0));
  expect(!slo_pass(slow, 5.0), "a target slower than the limit misses it");
}

void test_alloc_count() {
  const SubmitFn noop = [](int, std::int64_t, Outcome& out) {
    out.kind = Outcome::Kind::kCompleted;
  };
  run_phase(0.0, 100, 4, noop);  // threads started, if not yet
  expect(run_phase(0.0, 1000, 4, noop).allocs == 0,
         "the driver allocates nothing inside a phase");
  // The pointers escape through `sink`, so the allocations are not elided.
  static std::atomic<int*> sink{nullptr};
  const SubmitFn two = [](int, std::int64_t i, Outcome& out) {
    for (int k = 0; k < 2; ++k)
      delete sink.exchange(new int(static_cast<int>(i)));
    out.kind = Outcome::Kind::kCompleted;
  };
  expect(run_phase(0.0, 500, 4, two).allocs == 1000,
         "a target's allocations are counted exactly");
}

double slo_for(int service_us) {
  std::mutex m;
  SloSpec spec;
  spec.limit_ms = 20.0;  // well above host stalls: capacity decides
  spec.lo_rps = 200.0;
  spec.step = 0.5;
  spec.max_probes = 12;
  spec.probe_s = 0.3;
  spec.min_samples = 150;
  return slo_search(spec, [&](double rate, std::int64_t n) {
           return run_phase(rate, n, 4,
                                fake_target(m, service_us, -1, 0));
         }).slo_rps;
}

void test_slo_monotone() {
  const double fast = slo_for(400);    // capacity ~2,500 rps
  const double slow = slo_for(1600);   // capacity ~600 rps
  std::printf("     slo fast %.0f rps, slow %.0f rps\n", fast, slow);
  expect(slow < fast, "a slower target gets a lower SLO rate");
  expect(slow <= 1.0e6 / 1600.0 * 1.05,
         "the SLO rate does not exceed the slow target's capacity");
  expect(slow > 0.0, "the SLO rate is positive");
}

}  // namespace

int main() {
  test_percentiles();
  test_counts_and_latency();
  test_stall_shows_in_latency();
  test_alloc_count();
  test_slo_monotone();
  std::printf("%s: %d failed\n", g_failed ? "FAILED" : "PASSED", g_failed);
  return g_failed ? 1 : 0;
}
