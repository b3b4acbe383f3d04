#include "driver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "spans.hpp"

namespace perfbench {

namespace {

/// Submitter threads that live across phases: a phase measures requests,
/// not thread start-up, and per-thread state the target keeps (workspace
/// arenas, metric caches) stays warm from one phase to the next. Handing
/// a phase to the threads allocates nothing.
class Submitters {
 public:
  static Submitters& get() {
    static Submitters s;
    return s;
  }

  ~Submitters() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Starts threads until there are at least `n`.
  void reserve(int n) {
    std::lock_guard<std::mutex> lk(m_);
    threads_.reserve(static_cast<std::size_t>(n));
    while (static_cast<int>(threads_.size()) < n) {
      const int tid = static_cast<int>(threads_.size());
      threads_.emplace_back([this, tid] { loop(tid); });
    }
  }

  /// Runs job(tid) for tid in [0, n) on the first n threads and waits for
  /// every call to return. reserve(n) must have been called.
  void run(int n, const std::function<void(int)>& job) {
    std::unique_lock<std::mutex> lk(m_);
    job_ = &job;
    active_ = n;
    running_ = n;
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lk, [&] { return running_ == 0; });
    job_ = nullptr;
  }

 private:
  void loop(int tid) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (tid >= active_) continue;
      const std::function<void(int)>* job = job_;
      lk.unlock();
      (*job)(tid);
      lk.lock();
      if (--running_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex m_;
  std::condition_variable start_cv_, done_cv_;
  std::vector<std::thread> threads_;
  const std::function<void(int)>* job_ = nullptr;
  int active_ = 0;
  int running_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

PhaseResult run_phase(double rate_rps, std::int64_t n, int threads,
                     const SubmitFn& submit) {
  PhaseResult r;
  r.rate_rps = rate_rps;
  r.outcomes.assign(static_cast<std::size_t>(n), Outcome{});
  r.latency_ms.assign(static_cast<std::size_t>(n), 0.0);
  r.late_ms.assign(static_cast<std::size_t>(n), 0.0);
  std::atomic<std::int64_t> next{0};
  const bool open = rate_rps > 0.0;
  const auto period = std::chrono::duration<double>(open ? 1.0 / rate_rps : 0);
  // Small lead so every submitter is parked before the first due time.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);

  const std::function<void(int)> worker = [&](int tid) {
    for (;;) {
      const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      Clock::time_point due = Clock::now();
      if (open) {
        due = t0 + std::chrono::duration_cast<Clock::duration>(
                       period * static_cast<double>(i));
        std::this_thread::sleep_until(due);
      }
      const Clock::time_point sent = Clock::now();
      const auto idx = static_cast<std::size_t>(i);
      {
        Span span("gen.request", static_cast<std::uint64_t>(i) + 1);
        submit(tid, i, r.outcomes[idx]);
      }
      const Clock::time_point done = Clock::now();
      r.late_ms[idx] = seconds_between(due, sent) * 1e3;
      r.latency_ms[idx] = seconds_between(due, done) * 1e3;
    }
  };
  Submitters& submitters = Submitters::get();
  submitters.reserve(threads);
  const std::int64_t allocs0 = alloc_count();
  const Clock::time_point start = Clock::now();
  submitters.run(threads, worker);
  r.wall_s = seconds_between(open ? t0 : start, Clock::now());
  r.allocs = alloc_count() - allocs0;

  r.counts.offered = n;
  for (const Outcome& o : r.outcomes) {
    switch (o.kind) {
      case Outcome::Kind::kCompleted: ++r.counts.completed; break;
      case Outcome::Kind::kRefused: ++r.counts.refused; break;
      case Outcome::Kind::kFailed: ++r.counts.failed; break;
    }
  }
  return r;
}

double PhaseResult::latency_pct_ms(double q) const {
  std::vector<double> done;
  done.reserve(latency_ms.size());
  for (std::size_t i = 0; i < latency_ms.size(); ++i)
    if (outcomes[i].kind == Outcome::Kind::kCompleted)
      done.push_back(latency_ms[i]);
  return percentile(std::move(done), q);
}

double PhaseResult::chunked_pct_ms(double q, double across,
                                   int chunks) const {
  std::vector<double> per_chunk;
  const std::size_t n = latency_ms.size();
  for (int c = 0; c < chunks; ++c) {
    std::vector<double> done;
    for (std::size_t i = n * c / chunks; i < n * (c + 1) / chunks; ++i)
      if (outcomes[i].kind == Outcome::Kind::kCompleted)
        done.push_back(latency_ms[i]);
    if (!done.empty()) per_chunk.push_back(percentile(std::move(done), q));
  }
  return percentile(std::move(per_chunk), across);
}

double PhaseResult::late_pct_ms(double q) const {
  return percentile(late_ms, q);
}

double PhaseResult::tail_late_ms() const {
  const auto from = static_cast<std::ptrdiff_t>(late_ms.size() -
                                                late_ms.size() / 10);
  return median(std::vector<double>(late_ms.begin() + from, late_ms.end()));
}

double slo_p99_ms(const PhaseResult& r) {
  return r.chunked_pct_ms(0.99);
}

namespace {

/// The figure compared with the limit: p99, or the backlog's lateness
/// when that is worse; +inf when a request was refused or failed.
double slo_figure_ms(const PhaseResult& r) {
  if (r.counts.refused != 0 || r.counts.failed != 0 || r.counts.completed == 0)
    return HUGE_VAL;
  return std::max(slo_p99_ms(r), r.tail_late_ms());
}

}  // namespace

bool slo_pass(const PhaseResult& r, double limit_ms) {
  return slo_figure_ms(r) <= limit_ms;
}

SloResult slo_search(
    const SloSpec& spec,
    const std::function<PhaseResult(double rate, std::int64_t n)>& probe) {
  SloResult out;
  const auto run = [&](double rate, double& p99) {
    const auto n = std::max<std::int64_t>(
        spec.min_samples, static_cast<std::int64_t>(rate * spec.probe_s));
    // A miss is probed again: one host stall must not end the search.
    p99 = HUGE_VAL;
    for (int attempt = 0; attempt < 2 && !(p99 <= spec.limit_ms);
         ++attempt) {
      const PhaseResult r = probe(rate, n);
      out.counts += r.counts;
      p99 = std::min(p99, slo_figure_ms(r));
    }
    const bool ok = p99 <= spec.limit_ms;
    out.probes.emplace_back(rate, ok);
    return ok;
  };
  double pass_rate = spec.lo_rps;
  double pass_p99 = 0.0;
  double miss_p99 = 0.0;
  double rate = spec.lo_rps;
  // Find a passing rate at or below lo.
  int down = 0;
  while (!run(rate, pass_p99)) {
    if (++down > 3) {
      out.slo_rps = rate;  // floor: nothing passed
      return out;
    }
    miss_p99 = pass_p99;
    rate /= 2.0;
  }
  pass_rate = rate;
  double miss_rate = down > 0 ? rate * 2.0 : 0.0;
  if (down == 0) {
    for (int k = 1; k <= spec.max_probes; ++k) {
      const double next = spec.lo_rps * (1.0 + spec.step * k);
      double p99 = 0.0;
      if (!run(next, p99)) {
        miss_rate = next;
        miss_p99 = p99;
        break;
      }
      pass_rate = next;
      pass_p99 = p99;
    }
  }
  if (miss_rate == 0.0) {  // never missed: report the highest rate probed
    out.slo_rps = pass_rate;
    return out;
  }
  const double frac =
      std::isfinite(miss_p99) && miss_p99 > pass_p99
          ? std::clamp((spec.limit_ms - pass_p99) / (miss_p99 - pass_p99),
                       0.0, 1.0)
          : 0.0;
  out.slo_rps = pass_rate + frac * (miss_rate - pass_rate);
  return out;
}

}  // namespace perfbench
