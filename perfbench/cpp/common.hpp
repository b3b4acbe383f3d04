// Shared helpers for the snnsec benchmark: clocks, percentiles, the metric
// report, the allocation counter and process resource readings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation percentile (numpy's default), q in [0, 1]. Sorts a
/// copy; returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Heap allocations seen by the benchmark binary's operator-new hook.
std::int64_t alloc_count();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Ordered name -> (value, unit) map printed as the run's metrics.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return values_.count(name) > 0; }
  double get(const std::string& name) const;
  std::string json() const;  ///< {"name": {"value": v, "unit": "u"}, ...}

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

/// Operation accounting shared by every workload.
struct Counts {
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t refused = 0;
  std::int64_t failed = 0;

  Counts& operator+=(const Counts& o) {
    offered += o.offered;
    completed += o.completed;
    refused += o.refused;
    failed += o.failed;
    return *this;
  }
  bool operator==(const Counts&) const = default;
};

/// Correctness ledger: every violated check is recorded by name.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
