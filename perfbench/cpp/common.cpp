#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = Entry{value, unit};
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end())
    throw std::runtime_error("report: no metric " + name);
  return it->second.value;
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, e] : values_) {
    char num[64];
    // %.17g keeps every digit of the measurement.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    os << (first ? "" : ", ") << "\"" << json_escape(name)
       << "\": {\"value\": " << num << ", \"unit\": \""
       << json_escape(e.unit) << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    failures_.push_back(what);
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
