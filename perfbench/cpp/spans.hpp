// In-memory span recorder for traced runs (--trace 1).
//
// Each span has a name, start, end, parent and request id. Parents come
// from a per-thread stack, so nesting follows the call structure; a span
// opened with request id 0 inherits its parent's id, so every span of one
// request shares that request's id. Spans stay in memory and are written
// as a Chrome trace at exit. The layer of a span is its name up to the
// first '.', and self time (duration minus direct children) is summed per
// layer.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Spans {
 public:
  static Spans& get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  std::int64_t open(const char* name, std::uint64_t request = 0);
  void close(std::int64_t index);
  /// Records an already-finished span under the current thread's parent.
  void record(const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t request = 0);

  /// Self time in milliseconds summed per layer.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Durations (ms) of every closed span with this exact name.
  std::vector<double> durations_ms(const std::string& name) const;
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;
    std::uint64_t request;
    std::uint32_t tid;
    bool closed;
  };

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex m_;
  std::vector<Rec> recs_;
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : index_(Spans::get().enabled() ? Spans::get().open(name, request)
                                      : -1) {}
  ~Span() {
    if (index_ >= 0) Spans::get().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

}  // namespace perfbench
