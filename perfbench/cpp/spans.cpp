#include "spans.hpp"

#include <atomic>
#include <fstream>

namespace perfbench {

namespace {

struct ThreadState {
  std::vector<std::int64_t> stack;
  std::uint32_t tid;
};

ThreadState& thread_state() {
  static std::atomic<std::uint32_t> next{0};
  thread_local ThreadState st{{}, next.fetch_add(1)};
  return st;
}

}  // namespace

Spans& Spans::get() {
  static Spans* s = new Spans();  // leaked: outlives every traced thread
  return *s;
}

std::int64_t Spans::open(const char* name, std::uint64_t request) {
  ThreadState& st = thread_state();
  const std::int64_t parent = st.stack.empty() ? -1 : st.stack.back();
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (request == 0 && parent >= 0)
      request = recs_[static_cast<std::size_t>(parent)].request;
    index = static_cast<std::int64_t>(recs_.size());
    recs_.push_back(Rec{name, Clock::now(), {}, parent, request, st.tid,
                        false});
  }
  st.stack.push_back(index);
  return index;
}

void Spans::close(std::int64_t index) {
  const Clock::time_point end = Clock::now();
  ThreadState& st = thread_state();
  if (!st.stack.empty() && st.stack.back() == index) st.stack.pop_back();
  std::lock_guard<std::mutex> lk(m_);
  Rec& r = recs_[static_cast<std::size_t>(index)];
  r.end = end;
  r.closed = true;
}

void Spans::record(const char* name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t request) {
  if (!enabled_) return;
  ThreadState& st = thread_state();
  const std::int64_t parent = st.stack.empty() ? -1 : st.stack.back();
  std::lock_guard<std::mutex> lk(m_);
  if (request == 0 && parent >= 0)
    request = recs_[static_cast<std::size_t>(parent)].request;
  recs_.push_back(Rec{name, start, end, parent, request, st.tid, true});
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<double> self(recs_.size(), 0.0);
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    if (!recs_[i].closed) continue;
    const double d =
        std::chrono::duration<double, std::milli>(recs_[i].end -
                                                  recs_[i].start)
            .count();
    self[i] += d;
    if (recs_[i].parent >= 0)
      self[static_cast<std::size_t>(recs_[i].parent)] -= d;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    if (!recs_[i].closed) continue;
    const std::string name = recs_[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

std::vector<double> Spans::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<double> out;
  for (const Rec& r : recs_)
    if (r.closed && name == r.name)
      out.push_back(
          std::chrono::duration<double, std::milli>(r.end - r.start).count());
  return out;
}

void Spans::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(m_);
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (!r.closed) continue;
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    os << (first ? "" : ",\n") << "{\"name\": \"" << json_escape(r.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
       << ", \"ts\": " << us(r.start)
       << ", \"dur\": " << us(r.end) - us(r.start)
       << ", \"args\": {\"span\": " << i << ", \"parent\": " << r.parent
       << ", \"request\": " << r.request << "}}";
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
