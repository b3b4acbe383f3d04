// Trace-span profiler: RAII span nesting, per-thread tracks and the
// chrome://tracing JSON rendering.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace snnsec::obs {
namespace {

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().clear();
    Tracer::instance().start();
  }
  void TearDown() override {
    Tracer::instance().stop();
    Tracer::instance().clear();
  }
};

std::int64_t count_occurrences(const std::string& haystack,
                               const std::string& needle) {
  std::int64_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST_F(ObsTraceTest, DisabledSpansAreFree) {
  Tracer::instance().stop();
  ASSERT_FALSE(Tracer::enabled());
  {
    SNNSEC_TRACE_SCOPE("ignored");
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  Tracer::instance().start();  // restore for TearDown symmetry
}

TEST_F(ObsTraceTest, NestedSpansAllRecorded) {
  {
    SNNSEC_TRACE_SCOPE("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      SNNSEC_TRACE_SCOPE("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      SNNSEC_TRACE_SCOPE("inner");
    }
  }
  EXPECT_EQ(Tracer::instance().event_count(), 3u);

  std::ostringstream oss;
  Tracer::instance().write(oss);
  const std::string json = oss.str();
  EXPECT_EQ(count_occurrences(json, "\"name\":\"inner\""), 2);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"outer\""), 1);
}

TEST_F(ObsTraceTest, JsonHasTraceEventShape) {
  {
    SNNSEC_TRACE_SCOPE("span_a");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::ostringstream oss;
  Tracer::instance().write(oss);
  const std::string json = oss.str();
  // chrome://tracing essentials: a traceEvents array of complete events.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  // Balanced brackets (cheap well-formedness check; names here contain no
  // braces, so counting is exact).
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_EQ(count_occurrences(json, "["), count_occurrences(json, "]"));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST_F(ObsTraceTest, OuterSpanCoversInner) {
  {
    SNNSEC_TRACE_SCOPE("cover_outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      SNNSEC_TRACE_SCOPE("cover_inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Inner closes first, so it is recorded first; its duration must fit
  // inside the outer span's duration.
  std::ostringstream oss;
  Tracer::instance().write(oss);
  const std::string json = oss.str();
  auto dur_after = [&json](const std::string& name) {
    const std::size_t at = json.find("\"name\":\"" + name + "\"");
    EXPECT_NE(at, std::string::npos);
    const std::size_t d = json.find("\"dur\":", at);
    return std::strtoll(json.c_str() + d + 6, nullptr, 10);
  };
  EXPECT_GE(dur_after("cover_outer"), dur_after("cover_inner"));
}

TEST_F(ObsTraceTest, PoolWorkersGetOwnTracks) {
  constexpr std::size_t kTasks = 8;
  {
    util::ThreadPool pool(2);
    for (std::size_t i = 0; i < kTasks; ++i)
      pool.post(
          i % pool.size(),
          [](void*, std::size_t) {
            SNNSEC_TRACE_SCOPE("worker_span");
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          },
          nullptr);
  }  // the destructor runs every queued task before joining
  {
    SNNSEC_TRACE_SCOPE("main_span");
  }
  EXPECT_EQ(Tracer::instance().event_count(), kTasks + 1u);
  std::ostringstream oss;
  Tracer::instance().write(oss);
  const std::string json = oss.str();
  // At least two distinct tid values (main + >=1 worker).
  bool distinct = false;
  for (int tid = 0; tid < 64 && !distinct; ++tid) {
    const std::string tag = "\"tid\":" + std::to_string(tid) + ",";
    if (count_occurrences(json, tag) > 0 &&
        count_occurrences(json, tag) <
            count_occurrences(json, "\"tid\":"))
      distinct = true;
  }
  EXPECT_TRUE(distinct);
}

TEST_F(ObsTraceTest, ClearDropsEvents) {
  {
    SNNSEC_TRACE_SCOPE("gone");
  }
  EXPECT_GT(Tracer::instance().event_count(), 0u);
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  EXPECT_EQ(Tracer::instance().dropped_count(), 0);
}

}  // namespace
}  // namespace snnsec::obs
