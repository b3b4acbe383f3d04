// Metrics registry: counter/gauge/histogram semantics, labeled series
// identity, JSONL/CSV emission and concurrency via the thread pool.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace snnsec::obs {
namespace {

// Series names are unique per test: the registry is a process-wide
// singleton and reset_for_tests() would dangle the macro call-site refs.

TEST(ObsCounter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(ObsHistogram, BucketSemantics) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.5);   // bucket 1 (<= 2)
  h.observe(2.5);   // overflow bucket
  h.observe(1.0);   // boundary counts in bucket 0 (<=)
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.bucket_counts.size(), 3u);
  EXPECT_EQ(s.bucket_counts[0], 2);
  EXPECT_EQ(s.bucket_counts[1], 1);
  EXPECT_EQ(s.bucket_counts[2], 1);
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 5.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 2.5);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5 / 4.0);
}

TEST(ObsHistogram, EmptyReportsZeroMinMax) {
  Histogram h({1.0});
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(ObsHistogram, UnsortedBoundsAreSorted) {
  Histogram h({10.0, 1.0, 5.0});
  const std::vector<double> expect = {1.0, 5.0, 10.0};
  EXPECT_EQ(h.bounds(), expect);
}

TEST(ObsRegistry, FindOrCreateIsStable) {
  Registry& reg = Registry::instance();
  Counter& a = reg.counter("test.stable");
  Counter& b = reg.counter("test.stable");
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("test.stable", {{"k", "v"}});
  EXPECT_NE(&a, &c);  // labels distinguish series
  a.add(7);
  EXPECT_EQ(b.value(), 7);
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsRegistry, HistogramFirstRegistrationWins) {
  Registry& reg = Registry::instance();
  Histogram& a = reg.histogram("test.hist_bounds", {1.0, 2.0});
  Histogram& b = reg.histogram("test.hist_bounds", {99.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.bounds().size(), 2u);
}

TEST(ObsRegistry, SnapshotCoversAllTypes) {
  Registry& reg = Registry::instance();
  reg.counter("test.snap.c", {{"layer", "lif0"}}).add(3);
  reg.gauge("test.snap.g").set(1.25);
  reg.histogram("test.snap.h", {1.0}).observe(0.5);
  bool saw_c = false, saw_g = false, saw_h = false;
  for (const MetricSnapshot& m : reg.snapshot()) {
    if (m.key() == "test.snap.c{layer=lif0}") {
      saw_c = true;
      EXPECT_EQ(m.type, MetricType::kCounter);
      EXPECT_DOUBLE_EQ(m.value, 3.0);
    } else if (m.name == "test.snap.g") {
      saw_g = true;
      EXPECT_EQ(m.type, MetricType::kGauge);
      EXPECT_DOUBLE_EQ(m.value, 1.25);
    } else if (m.name == "test.snap.h") {
      saw_h = true;
      EXPECT_EQ(m.type, MetricType::kHistogram);
      EXPECT_EQ(m.histogram.count, 1);
    }
  }
  EXPECT_TRUE(saw_c);
  EXPECT_TRUE(saw_g);
  EXPECT_TRUE(saw_h);
}

TEST(ObsRegistry, MacrosRespectRuntimeSwitch) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("test.macro.counter");
  SNNSEC_COUNTER_ADD("test.macro.counter", 2);
  EXPECT_EQ(c.value(), 2);
  reg.set_enabled(false);
  SNNSEC_COUNTER_ADD("test.macro.counter", 100);
  reg.set_enabled(true);
  EXPECT_EQ(c.value(), 2);  // disabled increment was skipped
  SNNSEC_GAUGE_SET("test.macro.gauge", 4.0);
  SNNSEC_GAUGE_ADD("test.macro.gauge", 0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("test.macro.gauge").value(), 4.5);
  SNNSEC_HISTOGRAM_OBSERVE("test.macro.hist", 0.3, 1.0, 10.0);
  EXPECT_EQ(reg.histogram("test.macro.hist", {}).snapshot().count, 1);
}

TEST(ObsRegistry, ConcurrentIncrementsViaThreadPool) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("test.concurrent");
  Histogram& h = reg.histogram("test.concurrent.h", {0.5});
  constexpr int kTasks = 64;
  constexpr int kPerTask = 250;
  struct Series {
    Counter& c;
    Histogram& h;
  } series{c, h};
  {
    util::ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.post(
          static_cast<std::size_t>(t) % pool.size(),
          [](void* p, std::size_t) {
            Series& s = *static_cast<Series*>(p);
            for (int i = 0; i < kPerTask; ++i) {
              s.c.add();
              s.h.observe(i % 2 == 0 ? 0.25 : 0.75);
            }
          },
          &series);
    }
  }  // the destructor runs every queued task before joining
  EXPECT_EQ(c.value(), kTasks * kPerTask);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, kTasks * kPerTask);
  EXPECT_EQ(s.bucket_counts[0] + s.bucket_counts[1], kTasks * kPerTask);
}

TEST(ObsRegistry, JsonlLinesAreObjects) {
  Registry& reg = Registry::instance();
  reg.counter("test.jsonl \"quoted\"").add(1);
  std::ostringstream oss;
  reg.write_jsonl(oss);
  std::istringstream iss(oss.str());
  std::string line;
  bool saw_escaped = false;
  while (std::getline(iss, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("test.jsonl \\\"quoted\\\"") != std::string::npos)
      saw_escaped = true;
  }
  EXPECT_TRUE(saw_escaped);
}

TEST(ObsRegistry, EventSinkWritesJsonl) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "snnsec_obs_events.jsonl")
          .string();
  Registry& reg = Registry::instance();
  reg.counter("test.sink.counter").add(9);
  reg.set_sink_path(path);
  reg.record("test.event", 0.75, {{"layer", "lif1"}});
  reg.flush();
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  bool saw_event = false, saw_snapshot = false;
  while (std::getline(is, line)) {
    if (line.find("\"kind\":\"event\"") != std::string::npos &&
        line.find("\"test.event\"") != std::string::npos &&
        line.find("\"lif1\"") != std::string::npos)
      saw_event = true;
    if (line.find("\"kind\":\"counter\"") != std::string::npos &&
        line.find("\"test.sink.counter\"") != std::string::npos)
      saw_snapshot = true;
  }
  EXPECT_TRUE(saw_event);
  EXPECT_TRUE(saw_snapshot);
  std::remove(path.c_str());
}

TEST(ObsRegistry, CsvAndSummary) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "snnsec_obs_metrics.csv")
          .string();
  Registry& reg = Registry::instance();
  reg.counter("test.csv").add(5);
  reg.write_csv(path);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_NE(header.find("name"), std::string::npos);
  bool found = false;
  for (std::string line; std::getline(is, line);)
    if (line.find("test.csv") != std::string::npos) found = true;
  EXPECT_TRUE(found);
  std::remove(path.c_str());

  const std::string s = reg.summary();
  EXPECT_NE(s.find("test.csv"), std::string::npos);
}

TEST(ObsLabels, ToStringAndKey) {
  EXPECT_EQ(labels_to_string({}), "");
  EXPECT_EQ(labels_to_string({{"a", "1"}, {"b", "2"}}), "{a=1,b=2}");
  MetricSnapshot m;
  m.name = "x";
  m.labels = {{"a", "1"}};
  EXPECT_EQ(m.key(), "x{a=1}");
}

TEST(ObsJson, Escape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

}  // namespace
}  // namespace snnsec::obs
