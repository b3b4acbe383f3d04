// Fixture-based tests for the snnsec_analyze engine (tools/analyze).
//
// Every analysis (A1 hot-path reachability, A2 lock-order discipline,
// A3 concurrency heuristics, A4 metric registry, L layering) gets a
// known-bad fixture proving the rule fires — with the exact rule ID, and
// line number where the anchor is deterministic — and a known-good or
// suppressed fixture proving clean code and justified NOLINTs stay silent.
// Fixtures are multi-file: the point of the analyzer over the linter is
// that effects propagate across translation units, so most tests hand
// analyze() two or three models. The fixtures live in string literals —
// the engine blanks literal contents when scanning, so this file itself
// stays clean under the analyze_tree ctest.
#include "analyze.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using snnsec::analyze::analyze;
using snnsec::analyze::AnalyzeResult;
using snnsec::analyze::extract_model;
using snnsec::analyze::FileModel;
using snnsec::analyze::Finding;
using snnsec::analyze::Options;

namespace {

AnalyzeResult run(const std::vector<std::pair<std::string, std::string>>& files,
                  const Options& opts = {}) {
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const auto& [path, src] : files) models.push_back(extract_model(path, src));
  return analyze(models, opts);
}

bool has(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

bool has_at(const std::vector<Finding>& fs, const std::string& rule,
            const std::string& file, int line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.file == file && f.line == line;
  });
}

}  // namespace

// ---- A1: hot-path reachability --------------------------------------------

TEST(AnalyzeHotPath, AllocReachableFromHotEntryInUnmarkedFile) {
  // The entry lives in a hot-marked context; the allocation lives two hops
  // away in a file with NO hot marker, where the per-file linter is blind.
  const auto r = run({
      {"src/serve/entry.cpp",
       "// fixture\n"
       "// SNNSEC_HOT entry: per-request drive\n"
       "void drive() {\n"
       "  mid_stage();\n"
       "}\n"},
      {"src/serve/helpers.cpp",
       "void mid_stage() {\n"
       "  helper_alloc();\n"
       "}\n"
       "void helper_alloc() {\n"
       "  scratch.push_back(1);\n"  // line 5: growth on the hot path
       "}\n"},
  });
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-hot-path-alloc", "src/serve/helpers.cpp", 5));
}

TEST(AnalyzeHotPath, LockAndIoReachableFromHotEntry) {
  const auto r = run({
      {"src/serve/entry.cpp",
       "// fixture\n"
       "// SNNSEC_HOT entry: per-request drive\n"
       "void drive() {\n"
       "  locky();\n"
       "  noisy();\n"
       "}\n"},
      {"src/serve/helpers.cpp",
       "void locky() {\n"
       "  std::lock_guard<std::mutex> lk(mu_);\n"  // line 2
       "}\n"
       "void noisy() {\n"
       "  printf(\"spike\");\n"  // line 5
       "}\n"},
  });
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-hot-path-lock", "src/serve/helpers.cpp", 2));
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-hot-path-io", "src/serve/helpers.cpp", 5));
}

TEST(AnalyzeHotPath, SilentWithoutEntryMarker) {
  // Same call graph, no hot-entry marker: nothing is hot, nothing fires.
  const auto r = run({
      {"src/serve/entry.cpp", "void drive() {\n  helper_alloc();\n}\n"},
      {"src/serve/helpers.cpp",
       "void helper_alloc() {\n  scratch.push_back(1);\n}\n"},
  });
  EXPECT_FALSE(has(r.findings, "snnsec-hot-path-alloc"));
}

TEST(AnalyzeHotPath, AllocsInHotMarkedFilesBelongToTheLinter) {
  // A file-level hot marker means snnsec_lint R1 already reports
  // allocations there; the analyzer must not duplicate them.
  const auto r = run({
      {"src/serve/entry.cpp",
       "// SNNSEC_HOT\n"
       "// SNNSEC_HOT entry: per-request drive\n"
       "void drive() {\n"
       "  scratch.push_back(1);\n"
       "}\n"},
  });
  EXPECT_FALSE(has(r.findings, "snnsec-hot-path-alloc"));
}

TEST(AnalyzeHotPath, JustifiedNolintSuppressesIncludingLegacyAlias) {
  const auto r = run({
      {"src/serve/entry.cpp",
       "// fixture\n"
       "// SNNSEC_HOT entry: per-request drive\n"
       "void drive() {\n"
       "  helper_a();\n"
       "  helper_b();\n"
       "}\n"},
      {"src/serve/helpers.cpp",
       "void helper_a() {\n"
       "  // NOLINTNEXTLINE(snnsec-hot-path-alloc): cold warmup, runs once\n"
       "  scratch.push_back(1);\n"  // line 3
       "}\n"
       "void helper_b() {\n"
       "  // NOLINTNEXTLINE(snnsec-hot-alloc): amortized growth, reused after\n"
       "  scratch.push_back(1);\n"  // line 7: legacy per-file rule alias
       "}\n"},
  });
  EXPECT_FALSE(has(r.findings, "snnsec-hot-path-alloc"));
  EXPECT_TRUE(has_at(r.suppressed, "snnsec-hot-path-alloc",
                     "src/serve/helpers.cpp", 3));
  EXPECT_TRUE(has_at(r.suppressed, "snnsec-hot-path-alloc",
                     "src/serve/helpers.cpp", 7));
}

// ---- A2: lock-order discipline --------------------------------------------

namespace {

// Two mutex members acquired in opposite orders by two methods: the
// canonical ABBA deadlock shape the cycle detector must report.
const char* kAbbaSource =
    "class Pair {\n"
    " public:\n"
    "  void ab();\n"
    "  void ba();\n"
    " private:\n"
    "  std::mutex a_;\n"
    "  std::mutex b_;\n"
    "};\n"
    "void Pair::ab() {\n"
    "  std::lock_guard<std::mutex> l1(a_);\n"
    "  std::lock_guard<std::mutex> l2(b_);\n"  // line 11: a_ -> b_
    "}\n"
    "void Pair::ba() {\n"
    "  std::lock_guard<std::mutex> l1(b_);\n"
    "  std::lock_guard<std::mutex> l2(a_);\n"  // line 15: b_ -> a_
    "}\n";

}  // namespace

TEST(AnalyzeLockOrder, ReportsSeededAbbaCycle) {
  const auto r = run({{"src/serve/pair.cpp", kAbbaSource}});
  EXPECT_TRUE(has(r.findings, "snnsec-lock-cycle"));
  // Both acquisition-order edges made it into the model.
  ASSERT_EQ(r.stats.lock_edges.size(), 2u);
  EXPECT_TRUE(std::any_of(
      r.stats.mutexes.begin(), r.stats.mutexes.end(),
      [](const std::string& m) { return m == "Pair::a_"; }));
}

TEST(AnalyzeLockOrder, ConsistentOrderIsClean) {
  const auto r = run({{"src/serve/pair.cpp",
                       "class Pair {\n"
                       " public:\n"
                       "  void ab();\n"
                       "  void ab2();\n"
                       " private:\n"
                       "  std::mutex a_;\n"
                       "  std::mutex b_;\n"
                       "};\n"
                       "void Pair::ab() {\n"
                       "  std::lock_guard<std::mutex> l1(a_);\n"
                       "  std::lock_guard<std::mutex> l2(b_);\n"
                       "}\n"
                       "void Pair::ab2() {\n"
                       "  std::lock_guard<std::mutex> l1(a_);\n"
                       "  std::lock_guard<std::mutex> l2(b_);\n"
                       "}\n"}});
  EXPECT_FALSE(has(r.findings, "snnsec-lock-cycle"));
  EXPECT_EQ(r.stats.lock_edges.size(), 1u);  // deduplicated a_ -> b_
}

TEST(AnalyzeLockOrder, InterProceduralCycleAcrossFiles) {
  // f() holds A and calls g() (other TU) which acquires B; h() holds B and
  // calls back into a() which acquires A. No single function nests locks.
  const auto r = run({
      {"src/serve/one.cpp",
       "class One {\n"
       " public:\n"
       "  void f(Two& t);\n"
       "  void a();\n"
       " private:\n"
       "  std::mutex ma_;\n"
       "};\n"
       "void One::f(Two& t) {\n"
       "  std::lock_guard<std::mutex> l(ma_);\n"
       "  t.acquire_b();\n"
       "}\n"
       "void One::a() {\n"
       "  std::lock_guard<std::mutex> l(ma_);\n"
       "}\n"},
      {"src/serve/two.cpp",
       "class Two {\n"
       " public:\n"
       "  void acquire_b();\n"
       "  void h(One& o);\n"
       " private:\n"
       "  std::mutex mb_;\n"
       "};\n"
       "void Two::acquire_b() {\n"
       "  std::lock_guard<std::mutex> l(mb_);\n"
       "}\n"
       "void Two::h(One& o) {\n"
       "  std::lock_guard<std::mutex> l(mb_);\n"
       "  o.a();\n"
       "}\n"},
  });
  EXPECT_TRUE(has(r.findings, "snnsec-lock-cycle"));
}

TEST(AnalyzeLockOrder, WaitWhileHoldingUnrelatedLock) {
  const auto r = run({{"src/serve/waiter.cpp",
                       "class W {\n"
                       " public:\n"
                       "  void f();\n"
                       " private:\n"
                       "  std::mutex a_;\n"
                       "  std::mutex b_;\n"
                       "  std::condition_variable cv_;\n"
                       "};\n"
                       "void W::f() {\n"
                       "  std::lock_guard<std::mutex> g(a_);\n"
                       "  std::unique_lock<std::mutex> u(b_);\n"
                       "  cv_.wait(u);\n"  // line 12: a_ still held
                       "}\n"}});
  EXPECT_TRUE(has_at(r.findings, "snnsec-lock-across-wait",
                     "src/serve/waiter.cpp", 12));
}

TEST(AnalyzeLockOrder, WaitReleasingItsOwnLockIsClean) {
  const auto r = run({{"src/serve/waiter.cpp",
                       "class W {\n"
                       " public:\n"
                       "  void f();\n"
                       " private:\n"
                       "  std::mutex b_;\n"
                       "  std::condition_variable cv_;\n"
                       "};\n"
                       "void W::f() {\n"
                       "  std::unique_lock<std::mutex> u(b_);\n"
                       "  cv_.wait(u);\n"
                       "}\n"}});
  EXPECT_FALSE(has(r.findings, "snnsec-lock-across-wait"));
}

TEST(AnalyzeLockOrder, CallingBlockingFunctionWithLockHeld) {
  // The wait is one call away: f() holds a_ and calls block_here(), whose
  // transitive summary says it parks on a condition variable.
  const auto r = run({
      {"src/serve/one.cpp",
       "class W {\n"
       " public:\n"
       "  void f();\n"
       " private:\n"
       "  std::mutex a_;\n"
       "};\n"
       "void W::f() {\n"
       "  std::lock_guard<std::mutex> g(a_);\n"
       "  block_here();\n"  // line 9
       "}\n"},
      {"src/serve/two.cpp",
       "class B {\n"
       " public:\n"
       "  void park();\n"
       " private:\n"
       "  std::mutex m_;\n"
       "  std::condition_variable cv_;\n"
       "};\n"
       "void B::park() {\n"
       "  std::unique_lock<std::mutex> u(m_);\n"
       "  cv_.wait(u);\n"
       "}\n"
       "void block_here(B& b) {\n"
       "  b.park();\n"
       "}\n"},
  });
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-lock-across-wait", "src/serve/one.cpp", 9));
}

// ---- A3: concurrency heuristics -------------------------------------------

TEST(AnalyzeConcurrency, MixedGuardedAndBareWrites) {
  const auto r = run({{"src/serve/counter.cpp",
                       "class C {\n"
                       " public:\n"
                       "  void inc();\n"
                       "  void reset();\n"
                       " private:\n"
                       "  std::mutex m_;\n"
                       "  long n_ = 0;\n"
                       "};\n"
                       "void C::inc() {\n"
                       "  std::lock_guard<std::mutex> l(m_);\n"
                       "  n_ = n_ + 1;\n"
                       "}\n"
                       "void C::reset() {\n"
                       "  n_ = 0;\n"  // line 14: bare write to a locked field
                       "}\n"}});
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-mixed-guard", "src/serve/counter.cpp", 14));
}

TEST(AnalyzeConcurrency, ConstructorWritesAreExempt) {
  // Pre-publication writes in the constructor don't race with anything.
  const auto r = run({{"src/serve/counter.cpp",
                       "class C {\n"
                       " public:\n"
                       "  C();\n"
                       "  void inc();\n"
                       " private:\n"
                       "  std::mutex m_;\n"
                       "  long n_ = 0;\n"
                       "};\n"
                       "C::C() {\n"
                       "  n_ = 0;\n"
                       "}\n"
                       "void C::inc() {\n"
                       "  std::lock_guard<std::mutex> l(m_);\n"
                       "  n_ = n_ + 1;\n"
                       "}\n"}});
  EXPECT_FALSE(has(r.findings, "snnsec-mixed-guard"));
}

TEST(AnalyzeConcurrency, AtomicMembersAreNotMixedGuardFindings) {
  const auto r = run({{"src/serve/counter.cpp",
                       "class C {\n"
                       " public:\n"
                       "  void inc();\n"
                       "  void reset();\n"
                       " private:\n"
                       "  std::mutex m_;\n"
                       "  std::atomic<long> n_{0};\n"
                       "};\n"
                       "void C::inc() {\n"
                       "  std::lock_guard<std::mutex> l(m_);\n"
                       "  n_ = n_ + 1;\n"
                       "}\n"
                       "void C::reset() {\n"
                       "  n_ = 0;\n"
                       "}\n"}});
  EXPECT_FALSE(has(r.findings, "snnsec-mixed-guard"));
}

TEST(AnalyzeConcurrency, RelaxedAtomicInFlagRole) {
  const auto r = run({{"src/serve/flags.cpp",
                       "std::atomic<bool> stop_flag{false};\n"
                       "void request_stop() {\n"
                       "  stop_flag.store(true, std::memory_order_relaxed);\n"
                       "}\n"}});
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-relaxed-atomic", "src/serve/flags.cpp", 3));
}

TEST(AnalyzeConcurrency, RelaxedCounterIsFine) {
  const auto r = run({{"src/serve/flags.cpp",
                       "std::atomic<long> hits_{0};\n"
                       "void bump() {\n"
                       "  hits_.fetch_add(1, std::memory_order_relaxed);\n"
                       "}\n"}});
  EXPECT_FALSE(has(r.findings, "snnsec-relaxed-atomic"));
}

// ---- A4: metric/trace string registry -------------------------------------

TEST(AnalyzeMetrics, NearMissNamesOneEditApart) {
  const auto r = run({{"src/serve/emit.cpp",
                       "void e() {\n"
                       "  metrics::counter_add(\"serve.requests\", 1);\n"
                       "  metrics::counter_add(\"serve.request\", 1);\n"
                       "}\n"}});
  EXPECT_TRUE(has(r.findings, "snnsec-metric-near-miss"));
}

TEST(AnalyzeMetrics, DistinctNamesAreClean) {
  const auto r = run({{"src/serve/emit.cpp",
                       "void e() {\n"
                       "  metrics::counter_add(\"serve.requests\", 1);\n"
                       "  metrics::gauge_set(\"pool.queue_depth\", 2.0);\n"
                       "}\n"}});
  EXPECT_FALSE(has(r.findings, "snnsec-metric-near-miss"));
}

TEST(AnalyzeMetrics, UndocumentedNameAgainstDesignDoc) {
  Options opts;
  opts.design_source = "| `serve.requests` | counter | admitted requests |\n";
  const auto r = run({{"src/serve/emit.cpp",
                       "void e() {\n"
                       "  metrics::counter_add(\"serve.requests\", 1);\n"
                       "  metrics::counter_add(\"serve.evictions\", 1);\n"
                       "}\n"}},
                     opts);
  EXPECT_FALSE(
      has_at(r.findings, "snnsec-metric-undocumented", "src/serve/emit.cpp", 2));
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-metric-undocumented", "src/serve/emit.cpp", 3));
  // Without a design doc the documentation requirement is off entirely.
  const auto r2 = run({{"src/serve/emit.cpp",
                        "void e() {\n"
                        "  metrics::counter_add(\"serve.evictions\", 1);\n"
                        "}\n"}});
  EXPECT_FALSE(has(r2.findings, "snnsec-metric-undocumented"));
}

TEST(AnalyzeMetrics, FleetPrefixIsCollected) {
  // The fleet.* namespace joined the registry with the router/front-end:
  // near-miss detection and the documentation requirement both apply.
  const auto r = run({{"src/fleet/emit.cpp",
                       "void e() {\n"
                       "  metrics::counter_add(\"fleet.requests\", 1);\n"
                       "  metrics::counter_add(\"fleet.request\", 1);\n"
                       "}\n"}});
  EXPECT_TRUE(has(r.findings, "snnsec-metric-near-miss"));
  Options opts;
  opts.design_source =
      "| `fleet.requests` | counter | requests entering the router |\n";
  const auto r2 = run({{"src/fleet/emit.cpp",
                        "void e() {\n"
                        "  metrics::counter_add(\"fleet.requests\", 1);\n"
                        "  metrics::counter_add(\"fleet.rerouted\", 1);\n"
                        "}\n"}},
                      opts);
  EXPECT_FALSE(
      has_at(r2.findings, "snnsec-metric-undocumented", "src/fleet/emit.cpp", 2));
  EXPECT_TRUE(
      has_at(r2.findings, "snnsec-metric-undocumented", "src/fleet/emit.cpp", 3));
}

// The fleet wire-decode shape: the hot entry is the front-end's frame
// dispatch, and an allocation hiding in a helper TU without a file-level
// hot marker is only visible to the whole-program walk.
TEST(AnalyzeHotPath, FleetDispatchReachesHelperAlloc) {
  const auto r = run({
      {"src/fleet/frontend_entry.cpp",
       "// fixture\n"
       "// SNNSEC_HOT entry: frame dispatch\n"
       "void dispatch_frame(const FrameView& f) {\n"
       "  decode_request(f);\n"
       "}\n"},
      {"src/fleet/wire_helpers.cpp",
       "bool decode_request(const FrameView& f) {\n"
       "  scores.push_back(0.0f);\n"  // line 2: growth on the decode path
       "  return true;\n"
       "}\n"},
  });
  EXPECT_TRUE(has_at(r.findings, "snnsec-hot-path-alloc",
                     "src/fleet/wire_helpers.cpp", 2));
}

// A method called through a member of a member resolves against the inner
// member's class: here Ring::put, whose growth is on the hot path.
TEST(AnalyzeHotPath, MemberOfMemberCallResolvesToTheInnerClass) {
  const auto r = run({
      {"src/util/pool.cpp",
       "// fixture\n"
       "class Ring {\n"
       " public:\n"
       "  void put(int v);\n"
       " private:\n"
       "  std::vector<int> slots_;\n"
       "};\n"
       "struct Worker {\n"
       "  Ring inbox;\n"
       "};\n"
       "// SNNSEC_HOT entry: task handoff\n"
       "void post(Worker& target, int v) {\n"
       "  target.inbox.put(v);\n"
       "}\n"},
      {"src/util/ring.cpp",
       "void Ring::put(int v) {\n"
       "  slots_.push_back(v);\n"  // line 2: growth on the hot path
       "}\n"},
  });
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-hot-path-alloc", "src/util/ring.cpp", 2));
}

// ---- L: layering and include cycles ---------------------------------------

TEST(AnalyzeLayering, UtilMustNotIncludeUpperLayers) {
  const auto r = run({
      {"src/util/bad.cpp", "#include \"serve/server.hpp\"\n"},
      {"src/util/fine.cpp", "#include \"util/error.hpp\"\n"},
      {"src/tensor/bad2.cpp", "#include \"serve/batcher.hpp\"\n"},
      {"src/serve/fine2.cpp", "#include \"tensor/tensor.hpp\"\n"},
  });
  EXPECT_TRUE(has_at(r.findings, "snnsec-layering", "src/util/bad.cpp", 1));
  EXPECT_TRUE(has_at(r.findings, "snnsec-layering", "src/tensor/bad2.cpp", 1));
  EXPECT_EQ(std::count_if(
                r.findings.begin(), r.findings.end(),
                [](const Finding& f) { return f.rule == "snnsec-layering"; }),
            2);
}

TEST(AnalyzeLayering, IncludeCycleAcrossHeaders) {
  const auto r = run({
      {"src/nn/a.hpp", "#include \"nn/b.hpp\"\n"},
      {"src/nn/b.hpp", "#include \"nn/a.hpp\"\n"},
  });
  EXPECT_TRUE(has(r.findings, "snnsec-include-cycle"));
}

TEST(AnalyzeLayering, AcyclicIncludesAreClean) {
  const auto r = run({
      {"src/nn/a.hpp", "#include \"nn/b.hpp\"\n"},
      {"src/nn/b.hpp", "#include \"util/error.hpp\"\n"},
  });
  EXPECT_FALSE(has(r.findings, "snnsec-include-cycle"));
}

// ---- suppression contract --------------------------------------------------

TEST(AnalyzeSuppression, UnjustifiedNolintIsItselfAFinding) {
  const auto r = run({{"src/serve/s.cpp",
                       "void f() {\n"
                       "  g();  // NOLINT(snnsec-mixed-guard)\n"  // no reason
                       "}\n"}});
  EXPECT_TRUE(
      has_at(r.findings, "snnsec-nolint-justification", "src/serve/s.cpp", 2));
}

TEST(AnalyzeSuppression, JustifiedNolintSilencesTheRule) {
  const auto r = run({{"src/serve/waiter.cpp",
                       "class W {\n"
                       " public:\n"
                       "  void f();\n"
                       " private:\n"
                       "  std::mutex a_;\n"
                       "  std::mutex b_;\n"
                       "  std::condition_variable cv_;\n"
                       "};\n"
                       "void W::f() {\n"
                       "  std::lock_guard<std::mutex> g(a_);\n"
                       "  std::unique_lock<std::mutex> u(b_);\n"
                       "  // NOLINTNEXTLINE(snnsec-lock-across-wait): a_ only "
                       "guards config reads, never taken by workers\n"
                       "  cv_.wait(u);\n"  // line 13
                       "}\n"}});
  EXPECT_FALSE(has(r.findings, "snnsec-lock-across-wait"));
  EXPECT_TRUE(has_at(r.suppressed, "snnsec-lock-across-wait",
                     "src/serve/waiter.cpp", 13));
}

// ---- model serialization ---------------------------------------------------

TEST(AnalyzeModel, SerializationRoundTripPreservesFindings) {
  // Extract, serialize, deserialize, analyze: the cached path must produce
  // byte-identical analysis input. The ABBA fixture exercises classes,
  // members, acquisitions and held-sets.
  const std::string path = "src/serve/pair.cpp";
  const FileModel fresh = extract_model(path, kAbbaSource);
  const std::string payload = snnsec::analyze::serialize_model(fresh);
  FileModel reloaded;
  ASSERT_TRUE(snnsec::analyze::deserialize_model(payload, path, reloaded));
  const auto a = analyze({fresh});
  const auto b = analyze({reloaded});
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
    EXPECT_EQ(a.findings[i].line, b.findings[i].line);
  }
  EXPECT_TRUE(has(b.findings, "snnsec-lock-cycle"));
}

TEST(AnalyzeModel, MalformedPayloadIsACacheMiss) {
  FileModel out;
  EXPECT_FALSE(snnsec::analyze::deserialize_model("garbage\nF\x1f", "p", out));
  // An empty payload is the valid serialization of a file with no model
  // content (e.g. a doc-only header), not corruption.
  EXPECT_TRUE(snnsec::analyze::deserialize_model("", "p", out));
}

TEST(AnalyzeModel, RuleIdsAreStableAndPrefixed) {
  const auto& ids = snnsec::analyze::rule_ids();
  EXPECT_FALSE(ids.empty());
  for (std::string_view id : ids) {
    EXPECT_EQ(id.find("snnsec-"), std::string_view::npos)
        << "rule_ids() entries are unprefixed: " << id;
  }
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), "hot-path-alloc") != ids.end());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), "lock-cycle") != ids.end());
}
