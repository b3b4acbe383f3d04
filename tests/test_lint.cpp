// Fixture-based tests for the snnsec_lint engine (tools/lint).
//
// Every rule R1–R6 gets at least one known-bad snippet proving it fires
// (with exact rule ID and line number) and one known-good / suppressed
// snippet proving justified NOLINTs silence it. The fixtures live in
// string literals — the engine blanks literal contents when scanning, so
// this file itself stays clean under the lint_tree ctest.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>

using snnsec::lint::Finding;
using snnsec::lint::lint_source;
using snnsec::lint::LintResult;
using snnsec::lint::Options;

namespace {

bool has(const LintResult& r, const std::string& rule, int line) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule && f.line == line;
                     });
}

bool suppressed(const LintResult& r, const std::string& rule, int line) {
  return std::any_of(r.suppressed.begin(), r.suppressed.end(),
                     [&](const Finding& f) {
                       return f.rule == rule && f.line == line;
                     });
}

}  // namespace

// ---- R1: snnsec-hot-alloc -------------------------------------------------

TEST(LintHotAlloc, FiresOnNewAndGrowthInHotFile) {
  const std::string src =
      "// SNNSEC_HOT\n"                       // line 1
      "void f() {\n"                          // line 2
      "  float* p = new float[64];\n"         // line 3
      "  buf.push_back(1.0f);\n"              // line 4
      "  q = malloc(8);\n"                    // line 5
      "}\n";
  const auto r = lint_source("src/tensor/fake.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 3));
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 4));
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 5));
}

TEST(LintHotAlloc, SilentWithoutMarkerOrInStrings) {
  const auto r = lint_source("src/tensor/fake.cpp",
                             "void f() { float* p = new float[64]; }\n");
  EXPECT_TRUE(r.findings.empty());
  // The marker only counts inside a comment, not in a string literal.
  const auto r2 = lint_source(
      "src/tensor/fake.cpp",
      "const char* s = \"// SNNSEC_HOT\";\nvoid f() { g(new int); }\n");
  EXPECT_TRUE(r2.findings.empty());
}

TEST(LintHotAlloc, JustifiedNolintSuppresses) {
  const std::string src =
      "// SNNSEC_HOT\n"
      "void f() {\n"
      "  // NOLINTNEXTLINE(snnsec-hot-alloc): cold setup path, runs once\n"
      "  buf.resize(64);\n"  // line 4
      "}\n";
  const auto r = lint_source("src/tensor/fake.cpp", src);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(suppressed(r, "snnsec-hot-alloc", 4));
}

// ---- R2: snnsec-rng -------------------------------------------------------

TEST(LintRng, FiresOnNondeterministicSources) {
  const std::string src =
      "#include <random>\n"                                      // 1
      "std::mt19937 gen{std::random_device{}()};\n"              // 2
      "int r = rand() % 6;\n"                                    // 3
      "auto seed = std::chrono::steady_clock::now().time_since_epoch();\n"
      "srand(time(nullptr));\n";                                 // 5
  const auto r = lint_source("src/attacks/fake.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-rng", 2));
  EXPECT_TRUE(has(r, "snnsec-rng", 3));
  EXPECT_TRUE(has(r, "snnsec-rng", 4));
  EXPECT_TRUE(has(r, "snnsec-rng", 5));
}

TEST(LintRng, AllowedInsideRngImplementation) {
  const auto r = lint_source("src/util/rng.cpp",
                             "std::mt19937 reference_for_tests;\n");
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintRng, JustifiedNolintSuppresses) {
  const std::string src =
      "std::mt19937 g;  // NOLINT(snnsec-rng): reference distribution check "
      "against the C++ standard engine\n";
  const auto r = lint_source("tests/fake.cpp", src);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(suppressed(r, "snnsec-rng", 1));
}

// ---- R3: snnsec-parallel-capture ------------------------------------------

TEST(LintParallelCapture, FiresOnByRefWorkspaceUse) {
  const std::string src =
      "void f(util::Workspace& ws) {\n"                          // 1
      "  util::parallel_for_chunked(0, n, work, [&](i64 lo, i64 hi) {\n"  // 2
      "    float* p = ws.alloc<float>(64);\n"                    // 3
      "    use(p, lo, hi);\n"
      "  });\n"
      "}\n";
  const auto r = lint_source("src/nn/fake.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-parallel-capture", 2));
}

TEST(LintParallelCapture, ThreadLocalGuardIsClean) {
  const std::string src =
      "void f() {\n"
      "  util::parallel_for_chunked(0, n, work, [&](i64 lo, i64 hi) {\n"
      "    util::Workspace& ws = util::Workspace::local();\n"
      "    float* p = ws.alloc<float>(64);\n"
      "    use(p, lo, hi);\n"
      "  });\n"
      "}\n";
  const auto r = lint_source("src/nn/fake.cpp", src);
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintParallelCapture, ValueCaptureIsClean) {
  const std::string src =
      "void f(Plan plan) {\n"
      "  util::parallel_for(0, n, work, [plan](i64 i) { run(plan, i); });\n"
      "}\n";
  const auto r = lint_source("src/nn/fake.cpp", src);
  EXPECT_TRUE(r.findings.empty());
}

// The event-kernel shape (tensor/spike_events.cpp): SNNSEC_HOT file whose
// scratch comes from a caller-passed workspace OUTSIDE the parallel region
// and whose per-sample scatter lambda captures only plain pointers by
// value. Both rules must stay quiet on this pattern.
TEST(LintParallelCapture, EventScatterPatternIsClean) {
  const std::string src =
      "// SNNSEC_HOT\n"
      "void conv_events(const Geometry& g, util::Workspace& ws) {\n"
      "  float* wt = ws.alloc<float>(patch * cout);\n"
      "  const auto ev = build_event_rows(images, w, rows, w, ws);\n"
      "  util::parallel_for(0, batch, work, [=](i64 i) {\n"
      "    scatter_sample(g, ev.count + i * r, ev.value + i * r * w, wt);\n"
      "  });\n"
      "}\n";
  const auto r = lint_source("src/tensor/fake_events.cpp", src);
  EXPECT_TRUE(r.findings.empty());
}

// The anti-pattern the event path replaced: growing heap containers per
// call inside a hot kernel file, and reaching into a by-ref workspace from
// worker threads. Both rules must fire.
TEST(LintParallelCapture, EventBuildAntiPatternFires) {
  const std::string src =
      "// SNNSEC_HOT\n"                                            // 1
      "void build(util::Workspace& ws) {\n"                        // 2
      "  std::vector<i32> idx;\n"                                  // 3
      "  idx.push_back(7);\n"                                      // 4
      "  util::parallel_for(0, n, work, [&](i64 i) {\n"                  // 5
      "    float* p = ws.alloc<float>(64);\n"                      // 6
      "    scan(p, i);\n"                                          // 7
      "  });\n"
      "}\n";
  const auto r = lint_source("src/tensor/fake_events.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 4));
  EXPECT_TRUE(has(r, "snnsec-parallel-capture", 5));
}

// The fleet-frontend executor shape (fleet/frontend.cpp): SNNSEC_HOT file
// whose steady path recycles a dispatch slot into a free list reserved at
// construction. The growth call needs — and gets — a justification; the
// rest of the loop (index juggling, lock scopes, writev) must stay quiet.
TEST(LintHotAlloc, FleetExecutorRecycleIsCleanWithJustification) {
  const std::string src =
      "// SNNSEC_HOT\n"
      "void executor_loop(Ring& ring) {\n"
      "  std::unique_lock<std::mutex> lk(ring.m);\n"
      "  const std::int64_t idx = ring.pop_ready();\n"
      "  lk.unlock();\n"
      "  drive_replica(ring.slots[idx]);\n"
      "  lk.lock();\n"
      "  // NOLINTNEXTLINE(snnsec-hot-alloc): within reserved capacity\n"
      "  ring.free_list.push_back(idx);\n"
      "}\n";
  const auto r = lint_source("src/fleet/fake_frontend.cpp", src);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(suppressed(r, "snnsec-hot-alloc", 9));
}

// The anti-pattern the router's reused FleetResult avoids: allocating the
// per-cell scratch on every routed request in a hot fleet file.
TEST(LintHotAlloc, FleetPerRequestScratchFires) {
  const std::string src =
      "// SNNSEC_HOT\n"                                      // 1
      "bool route(const Tensor& x, FleetResult& out) {\n"    // 2
      "  std::vector<InferResult> cells(num_groups());\n"    // 3
      "  out.scores = new float[10];\n"                      // 4
      "  return vote(cells, out);\n"                         // 5
      "}\n";
  const auto r = lint_source("src/fleet/fake_router.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 4));
}

// ---- R4: snnsec-float-eq --------------------------------------------------

TEST(LintFloatEq, FiresOnLiteralComparisons) {
  const std::string src =
      "bool a(float x) { return x == 0.5f; }\n"   // 1
      "bool b(double x) { return x != 1e-3; }\n"  // 2
      "bool c(int x) { return x == 3; }\n";       // 3 — integers are fine
  const auto r = lint_source("src/core/fake.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-float-eq", 1));
  EXPECT_TRUE(has(r, "snnsec-float-eq", 2));
  EXPECT_FALSE(has(r, "snnsec-float-eq", 3));
  EXPECT_EQ(r.findings.size(), 2u);
}

TEST(LintFloatEq, IgnoresOrderingAndOperatorDecls) {
  const std::string src =
      "bool a(float x) { return x <= 0.5f || x >= 1.5f; }\n"
      "bool operator==(const S& s, float) { return false; }\n";
  const auto r = lint_source("src/core/fake.cpp", src);
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintFloatEq, JustifiedNolintSuppresses) {
  const std::string src =
      "// NOLINTNEXTLINE(snnsec-float-eq): spikes are exactly 0 or 1\n"
      "bool spiked(float z) { return z == 1.0f; }\n";
  const auto r = lint_source("src/snn/fake.cpp", src);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(suppressed(r, "snnsec-float-eq", 2));
}

// ---- R5: snnsec-header-hygiene --------------------------------------------

TEST(LintHeaderHygiene, FiresOnMissingPragmaAndUsingNamespace) {
  const std::string src =
      "#include <vector>\n"
      "using namespace std;\n"  // line 2
      "struct S {};\n";
  const auto r = lint_source("src/util/fake.hpp", src);
  EXPECT_TRUE(has(r, "snnsec-header-hygiene", 1));  // missing #pragma once
  EXPECT_TRUE(has(r, "snnsec-header-hygiene", 2));  // using namespace
}

TEST(LintHeaderHygiene, CleanHeaderAndSourceFileExempt) {
  const std::string header = "#pragma once\nstruct S {};\n";
  EXPECT_TRUE(lint_source("src/util/fake.hpp", header).findings.empty());
  // .cpp files may use `using namespace` locally and need no pragma.
  const std::string source = "using namespace std::chrono_literals;\n";
  EXPECT_TRUE(lint_source("src/util/fake.cpp", source).findings.empty());
}

// ---- R6: snnsec-layer-contract --------------------------------------------

namespace {

const char* kGoodLayer =
    "#pragma once\n"
    "namespace snnsec::nn {\n"
    "class Frob final : public Layer {\n"  // line 3
    " public:\n"
    "  tensor::Tensor forward(const tensor::Tensor& x, Mode m) override;\n"
    "  tensor::Tensor backward(const tensor::Tensor& g) override;\n"
    "  std::string name() const override;\n"
    "  std::string_view kind() const override;\n"
    "};\n"
    "}\n";

}  // namespace

TEST(LintLayerContract, FiresOnMissingOverrides) {
  const std::string src =
      "#pragma once\n"
      "namespace snnsec::nn {\n"
      "class Frob final : public Layer {\n"  // line 3
      " public:\n"
      "  tensor::Tensor forward(const tensor::Tensor& x, Mode m) override;\n"
      "  std::string name() const override;\n"
      "};\n"
      "}\n";
  const auto r = lint_source("src/nn/frob.hpp", src);
  // Missing backward() and kind(); forward() is present.
  EXPECT_TRUE(has(r, "snnsec-layer-contract", 3));
  EXPECT_EQ(r.findings.size(), 2u);
}

TEST(LintLayerContract, FiresWhenNotInRegistry) {
  Options opts;
  opts.registry_source = "{\"Conv2d\", 7},\n{\"Linear\", 10},\n";
  const auto r = lint_source("src/nn/frob.hpp", kGoodLayer, opts);
  EXPECT_TRUE(has(r, "snnsec-layer-contract", 3));
  EXPECT_EQ(r.findings.size(), 1u);
}

TEST(LintLayerContract, CleanWhenRegisteredAndComplete) {
  Options opts;
  opts.registry_source = "{\"Frob\", 42},\n";
  const auto r = lint_source("src/nn/frob.hpp", kGoodLayer, opts);
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintLayerContract, AbstractBasesAndOtherDirsExempt) {
  const std::string abstract_base =
      "#pragma once\n"
      "namespace snnsec::nn {\n"
      "class FrobBase : public Layer {\n"  // not final — abstract base
      " public:\n"
      "  std::vector<Parameter*> parameters() override;\n"
      "};\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/nn/frob.hpp", abstract_base).findings.empty());
  // The contract only applies to src/nn and src/snn headers.
  const std::string elsewhere =
      "#pragma once\nclass Frob final : public Layer {};\n";
  EXPECT_TRUE(lint_source("src/core/frob.hpp", elsewhere).findings.empty());
}

// ---- NOLINT justification contract ----------------------------------------

TEST(LintNolint, UnjustifiedSnnsecNolintIsAFindingAndDoesNotSuppress) {
  const std::string src =
      "bool spiked(float z) { return z == 1.0f; }  // NOLINT(snnsec-float-eq)\n";
  const auto r = lint_source("src/snn/fake.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-float-eq", 1));            // not suppressed
  EXPECT_TRUE(has(r, "snnsec-nolint-justification", 1));  // and called out
}

TEST(LintNolint, ForeignNolintIsIgnored) {
  // Plain clang-tidy NOLINTs (no snnsec- rule) are none of our business.
  const std::string src = "int x = 0;  // NOLINT\n";
  const auto r = lint_source("src/util/fake.cpp", src);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(LintNolint, JustificationMustBeNonEmpty) {
  const std::string with_colon_only =
      "bool b(float z) { return z == 1.0f; }  // NOLINT(snnsec-float-eq):  \n";
  const auto r = lint_source("src/snn/fake.cpp", with_colon_only);
  EXPECT_TRUE(has(r, "snnsec-float-eq", 1));
  EXPECT_TRUE(has(r, "snnsec-nolint-justification", 1));
}

// ---- engine plumbing ------------------------------------------------------

TEST(LintEngine, RuleListIsStable) {
  const auto& ids = snnsec::lint::rule_ids();
  EXPECT_EQ(ids.size(), 7u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "hot-alloc"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "layer-contract"), ids.end());
}

TEST(LintEngine, FindingsCarrySuggestions) {
  const auto r = lint_source("src/core/fake.cpp",
                             "bool a(float x) { return x == 0.5f; }\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_FALSE(r.findings[0].suggestion.empty());
  EXPECT_EQ(r.findings[0].file, "src/core/fake.cpp");
}

// ---- src/serve coverage ---------------------------------------------------
// The serving hot path (anytime stepper, micro-batcher, server) is marked
// SNNSEC_HOT; these fixtures pin down that R1/R3 fire on src/serve paths
// exactly as elsewhere — the subsystem gets no special-casing, and the
// NOLINT idiom the real serve sources use (construction-time growth,
// first-response buffer sizing) stays accepted.

TEST(LintServe, HotAllocFiresOnServeRequestPath) {
  const std::string src =
      "// SNNSEC_HOT: steady-state request path\n"     // 1
      "void Server::execute_batch(Worker& w) {\n"      // 2
      "  w.slots.push_back(next);\n"                   // 3
      "  out.scores.resize(classes);\n"                // 4
      "  auto* s = new Slot();\n"                      // 5
      "}\n";
  const auto r = lint_source("src/serve/fake_server.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 3));
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 4));
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 5));
}

TEST(LintServe, JustifiedConstructionGrowthSuppresses) {
  // The idiom the real server.cpp / anytime.cpp use: container growth is
  // allowed at construction time when justified on the preceding line.
  const std::string src =
      "// SNNSEC_HOT\n"
      "Server::Server(ServerConfig cfg) {\n"
      "  // NOLINTNEXTLINE(snnsec-hot-alloc): construction-time growth\n"
      "  slots_.reserve(capacity);\n"  // 4
      "}\n";
  const auto r = lint_source("src/serve/fake_server.cpp", src);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(suppressed(r, "snnsec-hot-alloc", 4));
}

// ---- src/obs coverage -----------------------------------------------------
// The sketch accumulator (src/obs/sketch.cpp) is SNNSEC_HOT: it runs per
// time-slab on the serving path. These fixtures pin down that R1 patrols
// obs sources exactly as elsewhere and that its geometry-growth NOLINT
// idiom stays accepted.

TEST(LintObs, HotAllocFiresOnSketchAccumulationPath) {
  const std::string src =
      "// SNNSEC_HOT: per-timestep sketch accumulation\n"  // 1
      "void SketchAccumulator::accumulate(i64 layer) {\n"  // 2
      "  hist_.push_back(0);\n"                            // 3
      "  fired_.resize(batch_ * feat);\n"                  // 4
      "}\n";
  const auto r = lint_source("src/obs/fake_sketch.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 3));
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 4));
}

TEST(LintObs, JustifiedGeometryGrowthSuppresses) {
  const std::string src =
      "// SNNSEC_HOT\n"
      "void SketchAccumulator::begin(i64 batch) {\n"
      "  // NOLINTNEXTLINE(snnsec-hot-alloc): batch-geometry growth only\n"
      "  spikes_.resize(capacity);\n"  // 4
      "}\n";
  const auto r = lint_source("src/obs/fake_sketch.cpp", src);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(suppressed(r, "snnsec-hot-alloc", 4));
}

TEST(LintServe, ParallelCaptureFiresOnServeWorkerPath) {
  const std::string src =
      "void Server::start_workers(util::Workspace& ws) {\n"          // 1
      "  util::parallel_for_chunked(0, n, work, [&](i64 lo, i64 hi) {\n"   // 2
      "    float* p = ws.alloc<float>(64);\n"                        // 3
      "    warm(p, lo, hi);\n"
      "  });\n"
      "}\n";
  const auto r = lint_source("src/serve/fake_server.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-parallel-capture", 2));
}

// ---- supervisor coverage --------------------------------------------------
// The supervisor's fast canary runs on the serving thread every batch and
// must stay allocation-free; heal()/respawn is the cold path and uses the
// justified-NOLINT idiom. These fixtures pin both down for the
// src/serve/supervisor.* file family.

TEST(LintServe, HotAllocFiresOnFastCanaryPath) {
  const std::string src =
      "// SNNSEC_HOT: per-batch fast canary on the serving thread\n"  // 1
      "void Server::fast_canary(Worker& w) {\n"                       // 2
      "  auto params = w.model->parameters();\n"                      // 3
      "  failures_.push_back(w.id);\n"                                // 4
      "}\n";
  const auto r = lint_source("src/serve/fake_supervisor.cpp", src);
  EXPECT_TRUE(has(r, "snnsec-hot-alloc", 4));
}

TEST(LintServe, JustifiedRespawnGrowthSuppresses) {
  // heal() stamps a fresh replica — cold path, growth is justified there.
  const std::string src =
      "// SNNSEC_HOT\n"
      "void Server::heal(Worker& w) {\n"
      "  w.model = artifact_->make_replica();\n"  // 3
      "  // NOLINTNEXTLINE(snnsec-hot-alloc): quarantine recovery only\n"
      "  w.params.assign(all.begin(), all.end());\n"  // 5
      "}\n";
  const auto r = lint_source("src/serve/fake_supervisor.cpp", src);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(suppressed(r, "snnsec-hot-alloc", 5));
}
