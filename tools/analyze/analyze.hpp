// snnsec_analyze: flow-aware static analysis for the snnsec tree.
//
// Where snnsec_lint checks line-local invariants, this tool builds a
// lightweight semantic model per translation unit — function/method
// extraction, a name-resolution-lite call graph, and per-function effect
// summaries (allocates, locks which mutexes in which order, does I/O,
// blocks) — and runs whole-program analyses over it:
//
//   A1 hot-path reachability   functions reachable from a function-level
//      snnsec-hot-path-alloc   `// SNNSEC_HOT` entry marker inherit the
//      snnsec-hot-path-lock    no-allocation rule plus no-lock/no-I/O,
//      snnsec-hot-path-io      even in files without the file marker.
//   A2 lock-order discipline   acquisition-order graph over named mutexes;
//      snnsec-lock-cycle       cycles are potential deadlocks, and blocking
//      snnsec-lock-across-wait (CV waits and sleeps) while holding an
//                              unrelated lock is reported.
//   A3 concurrency heuristics  fields written both under a lock guard and
//      snnsec-mixed-guard      bare, and relaxed-ordering atomics whose
//      snnsec-relaxed-atomic   names suggest flag/state (non-counter) roles.
//   A4 string registry         serve.*/tensor.*/attack.*/pool.* metric and
//      snnsec-metric-near-miss trace-span literals: near-miss duplicates
//      snnsec-metric-undocumented and names missing from DESIGN.md.
//   L  include graph           inverted layer edges (src/util must not
//      snnsec-layering         include nn/snn/serve/obs/tensor; src/tensor
//      snnsec-include-cycle    must not include serve) and include cycles.
//
// Suppression contract is identical to snnsec_lint's:
// `// NOLINT(snnsec-<rule>): <justification>` on the offending line or
// NOLINTNEXTLINE on the line before; unjustified snnsec NOLINTs are
// themselves findings. A1 allocation findings additionally honor justified
// `snnsec-hot-alloc` suppressions — a line exempted from the per-file rule
// is exempt from the reachability rule for the same reason.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"  // Finding

namespace snnsec::analyze {

using lint::Finding;

// ---------------------------------------------------------------------------
// Per-TU semantic model. Everything here is derivable from the file's bytes
// alone (no cross-file knowledge), which is what makes it cacheable by
// content digest; resolution against other TUs happens in analyze().
// ---------------------------------------------------------------------------

/// A named effect at a source line (allocation, I/O, ...).
struct Effect {
  int line = 0;
  std::string what;
};

/// A mutex acquisition with the set of mutex expressions already held.
struct LockAcq {
  int line = 0;
  std::string mutex_expr;         ///< as written: "m_", "s.m", "pool.mutex_"
  std::vector<std::string> held;  ///< exprs held when this one is acquired
};

/// A blocking point: a CV wait or a sleep.
struct WaitSite {
  int line = 0;
  std::string what;          ///< "cv.wait" or "sleep"
  std::string released;      ///< mutex expr a CV wait releases ("" otherwise)
  std::vector<std::string> held;
};

/// A call site with the enclosing held-lock set.
struct CallSite {
  int line = 0;
  std::string chain;  ///< "helper", "batcher_.release", "obs::Tracer::record"
  std::vector<std::string> held;
};

/// A plain (non-atomic-qualified) assignment to a shallow member-ish chain.
struct WriteSite {
  int line = 0;
  std::string chain;   ///< "done_", "s.done" — depth <= 2
  bool locked = false;  ///< any lock held at the write
};

struct FunctionInfo {
  std::string name;  ///< last identifier ("finalize", "operator()")
  std::string cls;   ///< class path ("Server", "Server::Slot"), "" for free
  int line = 0;      ///< 1-based definition line
  bool hot_entry = false;  ///< function-level SNNSEC_HOT marker
  std::vector<std::pair<std::string, std::string>> params;  ///< name -> type
  std::vector<std::pair<std::string, std::string>> locals;  ///< ref/ptr decls
  std::vector<std::string> local_mutexes;  ///< function-local std::mutex names
  std::vector<Effect> allocs;
  std::vector<Effect> ios;
  std::vector<LockAcq> acquisitions;
  std::vector<WaitSite> waits;
  std::vector<CallSite> calls;
  std::vector<WriteSite> writes;
  std::vector<Effect> relaxed;  ///< memory_order_relaxed uses; what = object
};

struct MemberDecl {
  std::string name;
  std::string type;  ///< declared type text, normalized whitespace
};

struct ClassInfo {
  std::string path;  ///< "Server", "Server::Slot" (namespaces stripped)
  std::vector<MemberDecl> members;
};

struct IncludeDecl {
  int line = 0;
  std::string path;  ///< as written inside quotes ("util/error.hpp")
};

struct MetricUse {
  int line = 0;
  std::string name;  ///< the string literal ("serve.requests")
};

struct SuppressionLine {
  int line = 0;
  std::string rule;  ///< with the snnsec- prefix
  bool justified = false;
  bool next_line = false;
};

struct FileModel {
  std::string path;
  bool hot_file = false;  ///< any SNNSEC_HOT comment marker in the file
  std::vector<IncludeDecl> includes;
  std::vector<ClassInfo> classes;
  std::vector<FunctionInfo> functions;
  std::vector<MetricUse> metrics;
  std::vector<SuppressionLine> suppressions;
};

/// Parse one translation unit into its semantic model.
FileModel extract_model(const std::string& path, const std::string& content);

/// FileCache payload round-trip; deserialize returns false on malformed
/// payloads (treat as a cache miss). Bump analyze_cache_version() whenever
/// the model shape or the extraction rules change.
std::string serialize_model(const FileModel& model);
bool deserialize_model(const std::string& payload, const std::string& path,
                       FileModel& out);
std::string_view analyze_cache_version();

// ---------------------------------------------------------------------------
// Whole-program analysis.
// ---------------------------------------------------------------------------

struct Options {
  /// Contents of DESIGN.md; when non-empty, A4 requires every collected
  /// metric/span name to appear in it (snnsec-metric-undocumented).
  std::string design_source;
};

struct LockEdge {
  std::string from;  ///< canonical mutex held
  std::string to;    ///< canonical mutex acquired under it
  std::string site;  ///< "file:line" of the acquisition or call
};

struct Stats {
  std::size_t functions = 0;
  std::size_t hot_entries = 0;
  std::size_t call_edges = 0;
  std::vector<std::string> mutexes;    ///< canonical lock-order model nodes
  std::vector<LockEdge> lock_edges;    ///< acquisition-order edges
  std::vector<std::string> metric_names;
};

struct AnalyzeResult {
  std::vector<Finding> findings;
  std::vector<Finding> suppressed;
  Stats stats;
};

AnalyzeResult analyze(const std::vector<FileModel>& models,
                      const Options& opts = {});

/// All stable rule IDs (without the "snnsec-" prefix), for --list-rules.
const std::vector<std::string_view>& rule_ids();

}  // namespace snnsec::analyze
