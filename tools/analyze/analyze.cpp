// Whole-program analyses over per-TU models: hot-path reachability (A1),
// lock-order discipline (A2), concurrency heuristics (A3), metric-name
// registry (A4), and the include-layering rules.
//
// Resolution is deliberately "lite": member types come from the extracted
// class tables, call targets from unique-name or class-scoped matching, and
// anything ambiguous resolves to nothing rather than to a guess. The analyses
// are therefore under-approximate (they can miss), never speculative about
// identity — which keeps findings actionable.
#include "analyze.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "source_view.hpp"

namespace snnsec::analyze {

namespace {

using lint::ident_char;

std::string stem(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::size_t begin = slash == std::string::npos ? 0 : slash + 1;
  std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || dot < begin) dot = path.size();
  return path.substr(begin, dot - begin);
}

std::string to_lower(std::string s) {
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string last_component(std::string_view chain) {
  const std::size_t dot = chain.rfind('.');
  const std::size_t col = chain.rfind(':');
  std::size_t cut = 0;
  if (dot != std::string_view::npos) cut = dot + 1;
  if (col != std::string_view::npos && col + 1 > cut) cut = col + 1;
  return std::string(chain.substr(cut));
}

/// Mirrors model.cpp: names a bare-call fallback never resolves globally.
bool common_method_name(std::string_view id) {
  static const std::set<std::string_view> names = {
      "size",   "empty",   "begin",  "end",      "data",       "clear",
      "front",  "back",    "push",   "pop",      "insert",     "erase",
      "find",   "count",   "at",     "reserve",  "resize",     "swap",
      "get",    "reset",   "release", "load",    "store",      "exchange",
      "wait",   "lock",    "unlock", "try_lock", "notify_one", "notify_all",
      "join",   "detach",  "c_str",  "str",      "substr",     "append",
      "what",   "value",   "has_value", "first", "second",     "min",
      "max",    "abs",     "to_string"};
  return names.count(id) != 0;
}

int edit_distance_capped(const std::string& a, const std::string& b, int cap) {
  const int n = static_cast<int>(a.size()), m = static_cast<int>(b.size());
  if (std::abs(n - m) > cap) return cap + 1;
  std::vector<int> prev(m + 1), cur(m + 1);
  for (int j = 0; j <= m; ++j) prev[j] = j;
  for (int i = 1; i <= n; ++i) {
    cur[0] = i;
    int row_min = cur[0];
    for (int j = 1; j <= m; ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > cap) return cap + 1;
    std::swap(prev, cur);
  }
  return prev[m];
}

struct FnRef {
  int model = 0;
  int fn = 0;
};

class Analyzer {
 public:
  Analyzer(const std::vector<FileModel>& models, const Options& opts)
      : models_(models), opts_(opts) {}

  AnalyzeResult run() {
    index();
    rule_nolint();
    a1_hot_paths();
    a2_lock_order();
    a3_concurrency();
    a4_metric_registry();
    layering();
    finish();
    return std::move(result_);
  }

 private:
  const std::vector<FileModel>& models_;
  const Options& opts_;
  AnalyzeResult result_;

  // --- indexes -------------------------------------------------------------
  std::map<std::string, std::vector<MemberDecl>> class_members_;
  std::map<std::string, std::set<std::string>> class_by_last_;
  std::vector<FnRef> fns_;
  std::map<std::string, std::vector<int>> fn_by_label_;
  std::map<std::string, std::vector<int>> fn_by_name_;
  std::map<std::string, std::vector<int>> fn_by_cls_name_;  ///< "Cls#name"
  std::set<std::string> reported_;  ///< file:line:rule dedupe

  const FunctionInfo& fn(int i) const {
    return models_[fns_[i].model].functions[fns_[i].fn];
  }
  const FileModel& file_of(int i) const { return models_[fns_[i].model]; }

  static std::string label_of(const FunctionInfo& f) {
    return f.cls.empty() ? f.name : f.cls + "::" + f.name;
  }

  void index() {
    for (std::size_t mi = 0; mi < models_.size(); ++mi) {
      for (const ClassInfo& c : models_[mi].classes) {
        auto& members = class_members_[c.path];
        members.insert(members.end(), c.members.begin(), c.members.end());
        const std::size_t col = c.path.rfind(':');
        const std::string lastname =
            col == std::string::npos ? c.path : c.path.substr(col + 1);
        class_by_last_[lastname].insert(c.path);
      }
      for (std::size_t fi = 0; fi < models_[mi].functions.size(); ++fi) {
        const FunctionInfo& f = models_[mi].functions[fi];
        const int id = static_cast<int>(fns_.size());
        fns_.push_back({static_cast<int>(mi), static_cast<int>(fi)});
        fn_by_label_[label_of(f)].push_back(id);
        fn_by_name_[f.name].push_back(id);
        if (!f.cls.empty()) fn_by_cls_name_[f.cls + "#" + f.name].push_back(id);
        // Methods defined out of line with a qualified name should also be
        // findable through the bare class name ("Server::submit" when cls is
        // "Server" inside namespace serve).
      }
    }
    result_.stats.functions = fns_.size();
  }

  // --- suppression-aware reporting -----------------------------------------

  bool suppressed(const FileModel& model, int line, const std::string& rule,
                  const std::string& alias = "") {
    for (const SuppressionLine& s : model.suppressions) {
      if (!s.justified) continue;
      if (s.rule != rule && (alias.empty() || s.rule != alias)) continue;
      if ((!s.next_line && s.line == line) ||
          (s.next_line && s.line == line - 1))
        return true;
    }
    return false;
  }

  void report(const FileModel& model, int line, const std::string& rule_id,
              std::string message, std::string suggestion,
              const std::string& alias_rule = "") {
    const std::string rule = "snnsec-" + rule_id;
    const std::string key = model.path + ":" + std::to_string(line) + ":" + rule;
    if (!reported_.insert(key).second) return;
    Finding f;
    f.file = model.path;
    f.line = line;
    f.rule = rule;
    f.message = std::move(message);
    f.suggestion = std::move(suggestion);
    if (suppressed(model, line, rule, alias_rule))
      result_.suppressed.push_back(std::move(f));
    else
      result_.findings.push_back(std::move(f));
  }

  // --- meta rule: unjustified snnsec NOLINTs naming analyze rules ----------

  void rule_nolint() {
    std::set<std::string> ours;
    for (std::string_view id : rule_ids()) ours.insert("snnsec-" + std::string(id));
    for (const FileModel& m : models_) {
      for (const SuppressionLine& s : m.suppressions) {
        if (s.justified || ours.count(s.rule) == 0) continue;
        report(m, s.line, "nolint-justification",
               "NOLINT(" + s.rule + ") without a justification; it suppresses "
               "nothing",
               "append `: <why this is safe>` after the closing paren");
      }
    }
  }

  // --- name-resolution-lite helpers ----------------------------------------

  /// Member lookup walking from `cls_path` outward through enclosing classes.
  /// Returns declaring-class path; empty if not found.
  std::pair<std::string, std::string> member_lookup(std::string cls_path,
                                                    const std::string& name) {
    while (true) {
      auto it = class_members_.find(cls_path);
      if (it != class_members_.end()) {
        for (const MemberDecl& m : it->second)
          if (m.name == name) return {cls_path, m.type};
      }
      const std::size_t col = cls_path.rfind("::");
      if (col == std::string::npos) return {"", ""};
      cls_path.resize(col);
    }
  }

  /// Declared type text -> unique project class path ("" when ambiguous).
  std::string type_to_class(std::string type) {
    for (std::string_view strip : {"const ", "volatile ", "mutable "}) {
      std::size_t p;
      while ((p = type.find(strip)) != std::string::npos)
        type.erase(p, strip.size());
    }
    type.erase(std::remove_if(type.begin(), type.end(),
                              [](char c) { return c == '&' || c == '*'; }),
               type.end());
    type = [&] {
      std::size_t b = type.find_first_not_of(' ');
      std::size_t e = type.find_last_not_of(' ');
      return b == std::string::npos ? std::string()
                                    : type.substr(b, e - b + 1);
    }();
    // Unwrap smart pointers / wrappers down to the pointee.
    for (bool unwrapped = true; unwrapped;) {
      unwrapped = false;
      for (std::string_view w :
           {"std::unique_ptr<", "std::shared_ptr<", "std::optional<",
            "std::reference_wrapper<", "std::atomic<", "unique_ptr<",
            "shared_ptr<", "optional<", "reference_wrapper<", "atomic<"}) {
        if (type.compare(0, w.size(), w) == 0 && type.back() == '>') {
          type = type.substr(w.size(), type.size() - w.size() - 1);
          unwrapped = true;
          break;
        }
      }
    }
    if (type.compare(0, 5, "std::") == 0) return "";
    // Last :: component, template args stripped.
    const std::size_t lt = type.find('<');
    if (lt != std::string::npos) type.resize(lt);
    const std::size_t col = type.rfind("::");
    const std::string lastname =
        col == std::string::npos ? type : type.substr(col + 2);
    if (lastname.empty()) return "";
    auto it = class_by_last_.find(lastname);
    if (it == class_by_last_.end() || it->second.size() != 1) {
      // Fall back: an exact class-path match even when the last name is
      // ambiguous or the class table keyed it with enclosing scopes.
      if (class_members_.count(lastname)) return lastname;
      return "";
    }
    return *it->second.begin();
  }

  std::string base_type_of(int fid, const std::string& base) {
    const FunctionInfo& f = fn(fid);
    for (const auto& [name, type] : f.params)
      if (name == base) return type;
    for (const auto& [name, type] : f.locals)
      if (name == base) return type;
    const auto [cls, type] = member_lookup(f.cls, base);
    return type;
  }

  /// Canonical lock-order node for a mutex expression in a function context.
  std::string canonical_mutex(int fid, const std::string& expr) {
    const FunctionInfo& f = fn(fid);
    if (expr.find("::") != std::string::npos) return expr;
    const std::size_t dot = expr.rfind('.');
    if (dot == std::string::npos) {
      for (const std::string& lm : f.local_mutexes)
        if (lm == expr) return label_of(f) + "::" + expr;
      const auto [cls, type] = member_lookup(f.cls, expr);
      if (!cls.empty()) return cls + "::" + expr;
      return "<" + stem(file_of(fid).path) + ">::" + expr;
    }
    const std::string base = expr.substr(0, expr.find('.'));
    const std::string member = expr.substr(dot + 1);
    const std::string cls = type_to_class(base_type_of(fid, base));
    if (!cls.empty()) return cls + "::" + member;
    return "<" + stem(file_of(fid).path) + ">::" + expr;
  }

  /// Resolve a call chain to candidate function ids (empty = unknown).
  std::vector<int> resolve_call(int fid, const std::string& chain) {
    if (chain.compare(0, 5, "std::") == 0) return {};
    if (chain.find("::") != std::string::npos) {
      // Qualified: exact label, then suffix match on :: boundaries. Labels
      // carry class scopes but not namespaces, so when nothing matches we
      // strip the leading component ("util::parallel_for" -> "parallel_for")
      // and retry.
      std::vector<int> out;
      auto it = fn_by_label_.find(chain);
      if (it != fn_by_label_.end()) return it->second;
      for (const auto& [label, ids] : fn_by_label_) {
        if (label.size() > chain.size() &&
            label.compare(label.size() - chain.size(), chain.size(), chain) ==
                0 &&
            label[label.size() - chain.size() - 1] == ':')
          out.insert(out.end(), ids.begin(), ids.end());
      }
      if (!out.empty()) return out;
      return resolve_call(fid, chain.substr(chain.find("::") + 2));
    }
    const std::size_t dot = chain.rfind('.');
    if (dot != std::string::npos) {
      std::size_t at = chain.find('.');
      const std::string method = chain.substr(dot + 1);
      std::string cls = type_to_class(base_type_of(fid, chain.substr(0, at)));
      // Each intermediate member retypes the chain: in target.inbox.put the
      // method belongs to inbox's class, not to target's.
      while (!cls.empty() && at < dot) {
        const std::size_t next = chain.find('.', at + 1);
        cls = type_to_class(
            member_lookup(cls, chain.substr(at + 1, next - at - 1)).second);
        at = next;
      }
      if (cls.empty()) return {};
      auto it = fn_by_cls_name_.find(cls + "#" + method);
      if (it != fn_by_cls_name_.end()) return it->second;
      // Method of a nested/derived scope: match any class path ending in cls.
      std::vector<int> out;
      for (const auto& [key, ids] : fn_by_cls_name_) {
        const std::size_t hash = key.find('#');
        const std::string kcls = key.substr(0, hash);
        if (key.substr(hash + 1) != method) continue;
        if (kcls.size() > cls.size() &&
            kcls.compare(kcls.size() - cls.size(), cls.size(), cls) == 0 &&
            kcls[kcls.size() - cls.size() - 1] == ':')
          out.insert(out.end(), ids.begin(), ids.end());
      }
      return out;
    }
    // Bare call: same-class method first, then a unique global name.
    const FunctionInfo& f = fn(fid);
    if (!f.cls.empty()) {
      auto it = fn_by_cls_name_.find(f.cls + "#" + chain);
      if (it != fn_by_cls_name_.end()) return it->second;
    }
    if (common_method_name(chain)) return {};
    auto it = fn_by_name_.find(chain);
    if (it != fn_by_name_.end() && it->second.size() == 1) return it->second;
    return {};
  }

  // --- A1: hot-path reachability -------------------------------------------

  void a1_hot_paths() {
    std::map<int, int> parent;       ///< reached fn -> caller fn
    std::map<int, std::string> entry_of;
    std::deque<int> queue;
    for (int i = 0; i < static_cast<int>(fns_.size()); ++i) {
      if (fn(i).hot_entry) {
        parent[i] = -1;
        entry_of[i] = label_of(fn(i));
        queue.push_back(i);
        ++result_.stats.hot_entries;
      }
    }
    std::size_t edges = 0;
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      for (const CallSite& cs : fn(cur).calls) {
        for (int callee : resolve_call(cur, cs.chain)) {
          ++edges;
          if (parent.count(callee)) continue;
          parent[callee] = cur;
          entry_of[callee] = entry_of[cur];
          queue.push_back(callee);
        }
      }
    }
    result_.stats.call_edges = edges;

    auto via = [&](int fid) {
      std::vector<std::string> chain;
      for (int i = fid; i != -1; i = parent[i]) chain.push_back(label_of(fn(i)));
      std::reverse(chain.begin(), chain.end());
      std::string out;
      for (const std::string& c : chain) {
        if (!out.empty()) out += " -> ";
        out += c;
      }
      return out;
    };

    for (const auto& [fid, par] : parent) {
      const FileModel& file = file_of(fid);
      const std::string path = via(fid);
      if (!file.hot_file) {
        // In SNNSEC_HOT-marked files lint's per-file R1 already owns
        // allocation findings; A1 covers the unmarked remainder.
        for (const Effect& e : fn(fid).allocs) {
          report(file, e.line, "hot-path-alloc",
                 "allocation (" + e.what + ") on hot path: " + path,
                 "hoist the allocation out of the hot path or take scratch "
                 "from util::Workspace",
                 "snnsec-hot-alloc");
        }
      }
      for (const LockAcq& acq : fn(fid).acquisitions) {
        report(file, acq.line, "hot-path-lock",
               "mutex acquisition (" + canonical_mutex(fid, acq.mutex_expr) +
                   ") on hot path: " + path,
               "restructure so the hot path reads published state without "
               "taking the lock, or justify with a NOLINT");
      }
      for (const Effect& e : fn(fid).ios) {
        report(file, e.line, "hot-path-io",
               "I/O (" + e.what + ") on hot path: " + path,
               "buffer the output and flush it off the hot path");
      }
      for (const WaitSite& w : fn(fid).waits) {
        if (w.what == "sleep")
          report(file, w.line, "hot-path-io",
                 "blocking sleep on hot path: " + path,
                 "hot paths must not sleep; move the backoff to the caller");
      }
    }
  }

  // --- A2: lock-order discipline -------------------------------------------

  struct EdgeSite {
    std::string file;
    int line = 0;
  };

  void a2_lock_order() {
    // Per-function transitive acquire summaries (fixpoint over calls).
    std::vector<std::set<std::string>> acquire(fns_.size());
    std::vector<std::vector<std::vector<int>>> callees(fns_.size());
    for (int i = 0; i < static_cast<int>(fns_.size()); ++i) {
      for (const LockAcq& a : fn(i).acquisitions)
        acquire[i].insert(canonical_mutex(i, a.mutex_expr));
      callees[i].reserve(fn(i).calls.size());
      for (const CallSite& cs : fn(i).calls)
        callees[i].push_back(resolve_call(i, cs.chain));
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (int i = 0; i < static_cast<int>(fns_.size()); ++i) {
        for (const auto& cands : callees[i]) {
          for (int c : cands) {
            for (const std::string& m : acquire[c])
              if (acquire[i].insert(m).second) changed = true;
          }
        }
      }
    }

    // Edges: held -> acquired, both intra (guard nesting) and inter (call
    // with a lock held into a function that acquires).
    std::map<std::string, std::map<std::string, EdgeSite>> edges;
    std::set<std::string> nodes;
    auto add_edge = [&](const std::string& from, const std::string& to,
                        const std::string& file, int line) {
      if (from == to) return;
      nodes.insert(from);
      nodes.insert(to);
      edges[from].emplace(to, EdgeSite{file, line});
    };
    for (int i = 0; i < static_cast<int>(fns_.size()); ++i) {
      const FileModel& file = file_of(i);
      for (const LockAcq& a : fn(i).acquisitions) {
        const std::string to = canonical_mutex(i, a.mutex_expr);
        nodes.insert(to);
        for (const std::string& h : a.held)
          add_edge(canonical_mutex(i, h), to, file.path, a.line);
      }
      for (std::size_t ci = 0; ci < fn(i).calls.size(); ++ci) {
        const CallSite& cs = fn(i).calls[ci];
        if (cs.held.empty()) continue;
        for (int c : callees[i][ci]) {
          for (const std::string& m : acquire[c]) {
            for (const std::string& h : cs.held)
              add_edge(canonical_mutex(i, h), m, file.path, cs.line);
          }
        }
      }
    }
    result_.stats.mutexes.assign(nodes.begin(), nodes.end());
    for (const auto& [from, tos] : edges)
      for (const auto& [to, site] : tos)
        result_.stats.lock_edges.push_back(
            {from, to, site.file + ":" + std::to_string(site.line)});

    // Cycles: for each edge a->b, shortest path b ~> a closes a cycle.
    std::set<std::string> seen_cycles;
    for (const auto& [a, tos] : edges) {
      for (const auto& [b, site] : tos) {
        // BFS from b back to a.
        std::map<std::string, std::string> prev;
        std::deque<std::string> q{b};
        prev[b] = "";
        bool found = false;
        while (!q.empty() && !found) {
          const std::string cur = q.front();
          q.pop_front();
          auto it = edges.find(cur);
          if (it == edges.end()) continue;
          for (const auto& [next, _] : it->second) {
            if (prev.count(next)) continue;
            prev[next] = cur;
            if (next == a) { found = true; break; }
            q.push_back(next);
          }
        }
        if (!found) continue;
        std::vector<std::string> cycle;  // a -> b -> ... -> a
        for (std::string n = a; !n.empty(); n = prev[n]) {
          cycle.push_back(n);
          if (n == b) break;
        }
        std::reverse(cycle.begin(), cycle.end());  // now a, b, ..., back to a
        // Canonical rotation for dedupe.
        std::vector<std::string> rot = cycle;
        std::rotate(rot.begin(),
                    std::min_element(rot.begin(), rot.end()), rot.end());
        std::string canon;
        for (const std::string& n : rot) canon += n + "|";
        if (!seen_cycles.insert(canon).second) continue;
        std::string text;
        for (const std::string& n : cycle) text += n + " -> ";
        text += a;
        const FileModel* file = nullptr;
        for (const FileModel& m : models_)
          if (m.path == site.file) file = &m;
        if (file == nullptr) continue;
        report(*file, site.line, "lock-cycle",
               "lock-order cycle: " + text + " (" + b + " acquired here while " +
                   a + " is held)",
               "establish a global acquisition order and release " + a +
                   " before taking " + b);
      }
    }

    // Locks held across blocking points, intra- and inter-procedurally.
    std::vector<bool> blocking(fns_.size(), false);
    for (int i = 0; i < static_cast<int>(fns_.size()); ++i)
      blocking[i] = !fn(i).waits.empty();
    for (bool changed = true; changed;) {
      changed = false;
      for (int i = 0; i < static_cast<int>(fns_.size()); ++i) {
        if (blocking[i]) continue;
        for (const auto& cands : callees[i])
          for (int c : cands)
            if (blocking[c]) { blocking[i] = true; changed = true; }
      }
    }
    auto held_csv = [&](int fid, const std::vector<std::string>& held) {
      std::string out;
      for (const std::string& h : held) {
        if (!out.empty()) out += ", ";
        out += canonical_mutex(fid, h);
      }
      return out;
    };
    for (int i = 0; i < static_cast<int>(fns_.size()); ++i) {
      const FileModel& file = file_of(i);
      for (const WaitSite& w : fn(i).waits) {
        if (w.held.empty()) continue;
        report(file, w.line, "lock-across-wait",
               "blocking point (" + w.what + ") reached while holding " +
                   held_csv(i, w.held),
               "release the lock before blocking, or bound the wait");
      }
      for (std::size_t ci = 0; ci < fn(i).calls.size(); ++ci) {
        const CallSite& cs = fn(i).calls[ci];
        if (cs.held.empty()) continue;
        for (int c : callees[i][ci]) {
          if (!blocking[c]) continue;
          report(file, cs.line, "lock-across-wait",
                 "call to blocking function " + label_of(fn(c)) +
                     " while holding " + held_csv(i, cs.held),
                 "release the lock before the call, or split the callee so "
                 "the blocking part runs unlocked");
          break;
        }
      }
    }
  }

  // --- A3: mixed-access members and relaxed flag atomics --------------------

  void a3_concurrency() {
    struct Access {
      std::string type;
      std::vector<std::pair<const FileModel*, int>> locked;
      std::vector<std::pair<const FileModel*, int>> bare;
    };
    std::map<std::string, Access> members;  // "Cls::field"
    for (int i = 0; i < static_cast<int>(fns_.size()); ++i) {
      const FileModel& file = file_of(i);
      const FunctionInfo& f = fn(i);
      // Constructor/destructor bodies run before publication / after the
      // last reader; their writes never race.
      const std::size_t col = f.cls.rfind(':');
      const std::string cls_last =
          col == std::string::npos ? f.cls : f.cls.substr(col + 1);
      const bool ctor_dtor =
          !f.cls.empty() && (f.name == cls_last || f.name == "~" + cls_last);
      for (const WriteSite& w : f.writes) {
        if (ctor_dtor) break;
        std::string declaring, type, name;
        const std::size_t dot = w.chain.find('.');
        if (dot == std::string::npos) {
          name = w.chain;
          bool local = false;
          for (const auto& [pn, pt] : f.params) local |= pn == name;
          for (const auto& [ln, lt] : f.locals) local |= ln == name;
          for (const std::string& lm : f.local_mutexes) local |= lm == name;
          if (local) continue;
          std::tie(declaring, type) = member_lookup(f.cls, name);
        } else {
          const std::string base = w.chain.substr(0, dot);
          name = w.chain.substr(dot + 1);
          // Writes through a parameter go to a caller-owned object (the
          // fill-this-output-struct idiom) — ownership is contextual there,
          // so only `this` members and reference locals (which alias shared
          // state) participate in the mixed-guard analysis.
          bool via_param = false;
          for (const auto& [pn, pt] : f.params) via_param |= pn == base;
          if (via_param) continue;
          const std::string cls = type_to_class(base_type_of(i, base));
          if (cls.empty()) continue;
          std::tie(declaring, type) = member_lookup(cls, name);
        }
        if (declaring.empty()) continue;
        const std::string lt = to_lower(type);
        if (lt.find("atomic") != std::string::npos ||
            lt.find("mutex") != std::string::npos ||
            lt.find("condition_variable") != std::string::npos)
          continue;
        Access& acc = members[declaring + "::" + name];
        acc.type = type;
        (w.locked ? acc.locked : acc.bare).emplace_back(&file, w.line);
      }
      for (const Effect& e : f.relaxed) {
        const std::string leaf = to_lower(last_component(e.what));
        static const std::array<std::string_view, 10> flagish = {
            "stop", "done", "flag", "state",  "ready",
            "busy", "deposed", "failed", "enabled", "stopped"};
        bool hit = false;
        for (std::string_view tok : flagish)
          if (leaf.find(tok) != std::string::npos) hit = true;
        if (!hit) continue;
        report(file, e.line, "relaxed-atomic",
               "memory_order_relaxed on flag-like atomic `" + e.what +
                   "`: relaxed ordering publishes no prior writes",
               "use acquire/release (or the seq_cst default) unless this is a "
               "pure counter");
      }
    }
    for (const auto& [key, acc] : members) {
      if (acc.locked.empty() || acc.bare.empty()) continue;
      for (const auto& [file, line] : acc.bare) {
        report(*file, line, "mixed-guard",
               "field " + key + " (" + acc.type + ") is written both under a "
               "lock (" + acc.locked.front().first->path + ":" +
                   std::to_string(acc.locked.front().second) +
                   ") and bare here",
               "take the same lock here, make the field atomic, or justify "
               "the publication protocol with a NOLINT");
      }
    }
  }

  // --- A4: metric/trace string registry ------------------------------------

  void a4_metric_registry() {
    std::map<std::string, std::vector<std::pair<const FileModel*, int>>> names;
    for (const FileModel& m : models_)
      for (const MetricUse& use : m.metrics)
        names[use.name].emplace_back(&m, use.line);
    for (const auto& [name, sites] : names)
      result_.stats.metric_names.push_back(name);

    // Near-miss pairs: edit distance exactly 1 — almost certainly a typo'd
    // variant of the same series. Report at the rarer name's sites.
    std::vector<std::string> sorted;
    for (const auto& [name, sites] : names) sorted.push_back(name);
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      for (std::size_t j = i + 1; j < sorted.size(); ++j) {
        if (edit_distance_capped(sorted[i], sorted[j], 1) != 1) continue;
        const auto& a = names[sorted[i]];
        const auto& b = names[sorted[j]];
        const bool a_rarer = a.size() <= b.size();
        const std::string& rare = a_rarer ? sorted[i] : sorted[j];
        const std::string& common = a_rarer ? sorted[j] : sorted[i];
        for (const auto& [file, line] : names[rare]) {
          report(*file, line, "metric-near-miss",
                 "metric name \"" + rare + "\" is one edit from \"" + common +
                     "\" (" + std::to_string(names[common].size()) +
                     " use(s)); split series are invisible on dashboards",
                 "rename to \"" + common + "\" or pick a clearly distinct "
                 "name");
        }
      }
    }

    if (opts_.design_source.empty()) return;
    for (const auto& [name, sites] : names) {
      if (opts_.design_source.find(name) != std::string::npos) continue;
      const auto& [file, line] = sites.front();
      report(*file, line, "metric-undocumented",
             "metric name \"" + name + "\" is not documented in DESIGN.md",
             "add \"" + name + "\" to the metric-name registry table in "
             "DESIGN.md §15");
    }
  }

  // --- layering + include cycles -------------------------------------------

  void layering() {
    struct LayerRule {
      std::string_view from_dir;
      std::vector<std::string_view> banned;
    };
    static const std::vector<LayerRule> rules = {
        {"src/util/", {"nn/", "snn/", "serve/", "obs/", "tensor/"}},
        {"src/tensor/", {"serve/"}},
    };
    for (const FileModel& m : models_) {
      for (const LayerRule& rule : rules) {
        if (m.path.find(rule.from_dir) == std::string::npos) continue;
        for (const IncludeDecl& inc : m.includes) {
          for (std::string_view banned : rule.banned) {
            if (inc.path.compare(0, banned.size(), banned) != 0) continue;
            report(m, inc.line, "layering",
                   std::string(rule.from_dir) + " must not include " +
                       inc.path + " (inverted layer dependency)",
                   "invert the dependency with a hook/interface in the lower "
                   "layer (see util/metrics_hooks.hpp)");
          }
        }
      }
    }

    // Include cycles among files we have models for. Include paths are
    // src-relative ("util/error.hpp"); map them onto model paths.
    std::map<std::string, const FileModel*> by_suffix;
    for (const FileModel& m : models_) by_suffix["/" + m.path] = &m;
    auto resolve_include = [&](const std::string& inc) -> const FileModel* {
      for (const auto& [suffix, m] : by_suffix) {
        const std::string want = "/src/" + inc;
        if (suffix.size() >= want.size() &&
            suffix.compare(suffix.size() - want.size(), want.size(), want) ==
                0)
          return m;
      }
      return nullptr;
    };
    std::map<const FileModel*, std::vector<std::pair<const FileModel*, int>>>
        graph;
    for (const FileModel& m : models_)
      for (const IncludeDecl& inc : m.includes)
        if (const FileModel* target = resolve_include(inc.path))
          graph[&m].emplace_back(target, inc.line);
    // DFS cycle detection with path reporting.
    std::map<const FileModel*, int> state;  // 0 new, 1 on stack, 2 done
    std::vector<const FileModel*> stack;
    std::set<std::string> seen;
    std::function<void(const FileModel*)> dfs = [&](const FileModel* node) {
      state[node] = 1;
      stack.push_back(node);
      for (const auto& [next, line] : graph[node]) {
        if (state[next] == 1) {
          // Found a cycle: stack from `next` to `node`.
          auto it = std::find(stack.begin(), stack.end(), next);
          std::vector<std::string> cyc;
          for (; it != stack.end(); ++it) cyc.push_back((*it)->path);
          std::vector<std::string> rot = cyc;
          std::rotate(rot.begin(),
                      std::min_element(rot.begin(), rot.end()), rot.end());
          std::string canon;
          for (const std::string& p : rot) canon += p + "|";
          if (seen.insert(canon).second) {
            std::string text;
            for (const std::string& p : cyc) text += p + " -> ";
            text += cyc.front();
            report(*node, line, "include-cycle",
                   "include cycle: " + text,
                   "break the cycle with a forward declaration or by moving "
                   "shared types to a lower-layer header");
          }
        } else if (state[next] == 0) {
          dfs(next);
        }
      }
      stack.pop_back();
      state[node] = 2;
    };
    for (const FileModel& m : models_)
      if (state[&m] == 0) dfs(&m);
  }

  void finish() {
    std::sort(result_.findings.begin(), result_.findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    std::sort(result_.stats.metric_names.begin(),
              result_.stats.metric_names.end());
  }
};

}  // namespace

const std::vector<std::string_view>& rule_ids() {
  static const std::vector<std::string_view> ids = {
      "hot-path-alloc",     "hot-path-lock",   "hot-path-io",
      "lock-cycle",         "lock-across-wait", "mixed-guard",
      "relaxed-atomic",     "metric-near-miss", "metric-undocumented",
      "layering",           "include-cycle",    "nolint-justification"};
  return ids;
}

AnalyzeResult analyze(const std::vector<FileModel>& models,
                      const Options& opts) {
  return Analyzer(models, opts).run();
}

}  // namespace snnsec::analyze
