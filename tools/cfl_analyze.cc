// cfl_analyze: the whole-program analyzer for the CFL-Match tree.
//
// Where tools/cfl_lint.cc checks each file in isolation, cfl_analyze lexes
// every translation unit of the program into one symbol/include/call index
// (driven by the build's compile_commands.json when given) and enforces the
// structural rules a single-file linter cannot see:
//
//   layering         src/ modules form an explicit DAG:
//                        check < obs < graph < {gen, decomp} < cpi < order
//                              < validate < match < {baseline, parallel,
//                                harness}
//                    (check and obs are reachable from anywhere; src/check
//                    splits into the dependency-free base headers and the
//                    `validate` sub-module, which sits above the structures
//                    it validates). Any include edge outside the DAG is a
//                    back-edge error, and file-level include cycles are
//                    reported as such.
//   span-escape      a std::span / std::string_view *class member* can
//                    outlive the scratch buffer or rebuilt arena it aliases.
//                    View-typed members (and view-returning methods) are
//                    forbidden unless the owning class is
//                    CFL_IMMUTABLE_AFTER_BUILD, or the member carries
//                    CFL_SPAN_INTO(Owner) naming a type that is marked
//                    immutable somewhere in the program (the whole-program
//                    lookup), or an explicit allow.
//   narrowing        64->32 index conversions in src/cpi, src/match,
//                    src/parallel that bypass the checked helpers:
//                    static_cast<uint32_t> of a size()/offset expression,
//                    or a 32-bit variable initialized from .size(). Use
//                    cfl::CheckedU32 (check/narrow.h) or
//                    CheckedCandidateCount (match/enumerator.h).
//   worker-noexcept  the TaskPool worker boundary: a task may be invoked
//                    only through InvokeTask (which converts an escaped
//                    exception into a contextful CFL_CHECK failure);
//                    InvokeTask and WorkerLoop themselves must be noexcept
//                    (they run outside that net); and every src/parallel/-
//                    defined function called from a lambda handed to
//                    TaskPool::Submit or ForkJoin must be noexcept or carry
//                    CFL_POOL_SAFE.
//   stats-gate       mutations of EnumStats / CpiBuildStats counters
//                    outside a CFL_STATS_ONLY(...) wrapper: such a site
//                    would survive -DCFL_STATS=OFF and break the
//                    "stats-off build is bit-identical" contract. The
//                    counter field list is read from src/obs/stats.h, so
//                    new counters are covered automatically.
//   lock-order       every cfl::Mutex member declares its position in the
//                    global lock hierarchy with CFL_LOCK_LEVEL(n)
//                    (check/thread_annotations.h). Nested MutexLock
//                    acquisitions are extracted per function across all
//                    TUs (including acquisitions reached through calls,
//                    via a may-acquire fixpoint over the call graph); an
//                    acquisition edge whose levels do not strictly ascend,
//                    a recursive acquisition, or any cycle in the
//                    acquisition graph is an error — deadlock-freedom by
//                    construction.
//   blocking-under-lock
//                    CondVar::Wait-family calls, TaskLatch waits,
//                    TaskPool::Submit, thread joins, and
//                    syscall-shaped calls (read/write/poll/accept/...)
//                    made while a MutexLock is live in the same function.
//                    Legitimate sites (condvar wait loops release the
//                    mutex while parked) carry an explicit
//                    `// cfl-analyze: allow(blocking-under-lock) <reason>`.
//   atomic-intent    every std::atomic declaration must say what it is for
//                    via CFL_ATOMIC_INTENT(counter|flag|publish); each
//                    load/store/fetch_*/exchange use site must spell its
//                    memory_order explicitly and the order must match the
//                    declared intent (counter -> relaxed; publish ->
//                    release store + acquire load, e.g. a pointer to a
//                    table built once and then read lock-free). A
//                    defaulted (seq_cst) order is an undeclared intent,
//                    not a safe harbor.
//
// Escape hatch: the same `allow(<rule>) <reason>` directive cfl_lint uses
// (either directive tag works — the analyzer's own rules conventionally use
// the cfl-analyze tag), with this tool's rule ids. Malformed directives are
// `bad-allow` errors here exactly as there.
//
// Exit codes: 0 clean, 1 violations, 2 usage/IO error.
//
// Usage:
//   cfl_analyze --root DIR [--compdb FILE] [--json]
// Analyzes every .h/.cc/.cpp under DIR/src as one program. --compdb points
// at a compile_commands.json; its translation units under DIR/src are
// cross-checked against the scan (a TU the scan missed is an error, so the
// analyzer provably covers the program the build sees). --json emits one
// JSON document instead of gcc-style lines.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint_common.h"

namespace {

namespace fs = std::filesystem;
using cfl::lint::Allowed;
using cfl::lint::ClassInfo;
using cfl::lint::Diagnostic;
using cfl::lint::FindClasses;
using cfl::lint::IsIdentChar;
using cfl::lint::SkipGroup;
using cfl::lint::SourceFile;
using cfl::lint::Token;
using cfl::lint::Tokenize;

using cfl::lint::kAtomicIntent;
using cfl::lint::kBadAllow;
using cfl::lint::kBlockingUnderLock;
using cfl::lint::kLayering;
using cfl::lint::kLockOrder;
using cfl::lint::kNarrowing;
using cfl::lint::kSpanEscape;
using cfl::lint::kStatsGate;
using cfl::lint::kWorkerNoexcept;

// ---- program model ------------------------------------------------------

struct AnalyzedFile {
  SourceFile src;
  std::vector<Token> toks;
  std::string rel;     // path relative to --root, forward slashes
  std::string module;  // src/<module>/, with the check/validate split
};

// One function declaration or definition (token-level heuristic).
struct FuncDecl {
  std::string file_rel;
  int line = 0;
  bool is_definition = false;
  bool is_noexcept = false;
  bool pool_safe = false;  // carries CFL_POOL_SAFE
};

struct ProgramIndex {
  // class name -> carries CFL_IMMUTABLE_AFTER_BUILD anywhere in the program
  std::map<std::string, bool> classes;
  // function name (last component) -> every decl/def seen
  std::map<std::string, std::vector<FuncDecl>> functions;
  // names of variables/members declared with type TaskPool
  std::set<std::string> pool_vars;
  // counter fields of the stats structs (from src/obs/stats.h)
  std::set<std::string> stats_fields;
};

// ---- module DAG ---------------------------------------------------------

// The allowed dependency table. Every module may additionally include
// itself and `check`; every module except `check` may include `obs`.
// src/check is split: check.h / thread_annotations.h / narrow.h /
// analyze_annotations.h are the dependency-free base (`check`), while
// validate.{h,cc} and test_access.h form `validate`, which sits above the
// structures it validates.
const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> table = {
      {"check", {}},
      {"obs", {}},
      {"graph", {}},
      // The benchmark's ISA-name shim (kernels/kernels.h): it includes
      // nothing, and no module may include it.
      {"kernels", {}},
      {"gen", {"graph"}},
      {"decomp", {"graph"}},
      {"cpi", {"graph", "decomp"}},
      {"order", {"graph", "decomp", "cpi"}},
      {"validate", {"graph", "decomp", "cpi", "order"}},
      {"match", {"graph", "decomp", "cpi", "order", "validate"}},
      {"baseline",
       {"graph", "decomp", "cpi", "order", "validate", "match"}},
      {"parallel",
       {"graph", "decomp", "cpi", "order", "validate", "match"}},
      {"harness",
       {"graph", "decomp", "cpi", "order", "validate", "match"}},
      // Dynamic graphs sit beside the engines: deltas, folds and epoch
      // snapshots need only the CSR graph and its builder.
      {"dyn", {"graph"}},
      // The serving stack sits at the top: it drives the match drivers
      // (counting and streaming) over the shared task pool, and owns the
      // epoch-versioned data graph.
      {"serve",
       {"graph", "decomp", "cpi", "order", "validate", "match",
        "parallel", "dyn"}},
  };
  return table;
}

// Files under src/check/ that belong to the `validate` sub-module.
bool IsValidateFile(std::string_view rel_or_include) {
  return rel_or_include.find("check/validate.") != std::string_view::npos ||
         rel_or_include.find("check/test_access.h") != std::string_view::npos;
}

// Module of a repo-relative path "src/<m>/..." ("" when not under src/).
std::string ModuleOf(const std::string& rel) {
  const std::string prefix = "src/";
  if (rel.compare(0, prefix.size(), prefix) != 0) return "";
  size_t slash = rel.find('/', prefix.size());
  if (slash == std::string::npos) return "";
  std::string mod = rel.substr(prefix.size(), slash - prefix.size());
  if (mod == "check" && IsValidateFile(rel)) return "validate";
  return mod;
}

// Module of a project include path "<m>/file.h".
std::string ModuleOfInclude(const std::string& inc) {
  size_t slash = inc.find('/');
  if (slash == std::string::npos) return "";
  std::string mod = inc.substr(0, slash);
  if (mod == "check" && IsValidateFile(inc)) return "validate";
  return mod;
}

bool DepAllowed(const std::string& from, const std::string& to) {
  if (from == to) return true;
  if (to == "check") return true;
  if (to == "obs" && from != "check") return true;
  auto it = AllowedDeps().find(from);
  if (it == AllowedDeps().end()) return false;
  return it->second.count(to) != 0;
}

// ---- include extraction -------------------------------------------------

struct Include {
  std::string path;  // as written between the quotes
  int line = 0;
  int col = 1;
  bool quoted = false;  // "project" vs <system>
};

std::vector<Include> ExtractIncludes(const SourceFile& f) {
  std::vector<Include> out;
  for (size_t li = 0; li < f.raw_lines.size(); ++li) {
    if (!f.preproc[li]) continue;
    const std::string& line = f.raw_lines[li];
    size_t hash = line.find('#');
    if (hash == std::string::npos) continue;
    size_t inc = line.find("include", hash);
    if (inc == std::string::npos) continue;
    size_t open = line.find_first_of("<\"", inc);
    if (open == std::string::npos) continue;
    char close_ch = line[open] == '<' ? '>' : '"';
    size_t close = line.find(close_ch, open + 1);
    if (close == std::string::npos) continue;
    Include i;
    i.path = line.substr(open + 1, close - open - 1);
    i.line = static_cast<int>(li + 1);
    i.col = static_cast<int>(hash + 1);
    i.quoted = line[open] == '"';
    out.push_back(i);
  }
  return out;
}

// ---- token helpers ------------------------------------------------------

bool IsIdent(const Token& t) { return !t.text.empty() && IsIdentChar(t.text[0]) &&
                                      !std::isdigit(static_cast<unsigned char>(t.text[0])); }

bool IsKeywordCall(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",     "while",  "for",    "switch", "return", "sizeof",
      "catch",  "static_assert",    "alignof", "decltype", "typeid",
      "new",    "delete", "throw",  "co_return", "co_await", "assert"};
  return kw.count(s) != 0;
}

bool LooksLikeMacro(const std::string& s) {
  if (s.empty()) return false;
  bool has_lower = false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) has_lower = true;
  }
  return !has_lower;  // ALL_CAPS / digits / underscores
}

// ---- index construction -------------------------------------------------

// Records every `name(...)` followed by qualifiers and then `{` or `;`,
// where `name` is an identifier preceded by something type-shaped (an
// identifier, `::`, `>`, `*`, `&`, or `~`). Captures noexcept and
// CFL_POOL_SAFE between the parameter list and the terminator. This
// over-approximates (paren-initialized variables index as declarations),
// which is harmless: the worker-noexcept rule only consults PascalCase
// names that are actually called.
void IndexFunctions(const AnalyzedFile& af, ProgramIndex& index) {
  const std::vector<Token>& toks = af.toks;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "(") continue;
    const Token& name = toks[i - 1];
    if (!IsIdent(name) || IsKeywordCall(name.text)) continue;
    if (i >= 2) {
      const std::string& before = toks[i - 2].text;
      bool type_shaped = before == "::" || before == ">" || before == "*" ||
                         before == "&" || before == "~" ||
                         (IsIdentChar(before[0]) && before != "return" &&
                          !IsKeywordCall(before));
      if (!type_shaped) continue;
    } else {
      continue;
    }
    size_t after_params = SkipGroup(toks, i, "(", ")");
    // Walk qualifiers to the terminator.
    bool is_noexcept = false;
    bool pool_safe = false;
    size_t j = after_params;
    size_t terminator = toks.size();
    int steps = 0;
    while (j < toks.size() && steps < 32) {
      const std::string& q = toks[j].text;
      if (q == "noexcept") {
        is_noexcept = true;
        ++j;
      } else if (q == "CFL_POOL_SAFE") {
        pool_safe = true;
        ++j;
      } else if (q == "(") {  // noexcept(...), attribute macros
        j = SkipGroup(toks, j, "(", ")");
      } else if (q == ";" || q == "{" || q == "=" || q == ":") {
        terminator = j;
        break;
      } else if (q == ")" || q == "}" || q == ",") {
        terminator = toks.size();  // expression context, not a declarator
        break;
      } else {
        ++j;  // const, override, final, &, &&, ->, trailing types
      }
      ++steps;
    }
    if (terminator >= toks.size()) continue;
    const std::string& term = toks[terminator].text;
    if (term == "=" ) continue;  // `= delete` / `= default` / initializer
    bool is_def = term == "{" || term == ":";
    if (term == ";" && after_params == i + 1 + 1 && !is_noexcept &&
        !pool_safe) {
      // `Name();` with empty parens and no qualifiers: could be a call
      // statement as easily as a declaration; too ambiguous to index.
      // (Real declarations in this tree always have parameters or
      // qualifiers.) Skip unless preceded by `::` (out-of-line def ref).
    }
    FuncDecl d;
    d.file_rel = af.rel;
    d.line = name.line;
    d.is_definition = is_def;
    d.is_noexcept = is_noexcept;
    d.pool_safe = pool_safe;
    index.functions[name.text].push_back(d);
  }
}

// Collects names of variables/parameters/members declared as TaskPool.
void IndexPoolVars(const AnalyzedFile& af, ProgramIndex& index) {
  const std::vector<Token>& toks = af.toks;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "TaskPool") continue;
    if (i > 0 && (toks[i - 1].text == "class" || toks[i - 1].text == "struct"))
      continue;
    size_t j = i + 1;
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const"))
      ++j;
    if (j < toks.size() && IsIdent(toks[j])) {
      index.pool_vars.insert(toks[j].text);
    }
  }
}

// Reads the counter field names out of the stats structs. Field lists are
// taken from EnumStats and CpiBuildStats in src/obs/stats.h — per-call
// recording counters that must vanish under -DCFL_STATS=OFF. (MatchStats
// summary fields are assigned at merge points that are themselves gated,
// and share names with always-on MatchResult counters, so they are
// deliberately not in the set.)
void IndexStatsFields(const AnalyzedFile& af, ProgramIndex& index) {
  if (af.rel.find("src/obs/") != 0) return;
  std::vector<ClassInfo> classes = FindClasses(af.toks);
  for (const ClassInfo& cls : classes) {
    if (cls.name != "EnumStats" && cls.name != "CpiBuildStats") continue;
    size_t i = cls.body_begin;
    std::vector<size_t> decl;  // token indices of the current declaration
    while (i < cls.body_end) {
      const std::string& t = af.toks[i].text;
      if (t == "{") {  // method body / brace initializer
        i = SkipGroup(af.toks, i, "{", "}");
        decl.clear();
        continue;
      }
      if (t == "(") {  // function declaration — not a data member
        i = SkipGroup(af.toks, i, "(", ")");
        decl.push_back(0);  // poison: decl contained parens
        continue;
      }
      if (t == ";") {
        // Member name: the identifier before `=` if present, else the last
        // identifier of the declaration.
        bool poisoned = false;
        size_t name_at = 0;
        bool have = false;
        for (size_t d : decl) {
          if (d == 0) poisoned = true;
        }
        if (!poisoned) {
          for (size_t d : decl) {
            if (af.toks[d].text == "=") break;
            if (IsIdent(af.toks[d])) {
              name_at = d;
              have = true;
            }
          }
          if (have) index.stats_fields.insert(af.toks[name_at].text);
        }
        decl.clear();
        ++i;
        continue;
      }
      decl.push_back(i);
      ++i;
    }
  }
}

// ---- rule: layering -----------------------------------------------------

void CheckLayering(const std::vector<AnalyzedFile>& files,
                   std::vector<Diagnostic>& diags) {
  // Module DAG over the include edges.
  std::map<std::string, std::vector<Include>> project_includes;
  for (const AnalyzedFile& af : files) {
    if (af.module.empty()) continue;
    for (const Include& inc : ExtractIncludes(af.src)) {
      if (!inc.quoted) continue;
      std::string dep = ModuleOfInclude(inc.path);
      if (dep.empty()) continue;  // not a project module path
      if (AllowedDeps().count(dep) == 0 && dep != "validate") continue;
      project_includes[af.rel].push_back(inc);
      if (DepAllowed(af.module, dep)) continue;
      if (Allowed(af.src, kLayering, inc.line)) continue;
      bool known = AllowedDeps().count(af.module) != 0;
      diags.push_back(
          {af.src.path, inc.line, inc.col, kLayering,
           known ? ("module '" + af.module + "' must not include '" +
                    inc.path + "' (module '" + dep +
                    "') — layering back-edge; the DAG is check < obs < "
                    "graph < {gen,decomp} < cpi < order < validate < match "
                    "< {baseline,parallel,harness}")
                 : ("module '" + af.module +
                    "' is not in the layering DAG — add it to AllowedDeps() "
                    "in tools/cfl_analyze.cc (and DESIGN.md §9)")});
    }
  }

  // File-level include cycles (covers within-module cycles the DAG check
  // cannot see). Nodes are repo-relative paths under src/.
  std::map<std::string, const AnalyzedFile*> by_rel;
  for (const AnalyzedFile& af : files) by_rel[af.rel] = &af;
  std::map<std::string, std::vector<std::string>> edges;
  for (const AnalyzedFile& af : files) {
    for (const Include& inc : ExtractIncludes(af.src)) {
      if (!inc.quoted) continue;
      std::string target = "src/" + inc.path;
      if (by_rel.count(target) != 0) edges[af.rel].push_back(target);
    }
  }
  // Iterative DFS with colors; report each cycle once (at its first edge).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& n) {
    color[n] = 1;
    stack.push_back(n);
    for (const std::string& m : edges[n]) {
      if (color[m] == 1) {
        // Cycle: stack suffix from m to n.
        auto at = std::find(stack.begin(), stack.end(), m);
        std::string chain;
        for (auto it = at; it != stack.end(); ++it) chain += *it + " -> ";
        chain += m;
        if (reported.insert(chain).second) {
          const AnalyzedFile* af = by_rel[n];
          int line = 1, col = 1;
          for (const Include& inc : ExtractIncludes(af->src)) {
            if ("src/" + inc.path == m) {
              line = inc.line;
              col = inc.col;
              break;
            }
          }
          if (!Allowed(af->src, kLayering, line)) {
            diags.push_back({af->src.path, line, col, kLayering,
                             "include cycle: " + chain});
          }
        }
      } else if (color[m] == 0) {
        dfs(m);
      }
    }
    stack.pop_back();
    color[n] = 2;
  };
  for (const AnalyzedFile& af : files) {
    if (color[af.rel] == 0) dfs(af.rel);
  }
}

// ---- rule: span-escape --------------------------------------------------

// True if the token range contains `std :: span` (always) or
// `std :: string_view` (only when string_view_too). Method returns audit
// span only: `std::string_view name() const` over a literal or a stable
// string member is the dominant safe accessor idiom, while a returned span
// almost always aliases arena storage. Members audit both: a cached
// string_view member dangles exactly like a span member.
bool ContainsViewType(const std::vector<Token>& toks, size_t begin,
                      size_t end, bool string_view_too, size_t* at) {
  for (size_t i = begin; i + 2 < end; ++i) {
    if (toks[i].text == "std" && toks[i + 1].text == "::" &&
        (toks[i + 2].text == "span" ||
         (string_view_too && toks[i + 2].text == "string_view"))) {
      *at = i;
      return true;
    }
  }
  return false;
}

void CheckSpanEscape(const AnalyzedFile& af, const ProgramIndex& index,
                     std::vector<Diagnostic>& diags) {
  if (af.module.empty()) return;  // src/ only
  std::vector<ClassInfo> classes = FindClasses(af.toks);
  for (const ClassInfo& cls : classes) {
    if (cls.marked) continue;  // immutable owner: views cannot dangle
    size_t i = cls.body_begin;
    size_t decl_start = i;
    while (i < cls.body_end) {
      const std::string& t = af.toks[i].text;
      if (t == "{") {  // method body, nested class, brace initializer
        i = SkipGroup(af.toks, i, "{", "}");
        decl_start = i;
        continue;
      }
      if (t == "(" && i > decl_start &&
          af.toks[i - 1].text == "CFL_SPAN_INTO") {
        // Annotation arguments, not a function declarator.
        i = SkipGroup(af.toks, i, "(", ")");
        continue;
      }
      if (t != ";" && t != "(") {
        ++i;
        continue;
      }
      // Declaration span is [decl_start, i); for a function declarator the
      // view check covers only the return type (tokens before the name).
      size_t decl_end = i;
      bool is_function = t == "(";
      if (is_function) decl_end = i > decl_start ? i - 1 : decl_start;
      size_t view_at = 0;
      bool has_view = ContainsViewType(af.toks, decl_start, decl_end,
                                       /*string_view_too=*/!is_function,
                                       &view_at);
      // CFL_SPAN_INTO(Owner) annotation anywhere in the declaration.
      std::string span_owner;
      bool has_annotation = false;
      for (size_t d = decl_start; d + 2 < i; ++d) {
        if (af.toks[d].text == "CFL_SPAN_INTO" &&
            af.toks[d + 1].text == "(") {
          has_annotation = true;
          span_owner = af.toks[d + 2].text;
        }
      }
      if (has_view) {
        const Token& vt = af.toks[view_at];
        bool allowed = Allowed(af.src, kSpanEscape, vt.line);
        bool owner_ok = false;
        std::string why;
        if (has_annotation) {
          auto it = index.classes.find(span_owner);
          if (it != index.classes.end() && it->second) {
            owner_ok = true;
          } else {
            why = "CFL_SPAN_INTO names '" + span_owner +
                  "', which is not CFL_IMMUTABLE_AFTER_BUILD anywhere in "
                  "the program";
          }
        } else {
          why = is_function
                    ? "method returns a view from a class that is not "
                      "CFL_IMMUTABLE_AFTER_BUILD — the referent may be "
                      "rebuilt under the caller"
                    : "view-typed member of a class that is not "
                      "CFL_IMMUTABLE_AFTER_BUILD — it can outlive a reused "
                      "scratch buffer or rebuilt arena; annotate with "
                      "CFL_SPAN_INTO(<frozen owner>) "
                      "(check/analyze_annotations.h) or justify with an "
                      "allow";
        }
        if (!allowed && !owner_ok) {
          diags.push_back({af.src.path, vt.line, vt.col, kSpanEscape,
                           "in class '" + cls.name + "': " + why});
        }
      }
      // Advance past the declarator.
      if (is_function) {
        size_t j = SkipGroup(af.toks, i, "(", ")");
        while (j < cls.body_end && af.toks[j].text != ";" &&
               af.toks[j].text != "{") {
          if (af.toks[j].text == "(")
            j = SkipGroup(af.toks, j, "(", ")");
          else
            ++j;
        }
        if (j < cls.body_end && af.toks[j].text == "{")
          j = SkipGroup(af.toks, j, "{", "}");
        else if (j < cls.body_end)
          ++j;
        i = j;
      } else {
        ++i;
      }
      decl_start = i;
    }
  }
}

// ---- rule: narrowing ----------------------------------------------------

bool InNarrowingScope(const std::string& rel) {
  return rel.find("src/cpi/") == 0 || rel.find("src/match/") == 0 ||
         rel.find("src/parallel/") == 0;
}

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Size/offset-shaped subexpression: `.size(`, or an arena/offset member.
bool RangeLooksLikeIndexExpr(const std::vector<Token>& toks, size_t begin,
                             size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const std::string& t = toks[i].text;
    if (t == "size" && i + 1 < end && toks[i + 1].text == "(" && i > begin &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->"))
      return true;
    if (EndsWith(t, "offsets_") || EndsWith(t, "start_") ||
        EndsWith(t, "arena_"))
      return true;
  }
  return false;
}

bool RangeContains(const std::vector<Token>& toks, size_t begin, size_t end,
                   std::string_view word) {
  for (size_t i = begin; i < end; ++i) {
    if (toks[i].text == word) return true;
  }
  return false;
}

void CheckNarrowing(const AnalyzedFile& af, std::vector<Diagnostic>& diags) {
  if (!InNarrowingScope(af.rel)) return;
  const std::vector<Token>& toks = af.toks;
  for (size_t i = 0; i + 4 < toks.size(); ++i) {
    // static_cast<uint32_t>(<size/offset expr>)
    if (toks[i].text == "static_cast" && toks[i + 1].text == "<" &&
        toks[i + 2].text == "uint32_t" && toks[i + 3].text == ">" &&
        toks[i + 4].text == "(") {
      size_t close = SkipGroup(toks, i + 4, "(", ")");
      if (RangeLooksLikeIndexExpr(toks, i + 5, close - 1) &&
          !Allowed(af.src, kNarrowing, toks[i].line)) {
        diags.push_back(
            {af.src.path, toks[i].line, toks[i].col, kNarrowing,
             "unchecked 64->32 narrowing of a size/offset expression — use "
             "cfl::CheckedU32 (check/narrow.h) or CheckedCandidateCount "
             "(match/enumerator.h) so truncation fails loudly"});
      }
      continue;
    }
    // <32-bit type> name = <expr containing .size()>;
    if ((toks[i].text == "uint32_t" || toks[i].text == "int32_t" ||
         toks[i].text == "int" || toks[i].text == "unsigned") &&
        IsIdent(toks[i + 1]) && toks[i + 2].text == "=") {
      // RHS ends at the first top-level `;`, `,`, `)` or `{` so default
      // arguments and initializer lists do not bleed into the next
      // declaration.
      size_t end = i + 3;
      while (end < toks.size() && toks[end].text != ";" &&
             toks[end].text != "," && toks[end].text != ")" &&
             toks[end].text != "{") {
        if (toks[end].text == "(")
          end = SkipGroup(toks, end, "(", ")") - 1;
        ++end;
      }
      if (RangeLooksLikeIndexExpr(toks, i + 3, end) &&
          !RangeContains(toks, i + 3, end, "CheckedU32") &&
          !RangeContains(toks, i + 3, end, "CheckedCandidateCount") &&
          !Allowed(af.src, kNarrowing, toks[i].line)) {
        diags.push_back(
            {af.src.path, toks[i].line, toks[i].col, kNarrowing,
             "implicit 64->32 narrowing: " + toks[i].text + " " +
                 toks[i + 1].text +
                 " initialized from a size/offset expression — route it "
                 "through cfl::CheckedU32 (check/narrow.h)"});
      }
    }
  }
}

// ---- rule: worker-noexcept ----------------------------------------------

// Merged view of a function across all decls/defs.
struct FuncSummary {
  bool known = false;
  bool is_noexcept = false;
  bool pool_safe = false;
  bool defined_in_parallel = false;
  std::string def_file;
  int def_line = 0;
};

FuncSummary Summarize(const ProgramIndex& index, const std::string& name) {
  FuncSummary s;
  auto it = index.functions.find(name);
  if (it == index.functions.end()) return s;
  s.known = true;
  for (const FuncDecl& d : it->second) {
    if (d.is_noexcept) s.is_noexcept = true;
    if (d.pool_safe) s.pool_safe = true;
    if (d.file_rel.find("src/parallel/") == 0) {
      s.defined_in_parallel = true;
      if (s.def_file.empty() || d.is_definition) {
        s.def_file = d.file_rel;
        s.def_line = d.line;
      }
    }
  }
  return s;
}

// Token range of the body of function `name` in this file ({...} after the
// declarator), or (0,0) when not found / declaration only.
std::pair<size_t, size_t> FindFunctionBody(const std::vector<Token>& toks,
                                           const std::string& name) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != name || toks[i + 1].text != "(") continue;
    size_t j = SkipGroup(toks, i + 1, "(", ")");
    // Walk qualifiers/initializer list to the body.
    while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
      if (toks[j].text == "(")
        j = SkipGroup(toks, j, "(", ")");
      else
        ++j;
    }
    if (j < toks.size() && toks[j].text == "{") {
      return {j + 1, SkipGroup(toks, j, "{", "}") - 1};
    }
  }
  return {0, 0};
}

void CheckWorkerNoexcept(const AnalyzedFile& af, const ProgramIndex& index,
                         std::vector<Diagnostic>& diags) {
  if (af.module.empty()) return;  // src/ only
  const std::vector<Token>& toks = af.toks;

  // (a) TaskPool internals: a task is invoked only through InvokeTask, and
  // the out-of-boundary functions are noexcept.
  bool is_pool_impl = false;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text == "TaskPool" && toks[i + 1].text == "::" &&
        (toks[i + 2].text == "WorkerLoop" || toks[i + 2].text == "Submit" ||
         toks[i + 2].text == "InvokeTask")) {
      is_pool_impl = true;
      break;
    }
  }
  if (is_pool_impl) {
    auto invoke_task = FindFunctionBody(toks, "InvokeTask");
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "task" || toks[i + 1].text != "(") continue;
      if (i >= invoke_task.first && i < invoke_task.second) continue;
      if (Allowed(af.src, kWorkerNoexcept, toks[i].line)) continue;
      diags.push_back(
          {af.src.path, toks[i].line, toks[i].col, kWorkerNoexcept,
           "TaskPool invokes a task directly — route it through InvokeTask "
           "so an escaped exception fails fast with context instead of "
           "std::terminate / stranding a ForkJoin latch"});
    }
    for (const char* fn : {"InvokeTask", "WorkerLoop"}) {
      FuncSummary s = Summarize(index, fn);
      if (!s.known || s.is_noexcept) continue;
      // Report at this file's mention of the function (once).
      for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].text != fn) continue;
        if (Allowed(af.src, kWorkerNoexcept, toks[i].line)) break;
        diags.push_back(
            {af.src.path, toks[i].line, toks[i].col, kWorkerNoexcept,
             std::string("TaskPool::") + fn +
                 " must be noexcept — it runs on the worker outside the "
                 "InvokeTask boundary, where an exception is an immediate "
                 "std::terminate with no context"});
        break;
      }
    }
  }

  // (b) Task-lambda audit: functions called from a lambda handed to
  // `<pool>.Submit(...)` or `ForkJoin(...)` that are defined in
  // src/parallel/ must be noexcept or CFL_POOL_SAFE.
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    size_t open = 0;  // the call's '('
    if (toks[i].text == "ForkJoin" && toks[i + 1].text == "(") {
      open = i + 1;
    } else if (IsIdent(toks[i]) && index.pool_vars.count(toks[i].text) != 0) {
      size_t j = i + 1;
      if (toks[j].text == "." || (toks[j].text == "-" &&
                                  j + 1 < toks.size() &&
                                  toks[j + 1].text == ">")) {
        j += toks[j].text == "." ? 1 : 2;
      } else {
        continue;
      }
      if (j + 1 >= toks.size() || toks[j].text != "Submit" ||
          toks[j + 1].text != "(")
        continue;
      open = j + 1;
    } else {
      continue;
    }
    size_t call_end = SkipGroup(toks, open, "(", ")");
    // The lambda argument: the first '[' at the call's top level, then the
    // first '{' after its capture and parameter list.
    size_t k = open + 1;
    while (k < call_end && toks[k].text != "[") {
      if (toks[k].text == "(")
        k = SkipGroup(toks, k, "(", ")");
      else
        ++k;
    }
    if (k >= call_end) continue;
    k = SkipGroup(toks, k, "[", "]");
    while (k < call_end && toks[k].text != "{") {
      if (toks[k].text == "(")
        k = SkipGroup(toks, k, "(", ")");
      else
        ++k;
    }
    if (k >= call_end) continue;
    size_t body_begin = k + 1;
    size_t body_end = SkipGroup(toks, k, "{", "}") - 1;
    for (size_t c = body_begin; c + 1 < body_end; ++c) {
      if (!IsIdent(toks[c]) || toks[c + 1].text != "(") continue;
      const std::string& callee = toks[c].text;
      if (IsKeywordCall(callee) || LooksLikeMacro(callee)) continue;
      if (!std::isupper(static_cast<unsigned char>(callee[0])))
        continue;  // project functions are PascalCase; locals are not
      if (c > body_begin) {
        const std::string& prev = toks[c - 1].text;
        if (prev == "." || prev == "::" || prev == ">") continue;  // method
      }
      FuncSummary s = Summarize(index, callee);
      if (!s.known || !s.defined_in_parallel) continue;
      if (s.is_noexcept || s.pool_safe) continue;
      if (Allowed(af.src, kWorkerNoexcept, toks[c].line)) continue;
      diags.push_back(
          {af.src.path, toks[c].line, toks[c].col, kWorkerNoexcept,
           "'" + callee + "' (defined in " + s.def_file +
               ") is called from a pool task but is neither noexcept nor "
               "CFL_POOL_SAFE — the parallel layer's own helpers must not "
               "throw across the worker boundary"});
    }
  }
}

// ---- rule: stats-gate ---------------------------------------------------

void CheckStatsGate(const AnalyzedFile& af, const ProgramIndex& index,
                    std::vector<Diagnostic>& diags) {
  if (af.module.empty() || af.rel.find("src/obs/") == 0) return;
  const std::vector<Token>& toks = af.toks;

  // Token ranges covered by CFL_STATS_ONLY(...).
  std::vector<std::pair<size_t, size_t>> gated;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text == "CFL_STATS_ONLY" && toks[i + 1].text == "(") {
      gated.emplace_back(i + 2, SkipGroup(toks, i + 1, "(", ")") - 1);
    }
  }
  auto in_gate = [&](size_t i) {
    for (const auto& g : gated) {
      if (i >= g.first && i < g.second) return true;
    }
    return false;
  };

  static const std::set<std::string> kMutatingMethods = {
      "push_back", "resize", "clear",  "assign",
      "emplace_back", "reserve", "shrink_to_fit", "pop_back"};

  for (size_t i = 1; i < toks.size(); ++i) {
    if (index.stats_fields.count(toks[i].text) == 0) continue;
    const std::string& prev = toks[i - 1].text;
    bool member_access =
        prev == "." || (prev == ">" && i >= 2 && toks[i - 2].text == "-");
    if (!member_access) continue;

    // Skip subscript groups after the field: stats.generated[u] += ...
    size_t j = i + 1;
    while (j < toks.size() && toks[j].text == "[")
      j = SkipGroup(toks, j, "[", "]");
    bool mutation = false;
    std::string how;
    if (j + 1 < toks.size()) {
      const std::string& a = toks[j].text;
      const std::string& b = toks[j + 1].text;
      if (a == "=" && b != "=") {
        mutation = true;
        how = "assignment";
      } else if ((a == "+" || a == "-" || a == "*" || a == "/" || a == "|" ||
                  a == "&" || a == "^") &&
                 b == "=") {
        mutation = true;
        how = "compound assignment";
      } else if ((a == "+" && b == "+") || (a == "-" && b == "-")) {
        mutation = true;
        how = "increment";
      } else if (a == "." && kMutatingMethods.count(b) != 0 &&
                 j + 2 < toks.size() && toks[j + 2].text == "(") {
        mutation = true;
        how = "." + b + "()";
      }
    }
    if (!mutation) {
      // Prefix ++/--: walk left over the member chain.
      size_t k = i - 1;
      while (k > 0 && (toks[k].text == "." || IsIdent(toks[k]) ||
                       (toks[k].text == ">" && k >= 1 &&
                        toks[k - 1].text == "-") ||
                       toks[k].text == "-"))
        --k;
      if (k >= 1 && ((toks[k].text == "+" && toks[k - 1].text == "+") ||
                     (toks[k].text == "-" && toks[k - 1].text == "-"))) {
        mutation = true;
        how = "increment";
      }
    }
    if (!mutation) continue;
    if (in_gate(i)) continue;
    if (Allowed(af.src, kStatsGate, toks[i].line)) continue;
    diags.push_back(
        {af.src.path, toks[i].line, toks[i].col, kStatsGate,
         "stats counter '" + toks[i].text + "' mutated (" + how +
             ") outside CFL_STATS_ONLY — the site would survive "
             "-DCFL_STATS=OFF and break the bit-identical-hot-path "
             "contract (src/obs/stats.h)"});
  }
}

// ---- concurrency model --------------------------------------------------
//
// Shared token-level model for the lock-order and blocking-under-lock
// rules: every cfl::Mutex member with its declared CFL_LOCK_LEVEL, a
// program-wide variable-name -> type map for the lockable / waitable types
// (built the same way IndexPoolVars types TaskPool variables), and every
// function *definition* with its body token range so acquisitions can be
// attributed to a (class, function) and propagated along the call graph.

struct MutexInfo {
  std::string cls;
  std::string member;
  int level = -1;  // -1: marker missing or malformed
  size_t file_index = 0;
  int line = 0;
  int col = 1;
};

struct FunctionDef {
  size_t file_index = 0;
  std::string cls;  // "" for free functions
  std::string name;
  size_t body_begin = 0;  // first token inside the body braces
  size_t body_end = 0;    // one past the last token inside them
  int line = 0;
};

struct ConcurrencyModel {
  // "Cls::member" -> info, and member name -> set of owning keys (for
  // resolving `MutexLock lock(mu_)` outside the owning class).
  std::map<std::string, MutexInfo> mutexes;
  std::map<std::string, std::set<std::string>> members_by_name;
  // variable / member / parameter name -> possible class types (a name used
  // with different types in different classes maps to the union — the
  // analysis is conservative across the aliases).
  std::map<std::string, std::set<std::string>> var_types;
  std::vector<FunctionDef> defs;
  std::map<std::string, std::vector<size_t>> defs_by_name;
};

bool IsThreadAnnotationsHeader(const AnalyzedFile& af) {
  return af.rel.find("check/thread_annotations.h") != std::string::npos;
}

// Scans class bodies (at member level — nested braces and parens skipped)
// for `Mutex <name> ... ;` members and their CFL_LOCK_LEVEL markers. The
// wrapper's own header is exempt: it defines Mutex, it does not hold one.
void CollectMutexMembers(const std::vector<AnalyzedFile>& files,
                         ConcurrencyModel& model,
                         std::vector<Diagnostic>& diags) {
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const AnalyzedFile& af = files[fi];
    if (af.module.empty() || IsThreadAnnotationsHeader(af)) continue;
    const std::vector<Token>& toks = af.toks;
    for (const ClassInfo& cls : FindClasses(toks)) {
      if (cls.name.empty()) continue;
      size_t i = cls.body_begin;
      while (i < cls.body_end) {
        const std::string& t = toks[i].text;
        if (t == "{") {
          i = SkipGroup(toks, i, "{", "}");
          continue;
        }
        if (t == "(") {
          i = SkipGroup(toks, i, "(", ")");
          continue;
        }
        bool decl_head =
            t == "Mutex" && i + 1 < cls.body_end && IsIdent(toks[i + 1]) &&
            (i == 0 || (toks[i - 1].text != "class" &&
                        toks[i - 1].text != "struct" &&
                        toks[i - 1].text != "friend"));
        if (!decl_head) {
          ++i;
          continue;
        }
        const Token& name = toks[i + 1];
        MutexInfo info;
        info.cls = cls.name;
        info.member = name.text;
        info.file_index = fi;
        info.line = name.line;
        info.col = name.col;
        bool has_marker = false;
        bool bad_arg = false;
        size_t j = i + 2;
        while (j < cls.body_end && toks[j].text != ";") {
          if (toks[j].text == "CFL_LOCK_LEVEL" && j + 2 < cls.body_end &&
              toks[j + 1].text == "(") {
            has_marker = true;
            const std::string& arg = toks[j + 2].text;
            bool numeric = !arg.empty();
            for (char c : arg) {
              if (!std::isdigit(static_cast<unsigned char>(c)))
                numeric = false;
            }
            if (numeric) {
              info.level = std::atoi(arg.c_str());
            } else {
              bad_arg = true;
            }
            j = SkipGroup(toks, j + 1, "(", ")");
            continue;
          }
          if (toks[j].text == "{") {
            j = SkipGroup(toks, j, "{", "}");
            continue;
          }
          if (toks[j].text == "(") {
            j = SkipGroup(toks, j, "(", ")");
            continue;
          }
          ++j;
        }
        const std::string key = cls.name + "::" + name.text;
        if (!has_marker) {
          if (!Allowed(af.src, kLockOrder, name.line)) {
            diags.push_back(
                {af.src.path, name.line, name.col, kLockOrder,
                 "cfl::Mutex member '" + key +
                     "' has no CFL_LOCK_LEVEL(n) — every mutex must "
                     "declare its position in the lock hierarchy "
                     "(check/thread_annotations.h, DESIGN.md §9)"});
          }
        } else if (bad_arg) {
          if (!Allowed(af.src, kLockOrder, name.line)) {
            diags.push_back({af.src.path, name.line, name.col, kLockOrder,
                             "CFL_LOCK_LEVEL on '" + key +
                                 "' must take an integer literal"});
          }
        }
        model.mutexes[key] = info;
        model.members_by_name[name.text].insert(key);
        i = j;
      }
    }
  }
}

// Types whose variables the concurrency rules care about: anything holding
// a Mutex member, plus the waitable primitives from thread_annotations.h
// and the pools. `Mutex` itself is deliberately absent — `Mutex&`
// parameters (CondVar::Wait) are the wrapper's own plumbing.
void CollectVarTypes(const std::vector<AnalyzedFile>& files,
                     ConcurrencyModel& model) {
  std::set<std::string> known = {"CondVar", "TaskPool", "TaskLatch"};
  for (const auto& [key, info] : model.mutexes) known.insert(info.cls);
  for (const AnalyzedFile& af : files) {
    if (af.module.empty() || IsThreadAnnotationsHeader(af)) continue;
    const std::vector<Token>& toks = af.toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (known.count(toks[i].text) == 0) continue;
      if (i > 0 && (toks[i - 1].text == "class" ||
                    toks[i - 1].text == "struct" ||
                    toks[i - 1].text == "enum" ||
                    toks[i - 1].text == "friend"))
        continue;
      size_t j = i + 1;
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*" ||
              toks[j].text == ">" || toks[j].text == "const"))
        ++j;
      if (j < toks.size() && IsIdent(toks[j]) &&
          !IsKeywordCall(toks[j].text)) {
        model.var_types[toks[j].text].insert(toks[i].text);
      }
    }
  }
}

// Records every function *definition* with its body token range. Same
// declarator walk as IndexFunctions, but it resolves the enclosing class
// (out-of-line `Cls::name` qualifier first, innermost containing class
// body otherwise) and follows constructor initializer lists to the body.
void CollectFunctionDefs(const std::vector<AnalyzedFile>& files,
                         ConcurrencyModel& model) {
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const AnalyzedFile& af = files[fi];
    if (af.module.empty()) continue;
    const std::vector<Token>& toks = af.toks;
    std::vector<ClassInfo> classes = FindClasses(toks);
    for (size_t i = 2; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "(") continue;
      const Token& name = toks[i - 1];
      if (!IsIdent(name) || IsKeywordCall(name.text) ||
          LooksLikeMacro(name.text))
        continue;
      std::string cls;
      const std::string& before = toks[i - 2].text;
      if (before == "::" && i >= 3 && IsIdent(toks[i - 3])) {
        cls = toks[i - 3].text;  // Cls::name( — out-of-line definition
        if (cls == "std") continue;
      } else if (before == "~") {
        // Destructor: `~Cls(` inline, or `Cls :: ~ Cls (` out of line.
        if (i >= 4 && toks[i - 3].text == "::" && IsIdent(toks[i - 4])) {
          cls = toks[i - 4].text;
        }
      } else {
        bool type_shaped =
            before == ">" || before == "*" || before == "&" ||
            (IsIdentChar(before[0]) && !IsKeywordCall(before) &&
             before != "return" && before != "else" && before != "do" &&
             before != "case" && !LooksLikeMacro(before));
        if (!type_shaped) continue;
      }
      size_t after_params = SkipGroup(toks, i, "(", ")");
      size_t j = after_params;
      int steps = 0;
      bool found_body = false;
      bool init_list = false;
      while (j < toks.size() && steps++ < 32) {
        const std::string& q = toks[j].text;
        if (q == "(") {
          j = SkipGroup(toks, j, "(", ")");
        } else if (q == "{") {
          found_body = true;
          break;
        } else if (q == ":") {
          init_list = true;
          break;
        } else if (q == ";" || q == "=" || q == ")" || q == "}" ||
                   q == ",") {
          break;
        } else {
          ++j;
        }
      }
      if (init_list) {
        // Constructor initializer list: `member(init)` / `member{init}`
        // groups until a `{` that is NOT a brace-initializer (i.e. not
        // preceded by an identifier) — that `{` is the body.
        ++j;
        while (j < toks.size()) {
          const std::string& q = toks[j].text;
          if (q == "(") {
            j = SkipGroup(toks, j, "(", ")");
            continue;
          }
          if (q == "{") {
            if (j > 0 && IsIdent(toks[j - 1])) {
              j = SkipGroup(toks, j, "{", "}");
              continue;
            }
            found_body = true;
            break;
          }
          if (q == ";") break;  // misparse (bit-field, label) — bail
          ++j;
        }
      }
      if (!found_body || j >= toks.size()) continue;
      FunctionDef d;
      d.file_index = fi;
      d.name = name.text;
      d.line = name.line;
      if (cls.empty()) {
        // Innermost class whose body contains the definition, if any.
        size_t best_span = static_cast<size_t>(-1);
        for (const ClassInfo& c : classes) {
          if (c.name.empty()) continue;
          if (i >= c.body_begin && i < c.body_end &&
              c.body_end - c.body_begin < best_span) {
            best_span = c.body_end - c.body_begin;
            d.cls = c.name;
          }
        }
      } else {
        d.cls = cls;
      }
      d.body_begin = j + 1;
      d.body_end = SkipGroup(toks, j, "{", "}") - 1;
      model.defs_by_name[d.name].push_back(model.defs.size());
      model.defs.push_back(d);
    }
  }
}

// Resolves the mutex variable named in `MutexLock lock(<var>)`: the
// enclosing class's member of that name first, then a program-wide unique
// member name; "" when ambiguous or unknown (the lock still counts as held
// for blocking-under-lock, it just contributes no ordering edges).
std::string ResolveMutexVar(const ConcurrencyModel& model,
                            const std::string& cls, const std::string& var) {
  if (!cls.empty()) {
    std::string key = cls + "::" + var;
    if (model.mutexes.count(key) != 0) return key;
  }
  auto it = model.members_by_name.find(var);
  if (it != model.members_by_name.end() && it->second.size() == 1) {
    return *it->second.begin();
  }
  return "";
}

// ---- rules: lock-order + blocking-under-lock ----------------------------

void CheckLockDiscipline(const std::vector<AnalyzedFile>& files,
                         const ConcurrencyModel& model,
                         std::vector<Diagnostic>& diags) {
  static const std::set<std::string> kSyscalls = {
      "read",    "write",   "pread",   "pwrite",  "poll",
      "accept",  "recv",    "send",    "select",  "connect",
      "recvmsg", "sendmsg", "usleep",  "sleep",   "nanosleep"};

  struct CallUnderLock {
    std::vector<std::string> held;  // known mutex keys live at the call
    size_t callee = 0;              // index into model.defs
    size_t file_index = 0;
    int line = 0;
    int col = 1;
  };
  struct EdgeSite {
    size_t file_index = 0;
    int line = 0;
    int col = 1;
  };

  const size_t n = model.defs.size();
  std::vector<std::set<std::string>> direct(n);
  std::vector<std::set<size_t>> callees(n);
  std::vector<CallUnderLock> deferred;
  std::map<std::pair<std::string, std::string>, EdgeSite> edges;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      size_t fi, int line, int col) {
    edges.emplace(std::make_pair(from, to), EdgeSite{fi, line, col});
  };

  // Resolves a method call `recv.name(...)` to definition indices via the
  // receiver's possible types; a bare call to same-class methods and free
  // functions; a qualified call to that class's definitions.
  auto resolve_typed = [&](const std::set<std::string>& types,
                           const std::string& name,
                           std::vector<size_t>& out) {
    auto it = model.defs_by_name.find(name);
    if (it == model.defs_by_name.end()) return;
    for (size_t d : it->second) {
      if (types.count(model.defs[d].cls) != 0) out.push_back(d);
    }
  };
  auto resolve_bare = [&](const std::string& cls, const std::string& name,
                          std::vector<size_t>& out) {
    auto it = model.defs_by_name.find(name);
    if (it == model.defs_by_name.end()) return;
    for (size_t d : it->second) {
      if (model.defs[d].cls == cls || model.defs[d].cls.empty())
        out.push_back(d);
    }
  };

  for (size_t di = 0; di < n; ++di) {
    const FunctionDef& d = model.defs[di];
    const AnalyzedFile& af = files[d.file_index];
    const std::vector<Token>& toks = af.toks;

    struct LiveLock {
      std::string key;  // "" when unresolved
      int depth = 0;
      int line = 0;
    };
    std::vector<LiveLock> live;
    int depth = 0;

    for (size_t i = d.body_begin; i < d.body_end && i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t == "{") {
        ++depth;
        continue;
      }
      if (t == "}") {
        --depth;
        while (!live.empty() && live.back().depth > depth) live.pop_back();
        continue;
      }
      // RAII acquisition: `MutexLock <var>(<mutex>);`
      if (t == "MutexLock" && i + 2 < d.body_end && IsIdent(toks[i + 1]) &&
          toks[i + 2].text == "(") {
        size_t close = SkipGroup(toks, i + 2, "(", ")");
        std::string var;
        for (size_t a = i + 3; a + 1 < close; ++a) {
          if (IsIdent(toks[a])) var = toks[a].text;
        }
        std::string key = ResolveMutexVar(model, d.cls, var);
        if (!key.empty()) {
          direct[di].insert(key);
          for (const LiveLock& l : live) {
            if (!l.key.empty()) {
              add_edge(l.key, key, d.file_index, toks[i].line, toks[i].col);
            }
          }
        }
        live.push_back({key, depth, toks[i].line});
        i = close - 1;
        continue;
      }
      // Call sites.
      if (!IsIdent(toks[i]) || i + 1 >= d.body_end ||
          toks[i + 1].text != "(")
        continue;
      const std::string& name = toks[i].text;
      if (IsKeywordCall(name) || LooksLikeMacro(name)) continue;

      const std::string& prev = toks[i - 1].text;
      bool is_method = false;
      std::string recv;
      if (prev == ".") {
        if (i >= 2) recv = toks[i - 2].text;
        is_method = true;
      } else if (prev == ">" && i >= 3 && toks[i - 2].text == "-") {
        recv = toks[i - 3].text;
        is_method = true;
      }

      std::vector<size_t> targets;
      bool blocking = false;
      std::string why;
      if (is_method) {
        auto vt = model.var_types.find(recv);
        const bool typed = vt != model.var_types.end();
        const bool condvar = typed && vt->second.count("CondVar") != 0;
        if (name == "Wait") {
          blocking = true;
          why = condvar ? "CondVar::Wait parks the thread"
                        : "'" + recv + ".Wait' blocks until signalled";
        } else if (name == "join") {
          blocking = true;
          why = "join blocks until the thread exits";
        } else if (typed && name == "Submit" &&
                   vt->second.count("TaskPool") != 0) {
          blocking = true;
          why = "TaskPool::Submit takes the pool mutex to queue work";
        }
        // CondVar::Wait releases and re-acquires the mutex it is handed —
        // it is a blocking site, never an ordering edge.
        if (typed && !condvar) resolve_typed(vt->second, name, targets);
      } else if (prev == "::") {
        std::string qual = i >= 2 ? toks[i - 2].text : "";
        if (qual == "std" || qual.empty()) continue;
        std::set<std::string> one = {qual};
        resolve_typed(one, name, targets);
      } else {
        if (kSyscalls.count(name) != 0) {
          blocking = true;
          why = "'" + name + "' is a syscall-shaped blocking call";
        }
        resolve_bare(d.cls, name, targets);
      }

      if (blocking && !live.empty() &&
          !Allowed(af.src, kBlockingUnderLock, toks[i].line)) {
        std::string held = live.back().key.empty() ? "a mutex"
                                                   : "'" + live.back().key +
                                                         "' (locked line " +
                                                         std::to_string(
                                                             live.back()
                                                                 .line) +
                                                         ")";
        diags.push_back({af.src.path, toks[i].line, toks[i].col,
                         kBlockingUnderLock,
                         "blocking call while holding " + held + ": " + why +
                             " — waiting under a lock stalls every other "
                             "acquirer (DESIGN.md §9)"});
      }
      for (size_t tgt : targets) {
        if (tgt == di) continue;  // direct recursion: no new facts
        callees[di].insert(tgt);
        if (!live.empty()) {
          CallUnderLock cu;
          for (const LiveLock& l : live) {
            if (!l.key.empty()) cu.held.push_back(l.key);
          }
          if (!cu.held.empty()) {
            cu.callee = tgt;
            cu.file_index = d.file_index;
            cu.line = toks[i].line;
            cu.col = toks[i].col;
            deferred.push_back(cu);
          }
        }
      }
    }
  }

  // May-acquire fixpoint over the call graph: what can each function end
  // up locking, directly or transitively?
  std::vector<std::set<std::string>> may = direct;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t di = 0; di < n; ++di) {
      for (size_t c : callees[di]) {
        for (const std::string& m : may[c]) {
          if (may[di].insert(m).second) changed = true;
        }
      }
    }
  }
  for (const CallUnderLock& cu : deferred) {
    for (const std::string& acquired : may[cu.callee]) {
      for (const std::string& held : cu.held) {
        add_edge(held, acquired, cu.file_index, cu.line, cu.col);
      }
    }
  }

  // Ordering checks over the acquisition edges.
  auto level_of = [&](const std::string& key) {
    auto it = model.mutexes.find(key);
    return it == model.mutexes.end() ? -1 : it->second.level;
  };
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [edge, site] : edges) {
    const auto& [from, to] = edge;
    const AnalyzedFile& af = files[site.file_index];
    if (from == to) {
      if (!Allowed(af.src, kLockOrder, site.line)) {
        diags.push_back({af.src.path, site.line, site.col, kLockOrder,
                         "mutex '" + from +
                             "' acquired while already held — recursive "
                             "acquisition deadlocks cfl::Mutex"});
      }
      continue;
    }
    adj[from].push_back(to);
    int lf = level_of(from);
    int lt = level_of(to);
    if (lf >= 0 && lt >= 0 && lf >= lt &&
        !Allowed(af.src, kLockOrder, site.line)) {
      diags.push_back(
          {af.src.path, site.line, site.col, kLockOrder,
           "acquires '" + to + "' (CFL_LOCK_LEVEL " + std::to_string(lt) +
               ") while holding '" + from + "' (CFL_LOCK_LEVEL " +
               std::to_string(lf) +
               ") — lock levels must strictly ascend (DESIGN.md §9)"});
    }
  }

  // Cycle detection (grey-set DFS, same scheme as the layering rule).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& m) {
    color[m] = 1;
    stack.push_back(m);
    for (const std::string& nxt : adj[m]) {
      if (color[nxt] == 1) {
        std::string chain = nxt;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          chain = *it + " -> " + chain;
          if (*it == nxt) break;
        }
        if (reported.insert(chain).second) {
          auto site = edges.find(std::make_pair(m, nxt));
          if (site != edges.end()) {
            const AnalyzedFile& af = files[site->second.file_index];
            if (!Allowed(af.src, kLockOrder, site->second.line)) {
              diags.push_back({af.src.path, site->second.line,
                               site->second.col, kLockOrder,
                               "lock-order cycle: " + chain +
                                   " — two threads taking this ring from "
                                   "different entry points deadlock"});
            }
          }
        }
      } else if (color[nxt] == 0) {
        dfs(nxt);
      }
    }
    stack.pop_back();
    color[m] = 2;
  };
  for (const auto& [from, tos] : adj) {
    if (color[from] == 0) dfs(from);
  }
}

// ---- rule: atomic-intent ------------------------------------------------

void CheckAtomicIntent(const std::vector<AnalyzedFile>& files,
                       std::vector<Diagnostic>& diags) {
  static const std::set<std::string> kIntents = {"counter", "flag",
                                                 "publish"};
  static const std::set<std::string> kRmwOps = {
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "compare_exchange_weak",
      "compare_exchange_strong"};

  struct DeclaredAtomic {
    std::string intent;
    size_t file_index = 0;
    int line = 0;
  };
  std::map<std::string, DeclaredAtomic> declared;

  // Phase 1: declarations. `std :: atomic < ... >` followed by an
  // identifier is a storage declaration (followed by `&`/`*` it is a
  // reference or pointer — the storage is annotated where it lives).
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const AnalyzedFile& af = files[fi];
    if (af.module.empty()) continue;
    const std::vector<Token>& toks = af.toks;
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].text != "std" || toks[i + 1].text != "::" ||
          toks[i + 2].text != "atomic" || toks[i + 3].text != "<")
        continue;
      size_t close = SkipGroup(toks, i + 3, "<", ">");
      if (close >= toks.size()) continue;
      const Token& name = toks[close];
      if (name.text == "&" || name.text == "*") {
        i = close;
        continue;
      }
      if (!IsIdent(name) || IsKeywordCall(name.text)) {
        i = close - 1;
        continue;
      }
      // Scan the rest of the declaration for the intent marker; a `,` or
      // `)` terminator means a non-member context (template argument,
      // cast) — skip those.
      std::string intent;
      bool terminated = false;
      size_t j = close + 1;
      int guard = 0;
      while (j < toks.size() && guard++ < 64) {
        const std::string& t = toks[j].text;
        if (t == "(") {
          if (toks[j - 1].text == "CFL_ATOMIC_INTENT" &&
              j + 1 < toks.size()) {
            intent = toks[j + 1].text;
          }
          j = SkipGroup(toks, j, "(", ")");
          continue;
        }
        if (t == "{") {
          j = SkipGroup(toks, j, "{", "}");
          continue;
        }
        if (t == ";") {
          terminated = true;
          break;
        }
        if (t == "," || t == ")") break;
        ++j;
      }
      i = close;
      if (!terminated) continue;
      if (intent.empty()) {
        if (!Allowed(af.src, kAtomicIntent, name.line)) {
          diags.push_back(
              {af.src.path, name.line, name.col, kAtomicIntent,
               "std::atomic '" + name.text +
                   "' declares no CFL_ATOMIC_INTENT(counter|flag|publish) "
                   "— say what the atomic is for so use sites can be "
                   "checked (check/thread_annotations.h, DESIGN.md §9)"});
        }
        continue;
      }
      if (kIntents.count(intent) == 0) {
        if (!Allowed(af.src, kAtomicIntent, name.line)) {
          diags.push_back({af.src.path, name.line, name.col, kAtomicIntent,
                           "unknown atomic intent '" + intent +
                               "' on '" + name.text +
                               "' — must be counter, flag, or publish"});
        }
        continue;
      }
      auto it = declared.find(name.text);
      if (it != declared.end() && it->second.intent != intent) {
        if (!Allowed(af.src, kAtomicIntent, name.line)) {
          diags.push_back(
              {af.src.path, name.line, name.col, kAtomicIntent,
               "atomic '" + name.text + "' re-declared with intent '" +
                   intent + "' but '" + it->second.intent +
                   "' elsewhere (" + files[it->second.file_index].rel +
                   ":" + std::to_string(it->second.line) +
                   ") — one name, one protocol"});
        }
        continue;
      }
      declared[name.text] = {intent, fi, name.line};
    }
  }

  // Phase 2: use sites. Every load/store/RMW on a declared atomic must
  // spell a memory_order, and the order must implement the intent.
  auto allowed_orders = [](const std::string& intent, bool is_load,
                           bool is_store) -> std::set<std::string> {
    if (intent == "counter") return {"memory_order_relaxed"};
    if (intent == "flag") {
      if (is_load) return {"memory_order_relaxed", "memory_order_acquire"};
      if (is_store) return {"memory_order_relaxed", "memory_order_release"};
      return {"memory_order_relaxed", "memory_order_acquire",
              "memory_order_release", "memory_order_acq_rel"};
    }
    // publish: release the write, acquire the read. RMW success orders may
    // combine; a CAS failure order is an acquire.
    if (is_load) return {"memory_order_acquire"};
    if (is_store) return {"memory_order_release"};
    return {"memory_order_acq_rel", "memory_order_acquire",
            "memory_order_release"};
  };

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const AnalyzedFile& af = files[fi];
    if (af.module.empty()) continue;
    const std::vector<Token>& toks = af.toks;
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
      if (!IsIdent(toks[i])) continue;
      auto it = declared.find(toks[i].text);
      if (it == declared.end()) continue;
      size_t op_at = 0;
      if (toks[i + 1].text == ".") {
        op_at = i + 2;
      } else if (toks[i + 1].text == "-" && toks[i + 2].text == ">") {
        op_at = i + 3;
      } else {
        continue;
      }
      if (op_at + 1 >= toks.size() || toks[op_at + 1].text != "(") continue;
      const std::string& op = toks[op_at].text;
      const bool is_load = op == "load";
      const bool is_store = op == "store";
      const bool is_rmw = kRmwOps.count(op) != 0;
      if (!is_load && !is_store && !is_rmw) continue;
      size_t close = SkipGroup(toks, op_at + 1, "(", ")");
      std::vector<std::string> orders;
      for (size_t a = op_at + 2; a + 1 < close; ++a) {
        if (toks[a].text.rfind("memory_order_", 0) == 0) {
          orders.push_back(toks[a].text);
        }
      }
      const std::string& intent = it->second.intent;
      const Token& site = toks[op_at];
      if (orders.empty()) {
        if (!Allowed(af.src, kAtomicIntent, site.line)) {
          diags.push_back(
              {af.src.path, site.line, site.col, kAtomicIntent,
               "'" + toks[i].text + "." + op +
                   "' defaults to seq_cst — spell the memory_order "
                   "explicitly; intent '" + intent +
                   "' declares what this atomic needs (DESIGN.md §9)"});
        }
        continue;
      }
      std::set<std::string> ok = allowed_orders(intent, is_load, is_store);
      for (const std::string& order : orders) {
        if (ok.count(order) != 0) continue;
        if (Allowed(af.src, kAtomicIntent, site.line)) continue;
        diags.push_back({af.src.path, site.line, site.col, kAtomicIntent,
                         "'" + toks[i].text + "." + op + "' uses " + order +
                             " but the atomic's declared intent is '" +
                             intent + "' — " +
                             (intent == "publish"
                                  ? "publication needs release stores and "
                                    "acquire loads"
                                  : intent == "counter"
                                        ? "counters are relaxed-only"
                                        : "flags never need more than "
                                          "acquire/release")});
      }
    }
  }
}

// ---- compile_commands.json ----------------------------------------------

// Minimal extraction of the "directory" and "file" string values of each
// entry. Good enough for every CMake-emitted database.
bool ParseCompDb(const fs::path& path, std::vector<fs::path>& out,
                 std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot read " + path.string();
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  auto read_string = [&](size_t& i) {
    std::string s;
    ++i;  // opening quote
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        char e = text[i + 1];
        if (e == 'n')
          s += '\n';
        else if (e == 't')
          s += '\t';
        else if (e == 'u') {
          i += 4;  // skip the hex digits; exotic paths are out of scope
        } else
          s += e;
        i += 2;
      } else {
        s += text[i++];
      }
    }
    ++i;  // closing quote
    return s;
  };

  std::string key, directory, file;
  bool expect_value = false;
  for (size_t i = 0; i < text.size();) {
    char c = text[i];
    if (c == '"') {
      std::string s = read_string(i);
      if (expect_value) {
        if (key == "directory") directory = s;
        if (key == "file") file = s;
        expect_value = false;
      } else {
        key = s;
      }
      continue;
    }
    if (c == ':') expect_value = true;
    if (c == '{') directory = file = "";
    if (c == '}') {
      if (!file.empty()) {
        fs::path p(file);
        if (p.is_relative() && !directory.empty()) p = fs::path(directory) / p;
        out.push_back(p);
      }
      file = "";
    }
    ++i;
  }
  return true;
}

// ---- driver -------------------------------------------------------------

int Usage(int code) {
  std::cerr
      << "usage: cfl_analyze --root DIR [--compdb FILE] [--json]\n"
      << "  Whole-program analysis of every .h/.cc/.cpp under DIR/src.\n"
      << "  --compdb cross-checks the scan against a compile_commands.json\n"
      << "  (every TU under DIR/src must be covered).\n"
      << "  --json emits one JSON document instead of gcc-style lines.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path compdb;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return Usage(2);
      root = argv[++i];
    } else if (arg == "--compdb") {
      if (i + 1 >= argc) return Usage(2);
      compdb = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else {
      std::cerr << "cfl_analyze: unknown argument " << arg << "\n";
      return Usage(2);
    }
  }

  std::error_code ec;
  fs::path src_dir = root / "src";
  if (!fs::is_directory(src_dir, ec)) {
    std::cerr << "cfl_analyze: no src/ under " << root << "\n";
    return 2;
  }
  std::vector<std::string> paths;
  for (fs::recursive_directory_iterator it(src_dir, ec), end;
       it != end && !ec; it.increment(ec)) {
    if (it->is_regular_file(ec) &&
        cfl::lint::HasLintableExtension(it->path())) {
      paths.push_back(it->path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<AnalyzedFile> files;
  files.reserve(paths.size());
  const std::string root_prefix =
      fs::path(root).lexically_normal().generic_string();
  for (const std::string& p : paths) {
    AnalyzedFile af;
    if (!cfl::lint::LoadSourceFile(p, fs::path(p), af.src)) {
      std::cerr << "cfl_analyze: cannot read " << p << "\n";
      return 2;
    }
    std::string rel =
        fs::path(p).lexically_proximate(root).generic_string();
    af.rel = rel;
    af.module = ModuleOf(rel);
    af.toks = Tokenize(af.src);
    files.push_back(std::move(af));
  }

  std::vector<Diagnostic> diags;

  // compile_commands cross-check: every TU the build compiles under src/
  // must be in the scan, so "clean" provably covers the whole program.
  if (!compdb.empty()) {
    std::vector<fs::path> tus;
    std::string error;
    if (!ParseCompDb(compdb, tus, error)) {
      std::cerr << "cfl_analyze: --compdb: " << error << "\n";
      return 2;
    }
    std::set<std::string> scanned;
    for (const AnalyzedFile& af : files) {
      scanned.insert(fs::weakly_canonical(af.src.path, ec).string());
    }
    fs::path canon_src = fs::weakly_canonical(src_dir, ec);
    for (const fs::path& tu : tus) {
      fs::path canon = fs::weakly_canonical(tu, ec);
      auto rel = canon.lexically_proximate(canon_src).generic_string();
      if (rel.compare(0, 2, "..") == 0) continue;  // tools/tests/bench TU
      if (scanned.count(canon.string()) == 0) {
        diags.push_back({canon.string(), 1, 1, kLayering,
                         "translation unit is in compile_commands.json but "
                         "was not scanned — analyzer coverage hole"});
      }
    }
  }

  // Malformed allow-directives.
  for (const AnalyzedFile& af : files) {
    for (const cfl::lint::Allow& a : af.src.allows) {
      if (!a.well_formed) {
        diags.push_back({af.src.path, a.line, 1, kBadAllow, a.problem});
      }
    }
  }

  // Whole-program index.
  ProgramIndex index;
  for (const AnalyzedFile& af : files) {
    for (const ClassInfo& cls : FindClasses(af.toks)) {
      if (cls.name.empty()) continue;
      bool& marked = index.classes[cls.name];
      marked = marked || cls.marked;
    }
    IndexFunctions(af, index);
    IndexPoolVars(af, index);
    IndexStatsFields(af, index);
  }

  // Concurrency model: mutex hierarchy, lockable-variable types, function
  // definitions with body ranges.
  ConcurrencyModel cmodel;
  CollectMutexMembers(files, cmodel, diags);
  CollectVarTypes(files, cmodel);
  CollectFunctionDefs(files, cmodel);

  // Rules.
  CheckLayering(files, diags);
  for (const AnalyzedFile& af : files) {
    CheckSpanEscape(af, index, diags);
    CheckNarrowing(af, diags);
    CheckWorkerNoexcept(af, index, diags);
    CheckStatsGate(af, index, diags);
  }
  CheckLockDiscipline(files, cmodel, diags);
  CheckAtomicIntent(files, diags);

  cfl::lint::PrintDiagnostics("cfl_analyze", diags, files.size(), json);
  return diags.empty() ? 0 : 1;
}
