// cfl_lint: the single-file project-rule linter for the CFL-Match tree.
//
// A deliberately self-contained token-level linter (no libclang, no
// compilation database — it runs anywhere the tree checks out) that walks
// src/, bench/, and tools/ and enforces the rules the concurrency contracts
// depend on. clang-tidy and Clang Thread Safety Analysis check what the
// compiler can see; cfl_lint checks the *project* conventions that make
// those analyses sound in the first place — e.g. TSA is useless against a
// raw std::mutex member it has no annotations for. Whole-program rules that
// need every translation unit at once (module layering, span lifetimes,
// narrowing, worker-boundary noexcept, stats gating) live in the sibling
// tools/cfl_analyze.cc; the lexer and diagnostic model are shared
// (tools/lint_common.h).
//
// Rules (ids are what allow-comments and diagnostics use):
//   raw-assert       `assert(` outside src/check/ — use CFL_DCHECK, which
//                    prints context instead of aborting mutely.
//   raw-mutex        std::mutex / std::condition_variable (and friends,
//                    incl. lock_guard/unique_lock/scoped_lock) outside
//                    src/check/thread_annotations.h — use the annotated
//                    cfl::Mutex / cfl::MutexLock / cfl::CondVar wrappers so
//                    Thread Safety Analysis can see the critical sections.
//   mutable-member   `mutable` anywhere — caches invisible to const are how
//                    "immutable" structures grow data races; every use needs
//                    an explicit justification via an allow-comment.
//   immutable-class  violations inside a CFL_IMMUTABLE_AFTER_BUILD class:
//                    non-const public methods (constructors, destructors,
//                    and assignment operators excepted), mutable members.
//   const-cast       `const_cast` anywhere — piercing constness voids the
//                    shared-read contracts.
//   banned-include   library code (src/) including headers it must not:
//                    <mutex>/<condition_variable>/<shared_mutex> outside
//                    thread_annotations.h, <thread> outside src/parallel/,
//                    <iostream> outside src/check/ (diagnostics go through
//                    check.h or the harness).
//   raw-clock        `steady_clock` outside src/obs/ and src/harness/ —
//                    wall-clock reads go through the cfl::obs facade
//                    (src/obs/clock.h) so every timer is reconcilable with
//                    the MatchStats phase accounting.
//   bad-allow        a malformed escape hatch: unknown rule id or missing
//                    reason. Allow-comments must carry their justification.
//
// Escape hatch: `// cfl-lint: allow(<rule>) <reason>` on the offending line
// or the line directly above suppresses that one rule there. The reason is
// mandatory; an unknown rule or empty reason is itself an error, so stale
// or hand-waving suppressions cannot accumulate. (Allow-comments for
// cfl_analyze's rule ids are recognized and left to that tool.)
//
// Exit codes: 0 clean, 1 violations found, 2 usage/IO error — CI gates on
// this (the `lint` job and the `cfl_lint_tree` ctest).
//
// Usage:
//   cfl_lint [--root DIR] [--json] [FILE...]
// With no FILEs, lints every .h/.cc/.cpp under DIR/{src,bench,tools}
// (DIR defaults to the current directory). --json emits the diagnostics as
// one JSON document on stdout instead of gcc-style lines.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "lint_common.h"

namespace {

namespace fs = std::filesystem;
using cfl::lint::Allowed;
using cfl::lint::ClassInfo;
using cfl::lint::Diagnostic;
using cfl::lint::FindClasses;
using cfl::lint::FindStdMember;
using cfl::lint::FindWord;
using cfl::lint::IsIdentChar;
using cfl::lint::kMarker;
using cfl::lint::PathContains;
using cfl::lint::PathEndsWith;
using cfl::lint::SkipGroup;
using cfl::lint::SourceFile;
using cfl::lint::Token;
using cfl::lint::Tokenize;

using cfl::lint::kBadAllow;
using cfl::lint::kBannedInclude;
using cfl::lint::kConstCast;
using cfl::lint::kImmutableClass;
using cfl::lint::kMutableMember;
using cfl::lint::kRawAssert;
using cfl::lint::kRawClock;
using cfl::lint::kRawMutex;

// Scans one marked class body for contract violations.
void CheckMarkedClass(const SourceFile& f, const std::vector<Token>& toks,
                      const ClassInfo& cls, std::vector<Diagnostic>& diags) {
  auto report = [&](int line, int col, const std::string& msg) {
    if (Allowed(f, kImmutableClass, line)) return;
    diags.push_back({f.path, line, col, kImmutableClass, msg});
  };

  // `mutable` anywhere in the class span (incl. nested aggregates).
  for (size_t i = cls.body_begin; i < cls.body_end; ++i) {
    if (toks[i].text == "mutable") {
      report(toks[i].line, toks[i].col,
             "mutable member inside " + std::string(kMarker) + " class '" +
                 cls.name + "'");
    }
  }

  // Top-level declarations: public non-const methods.
  std::string access = cls.is_struct ? "public" : "private";
  size_t decl_start = cls.body_begin;
  size_t i = cls.body_begin;
  while (i < cls.body_end) {
    const std::string& t = toks[i].text;
    if (t == "{") {  // nested class/enum body or brace initializer
      i = SkipGroup(toks, i, "{", "}");
      decl_start = i;
      continue;
    }
    if ((t == "public" || t == "protected" || t == "private") &&
        i + 1 < cls.body_end && toks[i + 1].text == ":") {
      access = t;
      i += 2;
      decl_start = i;
      continue;
    }
    if (t == ";") {
      decl_start = ++i;
      continue;
    }
    if (t != "(") {
      ++i;
      continue;
    }
    // A '(': possibly a method declaration. Inspect the declaration so far.
    bool exempt = false;
    bool is_initializer = false;
    std::string name = i > decl_start ? toks[i - 1].text : "";
    bool saw_operator = false;
    std::string operator_sym;
    for (size_t d = decl_start; d < i; ++d) {
      const std::string& dt = toks[d].text;
      if (dt == "friend" || dt == "static" || dt == "typedef" ||
          dt == "using") {
        exempt = true;
      } else if (dt == "=") {
        is_initializer = true;  // member initializer, not a declaration
      } else if (dt == "operator") {
        saw_operator = true;
        for (size_t k = d + 1; k < i; ++k) operator_sym += toks[k].text;
      }
    }
    if (is_initializer || name.empty() || name == kMarker ||
        !(IsIdentChar(name[0]) || saw_operator)) {
      // `= static_cast<T>(x)`, macro residue, or expression parens.
      i = SkipGroup(toks, i, "(", ")");
      continue;
    }
    bool is_ctor_or_dtor =
        name == cls.name || (i >= decl_start + 2 && toks[i - 2].text == "~");
    if (saw_operator && operator_sym == "=") exempt = true;  // assignment
    int name_line = toks[i - 1].line;
    int name_col = toks[i - 1].col;
    // Walk the qualifiers after the parameter list.
    size_t j = SkipGroup(toks, i, "(", ")");
    bool is_const = false;
    bool deleted = false;
    size_t terminator = cls.body_end;
    while (j < cls.body_end) {
      const std::string& q = toks[j].text;
      if (q == "const") {
        is_const = true;
        ++j;
      } else if (q == "(") {  // noexcept(...)
        j = SkipGroup(toks, j, "(", ")");
      } else if (q == ";" || q == "{" || q == "=" || q == ":") {
        terminator = j;
        break;
      } else {
        ++j;  // noexcept, override, final, &, &&, ->, attributes, types
      }
    }
    // Consume the rest of the declaration.
    if (terminator < cls.body_end && toks[terminator].text == "=") {
      size_t k = terminator + 1;
      if (k < cls.body_end && toks[k].text == "delete") deleted = true;
      while (k < cls.body_end && toks[k].text != ";") ++k;
      i = k + 1;
    } else if (terminator < cls.body_end && toks[terminator].text == ":") {
      // Constructor initializer list: skip groups until the body.
      size_t k = terminator + 1;
      while (k < cls.body_end && toks[k].text != "{") {
        if (toks[k].text == "(")
          k = SkipGroup(toks, k, "(", ")");
        else if (toks[k].text == "{")
          break;
        else
          ++k;
      }
      i = k < cls.body_end ? SkipGroup(toks, k, "{", "}") : cls.body_end;
    } else if (terminator < cls.body_end && toks[terminator].text == "{") {
      i = SkipGroup(toks, terminator, "{", "}");
    } else {
      i = terminator < cls.body_end ? terminator + 1 : cls.body_end;
    }
    decl_start = i;

    if (exempt || is_ctor_or_dtor || deleted || is_const) continue;
    if (access != "public") continue;
    report(name_line, name_col,
           "non-const public method '" + name + "' on " + kMarker +
               " class '" + cls.name +
               "' — instances are shared read-only across workers");
  }
}

// ---- per-file lint ------------------------------------------------------

struct IncludeBan {
  std::string header;
  std::string unless_fragment;  // path fragment that exempts the file
  std::string hint;
};

void LintFile(const std::string& display_path, const fs::path& file,
              std::vector<Diagnostic>& diags, bool& io_error) {
  SourceFile f;
  if (!cfl::lint::LoadSourceFile(display_path, file, f)) {
    std::cerr << "cfl_lint: cannot read " << display_path << "\n";
    io_error = true;
    return;
  }

  for (const cfl::lint::Allow& a : f.allows) {
    if (!a.well_formed) {
      diags.push_back({f.path, a.line, 1, kBadAllow, a.problem});
    }
  }

  const bool in_check = PathContains(f, "src/check/");
  const bool is_annotations_header =
      PathEndsWith(f, "src/check/thread_annotations.h");
  const bool in_src = PathContains(f, "src/");
  // The two sanctioned clock call sites: the stats layer's facade
  // (obs/clock.h) and the pre-existing harness stopwatch.
  const bool clock_exempt =
      PathContains(f, "src/obs/") || PathContains(f, "src/harness/");

  static const std::vector<std::string> kMutexNames = {
      "mutex",           "recursive_mutex",
      "timed_mutex",     "recursive_timed_mutex",
      "shared_mutex",    "shared_timed_mutex",
      "condition_variable", "condition_variable_any",
      "lock_guard",      "unique_lock",
      "scoped_lock"};

  for (size_t li = 0; li < f.code_lines.size(); ++li) {
    const int line_no = static_cast<int>(li + 1);
    const std::string& line = f.code_lines[li];
    if (f.preproc[li]) continue;  // include rule handles directives below

    if (!in_check && !FindWord(line, "assert").empty() &&
        line.find("assert") != std::string::npos) {
      // Only a *call* counts: `assert` immediately followed by '('.
      for (size_t col : FindWord(line, "assert")) {
        size_t after = col + 6;
        while (after < line.size() &&
               std::isspace(static_cast<unsigned char>(line[after])))
          ++after;
        if (after < line.size() && line[after] == '(' &&
            !Allowed(f, kRawAssert, line_no)) {
          diags.push_back({f.path, line_no, static_cast<int>(col + 1),
                           kRawAssert,
                           "raw assert() — use CFL_DCHECK / CFL_CHECK "
                           "(src/check/check.h) for context on failure"});
          break;
        }
      }
    }

    if (!is_annotations_header) {
      std::string hit = FindStdMember(line, kMutexNames);
      if (!hit.empty() && !Allowed(f, kRawMutex, line_no)) {
        diags.push_back(
            {f.path, line_no, 1, kRawMutex,
             "raw std::" + hit +
                 " — use the annotated cfl::Mutex / cfl::MutexLock / "
                 "cfl::CondVar (src/check/thread_annotations.h) so Thread "
                 "Safety Analysis sees the critical section"});
      }

      std::vector<size_t> mutable_hits = FindWord(line, "mutable");
      if (!mutable_hits.empty() && !Allowed(f, kMutableMember, line_no)) {
        diags.push_back(
            {f.path, line_no, static_cast<int>(mutable_hits[0] + 1),
             kMutableMember,
             "`mutable` — const-invisible state breaks the shared-read "
             "contracts; justify with `// cfl-lint: allow(mutable-member) "
             "<reason>` if this really is private scratch"});
      }

      std::vector<size_t> cast_hits = FindWord(line, "const_cast");
      if (!cast_hits.empty() && !Allowed(f, kConstCast, line_no)) {
        diags.push_back({f.path, line_no, static_cast<int>(cast_hits[0] + 1),
                         kConstCast,
                         "const_cast pierces the immutability contracts"});
      }
    }

    if (!clock_exempt) {
      std::vector<size_t> clock_hits = FindWord(line, "steady_clock");
      if (!clock_hits.empty() && !Allowed(f, kRawClock, line_no)) {
        diags.push_back(
            {f.path, line_no, static_cast<int>(clock_hits[0] + 1), kRawClock,
             "raw steady_clock — wall-clock reads go through cfl::obs "
             "(src/obs/clock.h) or the harness Stopwatch so phase accounting "
             "stays reconcilable with MatchStats"});
      }
    }
  }

  // banned-include: library code only (src/).
  if (in_src) {
    static const std::vector<IncludeBan> kBans = {
        {"mutex", "src/check/thread_annotations.h",
         "use the annotated wrappers from check/thread_annotations.h"},
        {"condition_variable", "src/check/thread_annotations.h",
         "use cfl::CondVar from check/thread_annotations.h"},
        {"shared_mutex", "src/check/thread_annotations.h",
         "use the annotated wrappers from check/thread_annotations.h"},
        {"thread", "src/parallel/",
         "thread management belongs to the parallel layer"},
        {"iostream", "src/check/",
         "library code must not write to std streams; report through "
         "check.h or return data to the harness"},
    };
    for (size_t li = 0; li < f.raw_lines.size(); ++li) {
      if (!f.preproc[li]) continue;
      const std::string& line = f.raw_lines[li];
      size_t hash = line.find('#');
      if (hash == std::string::npos) continue;
      size_t inc = line.find("include", hash);
      if (inc == std::string::npos) continue;
      size_t open = line.find_first_of("<\"", inc);
      if (open == std::string::npos) continue;
      size_t close = line.find_first_of(">\"", open + 1);
      if (close == std::string::npos) continue;
      std::string header = line.substr(open + 1, close - open - 1);
      for (const IncludeBan& ban : kBans) {
        if (header != ban.header) continue;
        if (PathContains(f, ban.unless_fragment) ||
            PathEndsWith(f, ban.unless_fragment))
          continue;
        const int line_no = static_cast<int>(li + 1);
        if (Allowed(f, kBannedInclude, line_no)) continue;
        diags.push_back({f.path, line_no, static_cast<int>(hash + 1),
                         kBannedInclude,
                         "#include <" + header + "> in library code — " +
                             ban.hint});
      }
    }
  }

  // immutable-class: marker-bearing classes.
  std::vector<Token> tokens = Tokenize(f);
  bool marker_used = false;
  for (const Token& t : tokens) {
    if (t.text == kMarker) marker_used = true;
  }
  if (marker_used) {
    std::vector<ClassInfo> classes = FindClasses(tokens);
    size_t attached = 0;
    for (const ClassInfo& cls : classes) {
      if (!cls.marked) continue;
      attached += 1;
      CheckMarkedClass(f, tokens, cls, diags);
    }
    if (attached == 0) {
      // Marker present but not inside any class body we could parse.
      for (const Token& t : tokens) {
        if (t.text == kMarker) {
          diags.push_back({f.path, t.line, t.col, kImmutableClass,
                           std::string(kMarker) +
                               " must appear inside a class body"});
          break;
        }
      }
    }
  }
}

// ---- driver -------------------------------------------------------------

int Usage(int code) {
  std::cerr << "usage: cfl_lint [--root DIR] [--json] [FILE...]\n"
            << "  Lints FILEs, or with none given every .h/.cc/.cpp under\n"
            << "  DIR/src, DIR/bench, DIR/tools (DIR defaults to `.`).\n"
            << "  --json emits one JSON document instead of gcc-style "
               "lines.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool json = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return Usage(2);
      root = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cfl_lint: unknown option " << arg << "\n";
      return Usage(2);
    } else {
      files.push_back(arg);
    }
  }

  if (files.empty()) {
    std::error_code ec;
    for (const char* top : {"src", "bench", "tools"}) {
      fs::path dir = root / top;
      if (!fs::is_directory(dir, ec)) continue;
      for (fs::recursive_directory_iterator it(dir, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec) &&
            cfl::lint::HasLintableExtension(it->path())) {
          files.push_back(it->path().string());
        }
      }
    }
    if (files.empty()) {
      std::cerr << "cfl_lint: nothing to lint under " << root
                << " (expected src/, bench/, tools/)\n";
      return 2;
    }
    std::sort(files.begin(), files.end());
  }

  std::vector<Diagnostic> diags;
  bool io_error = false;
  for (const std::string& file : files) {
    LintFile(file, fs::path(file), diags, io_error);
  }
  if (io_error) return 2;

  cfl::lint::PrintDiagnostics("cfl_lint", diags, files.size(), json);
  return diags.empty() ? 0 : 1;
}
