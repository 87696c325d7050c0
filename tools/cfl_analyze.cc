// cfl_analyze: the project's static analyzer for the CFL-Match tree.
//
// A self-contained token-level analyzer (no libclang, no compilation
// database — it builds before anything else and runs anywhere the tree
// checks out). It lexes C++ just far enough to be sound for this tree's own
// conventions. One walk loads every .h/.cc/.cpp under DIR/src, DIR/bench
// and DIR/tools; the single-file rules run over all of them and the
// whole-program rules over src/ as one program. Clang Thread Safety
// Analysis and clang-tidy check what the compiler can see; these rules
// check the project conventions that make those analyses sound (TSA is
// blind to a raw std::mutex) and the structure no single TU shows.
//
// Single-file rules (src/, bench/, tools/):
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
//                    <iostream> outside src/check/.
//   raw-clock        `steady_clock` outside src/obs/ and src/harness/ —
//                    wall-clock reads go through the cfl::obs facade
//                    (src/obs/clock.h) so every timer is reconcilable with
//                    the MatchStats phase accounting.
//   bad-allow        a malformed escape hatch: unknown rule id or missing
//                    reason.
//
// Whole-program rules (src/):
//   layering         src/ modules form an explicit DAG (AllowedDeps below;
//                    check and obs are reachable from anywhere). Any include
//                    edge outside the DAG is a back-edge error, and
//                    file-level include cycles are reported as such.
//   narrowing        64->32 index conversions in src/cpi, src/match,
//                    src/parallel that bypass the checked helpers:
//                    static_cast<uint32_t> of a size()/offset expression,
//                    or a 32-bit variable initialized from .size(). Use
//                    cfl::CheckedU32 (check/narrow.h) or
//                    CheckedCandidateCount (match/enumerator.h).
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
//                    mutex while parked) carry an explicit allow.
//   atomic-intent    every std::atomic declaration must say what it is for
//                    via CFL_ATOMIC_INTENT(counter|flag|publish); each
//                    load/store/fetch_*/exchange use site must spell its
//                    memory_order explicitly and the order must match the
//                    declared intent (counter -> relaxed; publish ->
//                    release store + acquire load). A defaulted (seq_cst)
//                    order is an undeclared intent, not a safe harbor.
//
// Escape hatch: `// cfl-analyze: allow(<rule>) <reason>` on the offending
// line or the line directly above suppresses that one rule there. The
// reason is mandatory; an unknown rule or empty reason is itself a
// `bad-allow` error, so stale or hand-waving suppressions cannot
// accumulate.
//
// Exit codes: 0 clean, 1 violations found, 2 usage/IO error.
//
// Usage:
//   cfl_analyze [--root DIR]
// DIR defaults to the current directory and must contain src/.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---- rule ids -----------------------------------------------------------

const char kRawAssert[] = "raw-assert";
const char kRawMutex[] = "raw-mutex";
const char kMutableMember[] = "mutable-member";
const char kImmutableClass[] = "immutable-class";
const char kConstCast[] = "const-cast";
const char kBannedInclude[] = "banned-include";
const char kRawClock[] = "raw-clock";
const char kBadAllow[] = "bad-allow";
const char kLayering[] = "layering";
const char kNarrowing[] = "narrowing";
const char kLockOrder[] = "lock-order";
const char kBlockingUnderLock[] = "blocking-under-lock";
const char kAtomicIntent[] = "atomic-intent";

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> rules = {
      kRawAssert,     kRawMutex,     kMutableMember, kImmutableClass,
      kConstCast,     kBannedInclude, kRawClock,     kBadAllow,
      kLayering,      kNarrowing,    kLockOrder,     kBlockingUnderLock,
      kAtomicIntent};
  return rules;
}

const char kMarker[] = "CFL_IMMUTABLE_AFTER_BUILD";

// ---- diagnostics --------------------------------------------------------

struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 1;  // 1-based; 1 when the rule has no finer position
  std::string rule;
  std::string message;
};

bool DiagnosticOrder(const Diagnostic& a, const Diagnostic& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.col != b.col) return a.col < b.col;
  return a.rule < b.rule;
}

// Prints the sorted diagnostics gcc style (`file:line:col: error: [rule]
// message`) plus a summary line.
void PrintDiagnostics(std::vector<Diagnostic>& diags, size_t files_scanned) {
  std::sort(diags.begin(), diags.end(), DiagnosticOrder);
  std::set<std::string> files_with_errors;
  for (const Diagnostic& d : diags) {
    std::cout << d.file << ":" << d.line << ":" << d.col << ": error: ["
              << d.rule << "] " << d.message << "\n";
    files_with_errors.insert(d.file);
  }
  if (diags.empty()) {
    std::cout << "cfl_analyze: clean (" << files_scanned << " files)\n";
  } else {
    std::cout << "cfl_analyze: " << diags.size() << " error(s) in "
              << files_with_errors.size() << " file(s) (" << files_scanned
              << " files scanned)\n";
  }
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// ---- source model -------------------------------------------------------

// One allow-comment, parsed from the raw text.
struct Allow {
  int line = 0;
  std::string rule;
  bool well_formed = false;
  std::string problem;  // set when !well_formed
};

struct Token {
  std::string text;
  int line = 0;
  int col = 1;  // 1-based column of the token's first character
};

struct Include {
  std::string path;  // as written between the quotes
  int line = 0;
  int col = 1;
  bool quoted = false;  // "project" vs <system>
};

struct SourceFile {
  std::string path;    // as reported in diagnostics
  std::string rel;     // relative to --root, forward slashes
  std::string module;  // src/<module>/ with the check/validate split; ""
                       // outside src/
  std::vector<std::string> raw_lines;   // 1-based via index-1
  std::vector<std::string> code_lines;  // comments/strings blanked
  std::vector<bool> preproc;            // per line: part of a # directive
  std::vector<Allow> allows;
  std::vector<Token> toks;
  std::vector<Include> includes;
};

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Strips comments, string/char literals (incl. raw strings), and
// preprocessor directives out of the text, preserving the line structure so
// every token keeps its original line number. Comment/string bodies become
// spaces; preprocessor lines are recorded in `preproc` and blanked from the
// code view (the include rules read the raw lines instead).
void StripSource(SourceFile& f, const std::string& text) {
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  std::string code;
  code.reserve(text.size());
  State state = State::kCode;
  std::string raw_delim;         // for kRawString: ")delim"
  bool line_has_code = false;    // any non-ws emitted on this line
  bool line_is_preproc = false;  // first non-ws char was '#'
  bool continuation = false;     // previous line ended with backslash
  std::vector<bool> preproc_lines;

  auto end_line = [&]() {
    preproc_lines.push_back(line_is_preproc);
    // The '\n' is already in `code`; a backslash right before it continues
    // the directive onto the next line.
    size_t n = code.size();
    bool backslash = n >= 2 && code[n - 1] == '\n' && code[n - 2] == '\\';
    continuation = line_is_preproc && backslash;
    line_is_preproc = continuation;
    line_has_code = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      code.push_back('\n');
      end_line();
      continue;
    }
    switch (state) {
      case State::kCode: {
        if (!line_has_code && !line_is_preproc) {
          if (c == '#') line_is_preproc = true;
          if (!std::isspace(static_cast<unsigned char>(c)))
            line_has_code = true;
        }
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code.append("  ");
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code.append("  ");
          ++i;
        } else if (c == '"') {
          // Raw string? The quote must directly follow an R whose own left
          // neighbor is not an identifier character (allowing u8R/uR/LR
          // prefixes, whose trailing char is still 'R').
          size_t j = code.size();
          bool raw = j > 0 && code[j - 1] == 'R' &&
                     (j < 2 ||
                      !std::isalnum(static_cast<unsigned char>(code[j - 2])) ||
                      code[j - 2] == '8' || code[j - 2] == 'u' ||
                      code[j - 2] == 'U' || code[j - 2] == 'L');
          if (raw && j >= 2 && IsIdentChar(code[j - 2]) &&
              !(code[j - 2] == '8' || code[j - 2] == 'u' ||
                code[j - 2] == 'U' || code[j - 2] == 'L')) {
            raw = false;  // identifier merely ending in R
          }
          if (raw) {
            state = State::kRawString;
            raw_delim = ")";
            code.push_back('"');  // for the opening quote itself
            size_t k = i + 1;
            while (k < text.size() && text[k] != '(' &&
                   raw_delim.size() < 18) {
              raw_delim.push_back(text[k]);
              code.push_back(' ');
              ++k;
            }
            raw_delim.push_back('"');
            i = k;  // at '(' (or bail; malformed raw strings end at EOF)
            code.push_back(' ');
          } else {
            state = State::kString;
            code.push_back('"');
          }
        } else if (c == '\'') {
          state = State::kChar;
          code.push_back('\'');
        } else {
          code.push_back(c);
        }
        break;
      }
      case State::kLineComment:
        code.push_back(' ');
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code.append("  ");
          ++i;
        } else {
          code.push_back(' ');
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0' && next != '\n') {
          code.append("  ");
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code.push_back('"');
        } else {
          code.push_back(' ');
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          code.append("  ");
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code.push_back('\'');
        } else {
          code.push_back(' ');
        }
        break;
      case State::kRawString:
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 1; k < raw_delim.size(); ++k) code.push_back(' ');
          code.push_back('"');
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          code.push_back(' ');
        }
        break;
    }
  }
  end_line();

  // Split both views into lines.
  auto split = [](const std::string& s) {
    std::vector<std::string> lines;
    std::string cur;
    for (char c : s) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    lines.push_back(cur);
    return lines;
  };
  f.raw_lines = split(text);
  f.code_lines = split(code);
  preproc_lines.resize(f.code_lines.size(), false);
  f.preproc = preproc_lines;
  // Blank preprocessor lines out of the code view; tokens must not come
  // from directives (macro *definitions* of e.g. the marker are not uses).
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    if (f.preproc[i]) f.code_lines[i].assign(f.code_lines[i].size(), ' ');
  }
}

// ---- allow-comments -----------------------------------------------------

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

// A rule id is lowercase-kebab; anything else after `allow(` is prose (for
// example documentation quoting the directive syntax), not a directive.
bool IsRuleShaped(const std::string& s) {
  if (s.empty() || !std::islower(static_cast<unsigned char>(s[0])))
    return false;
  for (char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '-'))
      return false;
  }
  return true;
}

// Parses every allow-directive in the file. Every directive needs a known
// rule id and a non-empty reason.
void ParseAllows(SourceFile& f) {
  // Assembled so this file's own source does not contain the literal tag.
  const std::string tag = std::string("cfl-analyze") + ":";
  for (size_t i = 0; i < f.raw_lines.size(); ++i) {
    const std::string& line = f.raw_lines[i];
    size_t at = line.find(tag);
    if (at == std::string::npos) continue;
    Allow allow;
    allow.line = static_cast<int>(i + 1);
    std::string rest = Trim(line.substr(at + tag.size()));
    const std::string kw = "allow(";
    if (rest.compare(0, kw.size(), kw) != 0) {
      allow.problem =
          "expected allow(rule) plus a reason after the directive tag";
      f.allows.push_back(allow);
      continue;
    }
    size_t close = rest.find(')', kw.size());
    if (close == std::string::npos) {
      allow.problem = "unterminated allow(rule)";
      f.allows.push_back(allow);
      continue;
    }
    allow.rule = Trim(rest.substr(kw.size(), close - kw.size()));
    if (!IsRuleShaped(allow.rule)) continue;  // prose, not a directive
    std::string reason = Trim(rest.substr(close + 1));
    if (KnownRules().count(allow.rule) == 0) {
      allow.problem = "unknown rule id '" + allow.rule + "'";
    } else if (reason.empty()) {
      allow.problem = "missing justification after allow(" + allow.rule + ")";
    } else {
      allow.well_formed = true;
    }
    f.allows.push_back(allow);
  }
}

// True if a well-formed allow for `rule` covers `line` (same line or the
// line directly above).
bool Allowed(const SourceFile& f, const char* rule, int line) {
  for (const Allow& a : f.allows) {
    if (!a.well_formed || a.rule != rule) continue;
    if (a.line == line || a.line + 1 == line) return true;
  }
  return false;
}

// ---- small matching helpers (token-ish, on stripped lines) --------------

// Finds whole-word occurrences of `word` in `line`; returns columns.
std::vector<size_t> FindWord(const std::string& line,
                                    std::string_view word) {
  std::vector<size_t> hits;
  size_t at = 0;
  while ((at = line.find(word, at)) != std::string::npos) {
    bool left_ok = at == 0 || !IsIdentChar(line[at - 1]);
    size_t end = at + word.size();
    bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) hits.push_back(at);
    at = end;
  }
  return hits;
}

// Matches `std :: name` with arbitrary interior whitespace, for any name in
// `names`. Returns the matched name or empty.
std::string FindStdMember(const std::string& line,
                                 const std::vector<std::string>& names) {
  for (size_t col : FindWord(line, "std")) {
    size_t i = col + 3;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i + 1 >= line.size() || line[i] != ':' || line[i + 1] != ':')
      continue;
    i += 2;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    for (const std::string& name : names) {
      if (line.compare(i, name.size(), name) == 0) {
        size_t end = i + name.size();
        if (end >= line.size() || !IsIdentChar(line[end])) return name;
      }
    }
  }
  return {};
}

// ---- tokenizer ----------------------------------------------------------

std::vector<Token> Tokenize(const SourceFile& f) {
  std::vector<Token> tokens;
  for (size_t li = 0; li < f.code_lines.size(); ++li) {
    const std::string& line = f.code_lines[li];
    size_t i = 0;
    while (i < line.size()) {
      char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token t;
      t.line = static_cast<int>(li + 1);
      t.col = static_cast<int>(i + 1);
      if (IsIdentChar(c)) {
        size_t j = i;
        while (j < line.size() && IsIdentChar(line[j])) ++j;
        t.text = line.substr(i, j - i);
        i = j;
      } else if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        t.text = "::";
        i += 2;
      } else {
        t.text.assign(1, c);
        ++i;
      }
      tokens.push_back(std::move(t));
    }
  }
  return tokens;
}

size_t SkipGroup(const std::vector<Token>& toks, size_t open,
                        const char* open_sym, const char* close_sym) {
  // `open` indexes the opening symbol; returns index one past its match.
  int depth = 0;
  size_t i = open;
  for (; i < toks.size(); ++i) {
    if (toks[i].text == open_sym) ++depth;
    if (toks[i].text == close_sym && --depth == 0) return i + 1;
  }
  return i;
}

// ---- class discovery ----------------------------------------------------

struct ClassInfo {
  std::string name;
  bool is_struct = false;
  bool marked = false;    // carries CFL_IMMUTABLE_AFTER_BUILD
  size_t body_begin = 0;  // token index just past '{'
  size_t body_end = 0;    // token index of matching '}'
  int line = 0;
};

// Finds every class/struct body in the token stream, recording whether it
// carries the CFL_IMMUTABLE_AFTER_BUILD marker. Nested classes yield their
// own entries (inner bodies are sub-ranges of outer ones).
std::vector<ClassInfo> FindClasses(const std::vector<Token>& toks) {
  struct Scope {
    bool is_class = false;
    bool is_struct = false;
    std::string name;
    size_t body_begin = 0;
    bool marked = false;
    int line = 0;
  };
  std::vector<ClassInfo> found;
  std::vector<Scope> stack;

  bool pending = false;      // saw class/struct, waiting for '{' or ';'
  bool pending_struct = false;
  bool name_frozen = false;  // stop updating the name after ':' (bases)
  std::string pending_name;
  int pending_line = 0;

  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if ((t == "class" || t == "struct") &&
        !(i > 0 && toks[i - 1].text == "enum")) {
      pending = true;
      pending_struct = (t == "struct");
      name_frozen = false;
      pending_name.clear();
      pending_line = toks[i].line;
      continue;
    }
    if (pending) {
      if (t == "{") {
        Scope s;
        s.is_class = true;
        s.is_struct = pending_struct;
        s.name = pending_name;
        s.body_begin = i + 1;
        s.line = pending_line;
        stack.push_back(s);
        pending = false;
        continue;
      }
      if (t == ";" || t == ")" || t == "}") {
        pending = false;  // forward declaration / stray close
      } else if (!name_frozen && (t == ">" || t == "<" || t == "," ||
                                  t == "&" || t == "*")) {
        pending = false;  // `template <class T>` — a parameter, not a class
      } else if (t == "(") {
        // Attribute macro between `class` and the name — skip its args.
        i = SkipGroup(toks, i, "(", ")") - 1;
      } else if (t == ":") {
        name_frozen = true;
      } else if (!name_frozen && t != "final" && t != "::" &&
                 IsIdentChar(t[0])) {
        pending_name = t;
      }
      continue;
    }
    if (t == "{") {
      stack.push_back(Scope{});  // non-class scope
    } else if (t == "}") {
      if (!stack.empty()) {
        Scope s = stack.back();
        stack.pop_back();
        if (s.is_class) {
          ClassInfo ci;
          ci.name = s.name;
          ci.is_struct = s.is_struct;
          ci.marked = s.marked;
          ci.body_begin = s.body_begin;
          ci.body_end = i;
          ci.line = s.line;
          found.push_back(ci);
        }
      }
    } else if (t == kMarker) {
      // Attach to the innermost class scope.
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->is_class) {
          it->marked = true;
          break;
        }
      }
    }
  }
  return found;
}

// ---- module DAG ---------------------------------------------------------

// The allowed dependency table. Every module may additionally include
// itself and `check`; every module except `check` may include `obs`.
// src/check is split: check.h / env.h / narrow.h / thread_annotations.h
// are the dependency-free base (`check`), while validate.{h,cc} and
// test_access.h form `validate`, which sits above the structures it
// validates.
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
      // snapshots need only the CSR graph and its builder, plus the graph
      // validator that debug builds run on every folded epoch.
      {"dyn", {"graph", "validate"}},
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

bool IsIdent(const Token& t) {
  return !t.text.empty() && IsIdentChar(t.text[0]) &&
         !std::isdigit(static_cast<unsigned char>(t.text[0]));
}

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

// ---- file loading -------------------------------------------------------

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

// Reads, strips, tokenizes and parses allow-comments; false on IO error.
bool LoadSourceFile(const fs::path& root, const std::string& path,
                    SourceFile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out.path = path;
  out.rel = fs::path(path).lexically_proximate(root).generic_string();
  out.module = ModuleOf(out.rel);
  StripSource(out, buf.str());
  ParseAllows(out);
  out.toks = Tokenize(out);
  out.includes = ExtractIncludes(out);
  return true;
}

// ---- single-file rules --------------------------------------------------

// Scans one marked class body for contract violations.
void CheckMarkedClass(const SourceFile& f, const ClassInfo& cls,
                      std::vector<Diagnostic>& diags) {
  const std::vector<Token>& toks = f.toks;
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

struct IncludeBan {
  std::string header;
  std::string home;  // the path prefix (or file) allowed to include it
  std::string hint;
};

void CheckFile(const SourceFile& f, std::vector<Diagnostic>& diags) {
  for (const Allow& a : f.allows) {
    if (!a.well_formed) {
      diags.push_back({f.path, a.line, 1, kBadAllow, a.problem});
    }
  }

  const bool in_check = StartsWith(f.rel, "src/check/");
  const bool is_annotations_header =
      f.rel == "src/check/thread_annotations.h";
  // The two sanctioned clock call sites: the stats layer's facade
  // (obs/clock.h) and the harness stopwatch.
  const bool clock_exempt =
      StartsWith(f.rel, "src/obs/") || StartsWith(f.rel, "src/harness/");

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

    if (!in_check) {
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
             "contracts; justify with an allow(mutable-member) directive "
             "if this really is private scratch"});
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
  if (StartsWith(f.rel, "src/")) {
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
    for (const Include& inc : f.includes) {
      for (const IncludeBan& ban : kBans) {
        if (inc.path != ban.header || StartsWith(f.rel, ban.home)) continue;
        if (Allowed(f, kBannedInclude, inc.line)) continue;
        diags.push_back({f.path, inc.line, inc.col, kBannedInclude,
                         "#include <" + inc.path + "> in library code — " +
                             ban.hint});
      }
    }
  }

  // immutable-class: marker-bearing classes.
  bool marker_used = false;
  for (const Token& t : f.toks) {
    if (t.text == kMarker) marker_used = true;
  }
  if (marker_used) {
    size_t attached = 0;
    for (const ClassInfo& cls : FindClasses(f.toks)) {
      if (!cls.marked) continue;
      attached += 1;
      CheckMarkedClass(f, cls, diags);
    }
    if (attached == 0) {
      // Marker present but not inside any class body we could parse.
      for (const Token& t : f.toks) {
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

// ---- rule: layering -----------------------------------------------------

void CheckLayering(const std::vector<SourceFile>& files,
                   std::vector<Diagnostic>& diags) {
  // Module DAG over the include edges.
  for (const SourceFile& af : files) {
    if (af.module.empty()) continue;
    for (const Include& inc : af.includes) {
      if (!inc.quoted) continue;
      std::string dep = ModuleOfInclude(inc.path);
      if (dep.empty()) continue;  // not a project module path
      if (AllowedDeps().count(dep) == 0 && dep != "validate") continue;
      if (DepAllowed(af.module, dep)) continue;
      if (Allowed(af, kLayering, inc.line)) continue;
      bool known = AllowedDeps().count(af.module) != 0;
      diags.push_back(
          {af.path, inc.line, inc.col, kLayering,
           known ? ("module '" + af.module + "' must not include '" +
                    inc.path + "' (module '" + dep +
                    "') — layering back-edge; the DAG is AllowedDeps() in "
                    "tools/cfl_analyze.cc (DESIGN.md §9)")
                 : ("module '" + af.module +
                    "' is not in the layering DAG — add it to AllowedDeps() "
                    "in tools/cfl_analyze.cc (and DESIGN.md §9)")});
    }
  }

  // File-level include cycles (covers within-module cycles the DAG check
  // cannot see). Nodes are repo-relative paths under src/.
  std::map<std::string, const SourceFile*> by_rel;
  for (const SourceFile& af : files) by_rel[af.rel] = &af;
  std::map<std::string, std::vector<std::string>> edges;
  for (const SourceFile& af : files) {
    for (const Include& inc : af.includes) {
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
          const SourceFile* af = by_rel[n];
          int line = 1, col = 1;
          for (const Include& inc : af->includes) {
            if ("src/" + inc.path == m) {
              line = inc.line;
              col = inc.col;
              break;
            }
          }
          if (!Allowed(*af, kLayering, line)) {
            diags.push_back({af->path, line, col, kLayering,
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
  for (const SourceFile& af : files) {
    if (color[af.rel] == 0) dfs(af.rel);
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

void CheckNarrowing(const SourceFile& af, std::vector<Diagnostic>& diags) {
  if (!InNarrowingScope(af.rel)) return;
  const std::vector<Token>& toks = af.toks;
  for (size_t i = 0; i + 4 < toks.size(); ++i) {
    // static_cast<uint32_t>(<size/offset expr>)
    if (toks[i].text == "static_cast" && toks[i + 1].text == "<" &&
        toks[i + 2].text == "uint32_t" && toks[i + 3].text == ">" &&
        toks[i + 4].text == "(") {
      size_t close = SkipGroup(toks, i + 4, "(", ")");
      if (RangeLooksLikeIndexExpr(toks, i + 5, close - 1) &&
          !Allowed(af, kNarrowing, toks[i].line)) {
        diags.push_back(
            {af.path, toks[i].line, toks[i].col, kNarrowing,
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
          !Allowed(af, kNarrowing, toks[i].line)) {
        diags.push_back(
            {af.path, toks[i].line, toks[i].col, kNarrowing,
             "implicit 64->32 narrowing: " + toks[i].text + " " +
                 toks[i + 1].text +
                 " initialized from a size/offset expression — route it "
                 "through cfl::CheckedU32 (check/narrow.h)"});
      }
    }
  }
}

// ---- concurrency model --------------------------------------------------
//
// Shared token-level model for the lock-order and blocking-under-lock
// rules: every cfl::Mutex member with its declared CFL_LOCK_LEVEL, a
// program-wide variable-name -> type map for the lockable / waitable types,
// and every
// function *definition* with its body token range so acquisitions can be
// attributed to a (class, function) and propagated along the call graph.

struct MutexInfo {
  std::string cls;
  int level = -1;  // -1: marker missing or malformed
};

struct FunctionDef {
  size_t file_index = 0;
  std::string cls;  // "" for free functions
  std::string name;
  size_t body_begin = 0;  // first token inside the body braces
  size_t body_end = 0;    // one past the last token inside them
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

bool IsThreadAnnotationsHeader(const SourceFile& af) {
  return af.rel.find("check/thread_annotations.h") != std::string::npos;
}

// Scans class bodies (at member level — nested braces and parens skipped)
// for `Mutex <name> ... ;` members and their CFL_LOCK_LEVEL markers. The
// wrapper's own header is exempt: it defines Mutex, it does not hold one.
void CollectMutexMembers(const std::vector<SourceFile>& files,
                         ConcurrencyModel& model,
                         std::vector<Diagnostic>& diags) {
  for (const SourceFile& af : files) {
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
          if (!Allowed(af, kLockOrder, name.line)) {
            diags.push_back(
                {af.path, name.line, name.col, kLockOrder,
                 "cfl::Mutex member '" + key +
                     "' has no CFL_LOCK_LEVEL(n) — every mutex must "
                     "declare its position in the lock hierarchy "
                     "(check/thread_annotations.h, DESIGN.md §9)"});
          }
        } else if (bad_arg) {
          if (!Allowed(af, kLockOrder, name.line)) {
            diags.push_back({af.path, name.line, name.col, kLockOrder,
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
void CollectVarTypes(const std::vector<SourceFile>& files,
                     ConcurrencyModel& model) {
  std::set<std::string> known = {"CondVar", "TaskPool", "TaskLatch"};
  for (const auto& [key, info] : model.mutexes) known.insert(info.cls);
  for (const SourceFile& af : files) {
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
void CollectFunctionDefs(const std::vector<SourceFile>& files,
                         ConcurrencyModel& model) {
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& af = files[fi];
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

void CheckLockDiscipline(const std::vector<SourceFile>& files,
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
    const SourceFile& af = files[d.file_index];
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
          !Allowed(af, kBlockingUnderLock, toks[i].line)) {
        std::string held = live.back().key.empty() ? "a mutex"
                                                   : "'" + live.back().key +
                                                         "' (locked line " +
                                                         std::to_string(
                                                             live.back()
                                                                 .line) +
                                                         ")";
        diags.push_back({af.path, toks[i].line, toks[i].col,
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
    const SourceFile& af = files[site.file_index];
    if (from == to) {
      if (!Allowed(af, kLockOrder, site.line)) {
        diags.push_back({af.path, site.line, site.col, kLockOrder,
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
        !Allowed(af, kLockOrder, site.line)) {
      diags.push_back(
          {af.path, site.line, site.col, kLockOrder,
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
            const SourceFile& af = files[site->second.file_index];
            if (!Allowed(af, kLockOrder, site->second.line)) {
              diags.push_back({af.path, site->second.line,
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

void CheckAtomicIntent(const std::vector<SourceFile>& files,
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
    const SourceFile& af = files[fi];
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
        if (!Allowed(af, kAtomicIntent, name.line)) {
          diags.push_back(
              {af.path, name.line, name.col, kAtomicIntent,
               "std::atomic '" + name.text +
                   "' declares no CFL_ATOMIC_INTENT(counter|flag|publish) "
                   "— say what the atomic is for so use sites can be "
                   "checked (check/thread_annotations.h, DESIGN.md §9)"});
        }
        continue;
      }
      if (kIntents.count(intent) == 0) {
        if (!Allowed(af, kAtomicIntent, name.line)) {
          diags.push_back({af.path, name.line, name.col, kAtomicIntent,
                           "unknown atomic intent '" + intent +
                               "' on '" + name.text +
                               "' — must be counter, flag, or publish"});
        }
        continue;
      }
      auto it = declared.find(name.text);
      if (it != declared.end() && it->second.intent != intent) {
        if (!Allowed(af, kAtomicIntent, name.line)) {
          diags.push_back(
              {af.path, name.line, name.col, kAtomicIntent,
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
    const SourceFile& af = files[fi];
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
        if (!Allowed(af, kAtomicIntent, site.line)) {
          diags.push_back(
              {af.path, site.line, site.col, kAtomicIntent,
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
        if (Allowed(af, kAtomicIntent, site.line)) continue;
        diags.push_back({af.path, site.line, site.col, kAtomicIntent,
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

// ---- driver -------------------------------------------------------------

int Usage(int code) {
  std::cerr << "usage: cfl_analyze [--root DIR]\n"
            << "  Single-file rules over every .h/.cc/.cpp under DIR/src,\n"
            << "  DIR/bench and DIR/tools; whole-program rules over DIR/src\n"
            << "  (DIR defaults to `.`).\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return Usage(0);
    } else {
      std::cerr << "cfl_analyze: unknown argument " << arg << "\n";
      return Usage(2);
    }
  }

  std::error_code ec;
  if (!fs::is_directory(root / "src", ec)) {
    std::cerr << "cfl_analyze: no src/ under " << root << "\n";
    return 2;
  }
  std::vector<std::string> paths;
  for (const char* top : {"src", "bench", "tools"}) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (it->is_regular_file(ec) && HasSourceExtension(it->path())) {
        paths.push_back(it->path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());

  // `program` is src/, the whole-program rules' scope; bench/ and tools/
  // get the single-file rules only.
  std::vector<SourceFile> program;
  std::vector<SourceFile> others;
  for (const std::string& p : paths) {
    SourceFile f;
    if (!LoadSourceFile(root, p, f)) {
      std::cerr << "cfl_analyze: cannot read " << p << "\n";
      return 2;
    }
    (StartsWith(f.rel, "src/") ? program : others).push_back(std::move(f));
  }

  std::vector<Diagnostic> diags;
  for (const SourceFile& f : program) CheckFile(f, diags);
  for (const SourceFile& f : others) CheckFile(f, diags);

  ConcurrencyModel model;
  CollectMutexMembers(program, model, diags);
  CollectVarTypes(program, model);
  CollectFunctionDefs(program, model);

  CheckLayering(program, diags);
  for (const SourceFile& f : program) CheckNarrowing(f, diags);
  CheckLockDiscipline(program, model, diags);
  CheckAtomicIntent(program, diags);

  PrintDiagnostics(diags, program.size() + others.size());
  return diags.empty() ? 0 : 1;
}
