// Shared source-model infrastructure for the project's static-analysis
// tools (tools/cfl_lint.cc, tools/cfl_analyze.cc).
//
// Both tools are deliberately self-contained (no libclang): they lex C++
// just far enough to be sound for the project's own conventions. This
// header holds everything that must behave identically in both —
// the comment/string/preprocessor stripper, the tokenizer, the
// `// cfl-lint: allow(<rule>) <reason>` escape-hatch parser, and the
// diagnostic model with its two output modes (gcc-style text and --json).
//
// The rule-id registry is also shared: each tool enforces its own subset,
// but allow-comment *validation* (rule `bad-allow`) accepts the union, so
// an allow for an analyzer rule does not trip the linter and vice versa.
//
// Header-only and dependency-free by design: the tools must build and run
// anywhere the tree checks out, before anything else compiles.

#ifndef CFL_TOOLS_LINT_COMMON_H_
#define CFL_TOOLS_LINT_COMMON_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace cfl {
namespace lint {

namespace fs = std::filesystem;

// ---- rule ids -----------------------------------------------------------

// cfl_lint (single-file, token-level project rules).
inline const char kRawAssert[] = "raw-assert";
inline const char kRawMutex[] = "raw-mutex";
inline const char kMutableMember[] = "mutable-member";
inline const char kImmutableClass[] = "immutable-class";
inline const char kConstCast[] = "const-cast";
inline const char kBannedInclude[] = "banned-include";
inline const char kRawClock[] = "raw-clock";
inline const char kBadAllow[] = "bad-allow";

// cfl_analyze (whole-program rules; see tools/cfl_analyze.cc).
inline const char kLayering[] = "layering";
inline const char kSpanEscape[] = "span-escape";
inline const char kNarrowing[] = "narrowing";
inline const char kWorkerNoexcept[] = "worker-noexcept";
inline const char kStatsGate[] = "stats-gate";
inline const char kLockOrder[] = "lock-order";
inline const char kBlockingUnderLock[] = "blocking-under-lock";
inline const char kAtomicIntent[] = "atomic-intent";

inline const std::set<std::string>& LintRules() {
  static const std::set<std::string> rules = {
      kRawAssert, kRawMutex,      kMutableMember, kImmutableClass,
      kConstCast, kBannedInclude, kRawClock,      kBadAllow};
  return rules;
}

inline const std::set<std::string>& AnalyzeRules() {
  static const std::set<std::string> rules = {
      kLayering,   kSpanEscape,        kNarrowing,    kWorkerNoexcept,
      kStatsGate,  kLockOrder,         kBlockingUnderLock,
      kAtomicIntent, kBadAllow};
  return rules;
}

// The union: any of these is a legal target for an allow-comment; each tool
// only *acts* on allows for its own rules.
inline const std::set<std::string>& AllKnownRules() {
  static const std::set<std::string> rules = [] {
    std::set<std::string> all = LintRules();
    all.insert(AnalyzeRules().begin(), AnalyzeRules().end());
    return all;
  }();
  return rules;
}

inline const char kMarker[] = "CFL_IMMUTABLE_AFTER_BUILD";

// ---- diagnostics --------------------------------------------------------

struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 1;  // 1-based; 1 when the rule has no finer position
  std::string rule;
  std::string message;
};

inline bool DiagnosticOrder(const Diagnostic& a, const Diagnostic& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.col != b.col) return a.col < b.col;
  return a.rule < b.rule;
}

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Renders the sorted diagnostics: gcc style (`file:line:col: error:
// [rule] message` + a summary line) by default, or a JSON document
// (`{"tool": ..., "diagnostics": [...]}`) that CI and editors can consume.
inline void PrintDiagnostics(const std::string& tool,
                             std::vector<Diagnostic>& diags,
                             size_t files_scanned, bool json) {
  std::sort(diags.begin(), diags.end(), DiagnosticOrder);
  if (json) {
    std::cout << "{\"tool\":\"" << JsonEscape(tool) << "\",\"files_scanned\":"
              << files_scanned << ",\"errors\":" << diags.size()
              << ",\"diagnostics\":[";
    for (size_t i = 0; i < diags.size(); ++i) {
      const Diagnostic& d = diags[i];
      if (i != 0) std::cout << ",";
      std::cout << "\n  {\"file\":\"" << JsonEscape(d.file)
                << "\",\"line\":" << d.line << ",\"col\":" << d.col
                << ",\"rule\":\"" << JsonEscape(d.rule) << "\",\"message\":\""
                << JsonEscape(d.message) << "\"}";
    }
    if (!diags.empty()) std::cout << "\n";
    std::cout << "]}\n";
    return;
  }
  std::set<std::string> files_with_errors;
  for (const Diagnostic& d : diags) {
    std::cout << d.file << ":" << d.line << ":" << d.col << ": error: ["
              << d.rule << "] " << d.message << "\n";
    files_with_errors.insert(d.file);
  }
  if (diags.empty()) {
    std::cout << tool << ": clean (" << files_scanned << " files)\n";
  } else {
    std::cout << tool << ": " << diags.size() << " error(s) in "
              << files_with_errors.size() << " file(s) (" << files_scanned
              << " files scanned)\n";
  }
}

inline bool IsIdentChar(char c) {
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

struct SourceFile {
  std::string path;            // as reported in diagnostics
  std::string generic_path;    // forward slashes, for rule scoping
  std::vector<std::string> raw_lines;      // 1-based via index-1
  std::vector<std::string> code_lines;     // comments/strings blanked
  std::vector<bool> preproc;               // per line: part of a # directive
  std::vector<Allow> allows;
};

inline bool PathContains(const SourceFile& f, std::string_view fragment) {
  return f.generic_path.find(fragment) != std::string::npos;
}

inline bool PathEndsWith(const SourceFile& f, std::string_view suffix) {
  const std::string& p = f.generic_path;
  return p.size() >= suffix.size() &&
         p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Strips comments, string/char literals (incl. raw strings), and
// preprocessor directives out of the text, preserving the line structure so
// every token keeps its original line number. Comment/string bodies become
// spaces; preprocessor lines are recorded in `preproc` and blanked from the
// code view (the include rules read the raw lines instead).
inline void StripSource(SourceFile& f, const std::string& text) {
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

inline std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

// A rule id is lowercase-kebab; anything else after `allow(` is prose (for
// example documentation quoting the directive syntax), not a directive.
inline bool IsRuleShaped(const std::string& s) {
  if (s.empty() || !std::islower(static_cast<unsigned char>(s[0])))
    return false;
  for (char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '-'))
      return false;
  }
  return true;
}

// Parses every allow-directive in the file. Two directive tags exist — the
// lint tag for single-file lint rules and the analyze tag for the
// whole-program analyzer — but both feed one parser: rule ids are validated
// against the *union* of both tools' rules, so each tool tolerates (and
// neither double-reports) the other's suppressions, and every directive
// needs a non-empty reason regardless of tag.
inline void ParseAllows(SourceFile& f) {
  // Assembled so the tools' own sources do not contain the literal tags.
  const std::string tags[] = {std::string("cfl-lint") + ":",
                              std::string("cfl-analyze") + ":"};
  for (size_t i = 0; i < f.raw_lines.size(); ++i) {
    const std::string& line = f.raw_lines[i];
    size_t at = std::string::npos;
    size_t tag_len = 0;
    for (const std::string& tag : tags) {
      size_t pos = line.find(tag);
      if (pos != std::string::npos && (at == std::string::npos || pos < at)) {
        at = pos;
        tag_len = tag.size();
      }
    }
    if (at == std::string::npos) continue;
    Allow allow;
    allow.line = static_cast<int>(i + 1);
    std::string rest = Trim(line.substr(at + tag_len));
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
    if (AllKnownRules().count(allow.rule) == 0) {
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
inline bool Allowed(const SourceFile& f, const char* rule, int line) {
  for (const Allow& a : f.allows) {
    if (!a.well_formed || a.rule != rule) continue;
    if (a.line == line || a.line + 1 == line) return true;
  }
  return false;
}

// ---- small matching helpers (token-ish, on stripped lines) --------------

// Finds whole-word occurrences of `word` in `line`; returns columns.
inline std::vector<size_t> FindWord(const std::string& line,
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
inline std::string FindStdMember(const std::string& line,
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

struct Token {
  std::string text;
  int line = 0;
  int col = 1;  // 1-based column of the token's first character
};

inline std::vector<Token> Tokenize(const SourceFile& f) {
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

inline size_t SkipGroup(const std::vector<Token>& toks, size_t open,
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
inline std::vector<ClassInfo> FindClasses(const std::vector<Token>& toks) {
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

// ---- file loading -------------------------------------------------------

// Reads, strips, and parses allow-comments; false + message on IO error.
inline bool LoadSourceFile(const std::string& display_path,
                           const fs::path& file, SourceFile& out) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out.path = display_path;
  out.generic_path = fs::path(display_path).generic_string();
  StripSource(out, buf.str());
  ParseAllows(out);
  return true;
}

inline bool HasLintableExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

}  // namespace lint
}  // namespace cfl

#endif  // CFL_TOOLS_LINT_COMMON_H_
