// cfl_analyze fixture tests: every rule must fire on its checked-in
// violating mini-tree, the clean and allow trees must pass, and the
// mutation self-test proves end-to-end sensitivity — violations seeded one
// at a time into a copy of the clean tree, at least one per rule (the
// single-file rules included, two of them in bench/ and tools/), plus the
// server's UPDATE chain commit_mu_ 20 -> DynamicGraph::mu_ 22 ->
// PlanCache::mu_ 30 and the dyn module's DAG edge. All but at most one
// seed must be detected (the acceptance bar for the analyzer being more
// than a tautology on an already-clean tree).
//
// The single-file rules share one tree (tests/analyze_fixtures/lint/); the
// CflLintTest cases each read their rule's share of its diagnostics.
//
// The analyzer binary path and the fixture directory come in as compile
// definitions (CFL_ANALYZE_BINARY, CFL_ANALYZE_FIXTURES) from
// tests/CMakeLists.

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

namespace fs = std::filesystem;

struct AnalyzeRun {
  int exit_code = -1;
  std::string output;
};

AnalyzeRun RunAnalyze(const std::string& args) {
  std::string cmd =
      std::string("\"") + CFL_ANALYZE_BINARY + "\" " + args + " 2>&1";
  AnalyzeRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

std::string FixtureRoot(const char* name) {
  return std::string(CFL_ANALYZE_FIXTURES) + "/" + name;
}

std::string RootArg(const std::string& root) {
  return "--root \"" + root + "\"";
}

AnalyzeRun RunFixture(const char* name) {
  return RunAnalyze(RootArg(FixtureRoot(name)));
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// Diagnostic lines that name both `file` (a path fragment) and `rule`.
int CountDiagnostics(const std::string& output, const std::string& file,
                     const std::string& rule) {
  int count = 0;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(file) != std::string::npos &&
        line.find(rule) != std::string::npos) {
      ++count;
    }
  }
  return count;
}

// ---- whole-program rules ------------------------------------------------

TEST(CflAnalyzeTest, CleanTreeIsClean) {
  AnalyzeRun run = RunFixture("clean");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("clean"), std::string::npos) << run.output;
}

TEST(CflAnalyzeTest, EscapeHatchesSuppressWithReason) {
  AnalyzeRun run = RunFixture("allows");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(CflAnalyzeTest, LayeringFiresOnBackEdgeAndCycle) {
  AnalyzeRun run = RunFixture("layering");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[layering]"), 2) << run.output;
  EXPECT_NE(run.output.find("back-edge"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("include cycle"), std::string::npos)
      << run.output;
}

TEST(CflAnalyzeTest, NarrowingFiresOnCastAndImplicitInit) {
  AnalyzeRun run = RunFixture("narrowing");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[narrowing]"), 2) << run.output;
}

// The ids of the deleted passes are unknown rules now: a stale waiver for
// one of them is an error, not a silent no-op.
TEST(CflAnalyzeTest, BadAllowFiresOnUnknownRule) {
  AnalyzeRun run = RunFixture("badallow");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (const char* rule : {"span-escape", "worker-noexcept", "stats-gate"}) {
    EXPECT_NE(run.output.find("unknown rule id '" + std::string(rule) + "'"),
              std::string::npos)
        << rule << " in:\n"
        << run.output;
  }
}

TEST(CflAnalyzeTest, LockOrderFiresOnCycleLevelInversionAndMissingMarker) {
  AnalyzeRun run = RunFixture("lockorder");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Missing marker on Gamma, the descending Alpha(20) -> Beta(10) edge,
  // the Alpha -> Beta -> Alpha cycle, and the transitive re-acquisition of
  // Alpha::mu_ the cycle implies.
  EXPECT_EQ(CountOccurrences(run.output, "[lock-order]"), 4) << run.output;
  EXPECT_NE(run.output.find("no CFL_LOCK_LEVEL"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("must strictly ascend"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("lock-order cycle: Alpha::mu_ -> Beta::mu_"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("recursive acquisition"), std::string::npos)
      << run.output;
}

TEST(CflAnalyzeTest, BlockingUnderLockFiresOnWaitSyscallAndSubmit) {
  AnalyzeRun run = RunFixture("blocking");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The un-allowed condvar wait, the poll(2) call, and TaskPool::Submit;
  // the allow-annotated wait in TakeAllowed must stay silent.
  EXPECT_EQ(CountOccurrences(run.output, "[blocking-under-lock]"), 3)
      << run.output;
  EXPECT_NE(run.output.find("CondVar::Wait parks the thread"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'poll' is a syscall-shaped blocking call"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("TaskPool::Submit"), std::string::npos)
      << run.output;
}

TEST(CflAnalyzeTest, AtomicIntentFiresOnAllFourShapes) {
  AnalyzeRun run = RunFixture("atomic");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Undeclared atomic, defaulted seq_cst, relaxed publish store, and an
  // over-strong counter RMW.
  EXPECT_EQ(CountOccurrences(run.output, "[atomic-intent]"), 4)
      << run.output;
  EXPECT_NE(run.output.find("declares no CFL_ATOMIC_INTENT"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("defaults to seq_cst"), std::string::npos)
      << run.output;
  EXPECT_NE(
      run.output.find("publication needs release stores and acquire loads"),
      std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("counters are relaxed-only"), std::string::npos)
      << run.output;
}

TEST(CflAnalyzeTest, UsageErrorsExitTwo) {
  AnalyzeRun run = RunAnalyze("--no-such-flag");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  AnalyzeRun missing = RunAnalyze("--root /no/such/dir/cfl");
  EXPECT_EQ(missing.exit_code, 2) << missing.output;
}

// ---- single-file rules --------------------------------------------------

// The lint tree is analyzed once and shared by the CflLintTest cases.
const AnalyzeRun& LintRun() {
  static const AnalyzeRun run = RunFixture("lint");
  return run;
}

TEST(CflLintTest, RawAssertFires) {
  EXPECT_EQ(CountDiagnostics(LintRun().output, "bench/bad_assert.cc",
                             "[raw-assert]"),
            1)
      << LintRun().output;
}

TEST(CflLintTest, RawMutexFiresOnMemberAndLockGuard) {
  EXPECT_EQ(CountDiagnostics(LintRun().output, "tools/bad_mutex.h",
                             "[raw-mutex]"),
            2)
      << LintRun().output;
}

// The directive above the member uses the retired `cfl-lint:` tag, so it
// is prose and suppresses nothing.
TEST(CflLintTest, UnjustifiedMutableFires) {
  EXPECT_EQ(CountDiagnostics(LintRun().output, "bad_mutable.h",
                             "[mutable-member]"),
            1)
      << LintRun().output;
}

TEST(CflLintTest, BogusAllowCommentsFire) {
  AnalyzeRun run = RunFixture("badallow");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[bad-allow]"), 7) << run.output;
  for (const char* problem :
       {"unknown rule id 'no-such-rule'",
        "missing justification after allow(raw-assert)",
        "expected allow(rule) plus a reason", "unterminated allow(rule)"}) {
    EXPECT_NE(run.output.find(problem), std::string::npos)
        << problem << " in:\n"
        << run.output;
  }
}

TEST(CflLintTest, ImmutableClassFiresOnMutatorAndMutable) {
  const std::string& out = LintRun().output;
  EXPECT_EQ(CountDiagnostics(out, "bad_immutable.h", "[immutable-class]"), 2)
      << out;
  // The mutator is named; constructors and operator= must NOT be flagged.
  EXPECT_NE(out.find("'Resize'"), std::string::npos) << out;
  EXPECT_EQ(out.find("operator"), std::string::npos) << out;
}

TEST(CflLintTest, RawClockFiresOnTypeAndNowCall) {
  // Both the time_point type use and the ::now() call mention steady_clock.
  EXPECT_EQ(CountDiagnostics(LintRun().output, "tools/bad_clock.cc",
                             "[raw-clock]"),
            2)
      << LintRun().output;
}

TEST(CflLintTest, WellFormedAllowSuppresses) {
  EXPECT_EQ(LintRun().output.find("good_allow.cc"), std::string::npos)
      << LintRun().output;
}

TEST(CflLintTest, CleanFixturePasses) {
  EXPECT_EQ(LintRun().output.find("clean.h"), std::string::npos)
      << LintRun().output;
}

// Every single-file rule fires somewhere in the tree, const-cast and
// banned-include included, and nothing else does: the error total is the
// sum of the per-rule counts.
TEST(CflLintTest, AllBadFixturesTogetherReportEveryRule) {
  const AnalyzeRun& run = LintRun();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountDiagnostics(run.output, "tools/bad_cast.cc", "[const-cast]"),
            1)
      << run.output;
  EXPECT_EQ(CountDiagnostics(run.output, "src/graph/bad_include.h",
                             "[banned-include]"),
            2)
      << run.output;
  // The mutable member of the frozen class also fires mutable-member.
  EXPECT_EQ(CountOccurrences(run.output, "[mutable-member]"), 2)
      << run.output;
  EXPECT_NE(run.output.find("cfl_analyze: 12 error(s)"), std::string::npos)
      << run.output;
}

// --json and --compdb were the modes the retired cfl_check tool used; like any
// unknown argument they are usage errors now.
TEST(CflLintTest, UnknownFlagIsAUsageError) {
  for (const char* args : {"--json", "--compdb compile_commands.json"}) {
    AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("clean")) + " " + args);
    EXPECT_EQ(run.exit_code, 2) << args << ":\n" << run.output;
  }
}

// ---- mutation self-test -------------------------------------------------

struct Mutation {
  const char* file;           // relative to the tree root
  const char* from;           // exact text in the clean tree
  const char* to;             // the seeded violation
  const char* expected_rule;  // "[rule-id]" that must appear
};

const Mutation kMutations[] = {
    // layering: a back-edge, a within-module cycle, and the DAG edge dyn
    // may not take (dyn -> serve)
    {"src/graph/graph.h", "#include \"check/check.h\"",
     "#include \"match/match.h\"", "[layering]"},
    {"src/cpi/util.h", "#include \"check/check.h\"",
     "#include \"cpi/cpi.h\"", "[layering]"},
    {"src/dyn/dynamic_graph.h", "#include \"graph/graph.h\"",
     "#include \"serve/plan_cache.h\"", "[layering]"},
    // narrowing
    {"src/cpi/util.h", "const uint32_t n = CheckedU32(v.size());",
     "const uint32_t n = static_cast<uint32_t>(v.size());", "[narrowing]"},
    {"src/cpi/util.h", "uint32_t m = CheckedU32(w.size());",
     "uint32_t m = w.size();", "[narrowing]"},
    // lock-order: the queue pair (10 -> 20), and the UPDATE chain
    // commit_mu_ 20 -> DynamicGraph::mu_ 22, with PlanCache::mu_ 30
    // taken under commit_mu_ by the commit hook
    {"src/serve/queue.h", "Mutex mu_ CFL_LOCK_LEVEL(10);", "Mutex mu_;",
     "[lock-order]"},
    {"src/serve/queue.h", "Mutex reg_mu_ CFL_LOCK_LEVEL(20);",
     "Mutex reg_mu_ CFL_LOCK_LEVEL(5);", "[lock-order]"},
    {"src/dyn/dynamic_graph.h", "Mutex mu_ CFL_LOCK_LEVEL(22);",
     "Mutex mu_ CFL_LOCK_LEVEL(18);", "[lock-order]"},
    {"src/serve/plan_cache.h", "Mutex mu_ CFL_LOCK_LEVEL(30);",
     "Mutex mu_ CFL_LOCK_LEVEL(20);", "[lock-order]"},
    // blocking-under-lock
    {"src/serve/queue.cc",
     "// cfl-analyze: allow(blocking-under-lock) condvar wait releases mu_",
     "// condvar wait releases mu_", "[blocking-under-lock]"},
    {"src/serve/queue.cc", "flushed_ = true;", "poll(nullptr, 0, 1);",
     "[blocking-under-lock]"},
    {"src/serve/server.cc", "updates_ += 1;",
     "write(fd, &invalidated, sizeof(invalidated));",
     "[blocking-under-lock]"},
    // atomic-intent
    {"src/serve/queue.h",
     "std::atomic<uint64_t> enqueued_ CFL_ATOMIC_INTENT(counter){0};",
     "std::atomic<uint64_t> enqueued_{0};", "[atomic-intent]"},
    {"src/serve/queue.h",
     "config_.store(config, std::memory_order_release);",
     "config_.store(config, std::memory_order_relaxed);",
     "[atomic-intent]"},
    {"src/serve/server.h", "stop_.load(std::memory_order_relaxed)",
     "stop_.load()", "[atomic-intent]"},
    // single-file rules
    {"tools/tool.cc", "CFL_CHECK(argc > 0);", "assert(argc > 0);",
     "[raw-assert]"},
    {"src/serve/queue.h", "Mutex mu_ CFL_LOCK_LEVEL(10);",
     "std::mutex mu_;", "[raw-mutex]"},
    {"src/cpi/cpi.h", "  std::vector<uint32_t> buf_;",
     "  mutable std::vector<uint32_t> buf_;", "[mutable-member]"},
    {"src/graph/graph.h", "uint64_t NumEdges() const {",
     "uint64_t NumEdges() {", "[immutable-class]"},
    {"src/cpi/cpi.h", "const Graph& graph = g;",
     "Graph& graph = const_cast<Graph&>(g);", "[const-cast]"},
    {"src/graph/graph.h", "#include <vector>", "#include <thread>",
     "[banned-include]"},
    {"bench/bench.cc", "const auto start = obs::Now();",
     "const auto start = std::chrono::steady_clock::now();", "[raw-clock]"},
    {"src/match/leaf.h",
     "allow(mutable-member) per-call scratch, one matcher per shard",
     "allow(mutable-member)", "[bad-allow]"},
};

bool ApplyMutation(const fs::path& root, const Mutation& m) {
  fs::path target = root / m.file;
  std::ifstream in(target);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  size_t at = text.find(m.from);
  if (at == std::string::npos) return false;  // fixture drifted
  text.replace(at, std::string(m.from).size(), m.to);
  std::ofstream out(target, std::ios::trunc);
  if (!out) return false;
  out << text;
  return true;
}

TEST(CflAnalyzeTest, MutationSelfTestDetectsAllButOne) {
  const fs::path clean = FixtureRoot("clean");
  const fs::path base = fs::temp_directory_path() / "cfl_analyze_mutants";
  std::error_code ec;
  fs::remove_all(base, ec);
  fs::create_directories(base);

  int detected = 0;
  std::string misses;
  int idx = 0;
  for (const Mutation& m : kMutations) {
    fs::path root = base / ("m" + std::to_string(idx++));
    fs::copy(clean, root,
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);
    ASSERT_TRUE(ApplyMutation(root, m))
        << "mutation " << idx << ": '" << m.from << "' not found in "
        << m.file << " — the clean fixture drifted";
    AnalyzeRun run = RunAnalyze(RootArg(root.string()));
    bool hit = run.exit_code == 1 &&
               run.output.find(m.expected_rule) != std::string::npos;
    if (hit) {
      ++detected;
    } else {
      misses += std::string("\n  mutation ") + std::to_string(idx) + " (" +
                m.file + ": " + m.from + " -> " + m.to + ") expected " +
                m.expected_rule + ", got exit " +
                std::to_string(run.exit_code) + ":\n" + run.output;
    }
  }
  fs::remove_all(base, ec);
  const int total = static_cast<int>(std::size(kMutations));
  EXPECT_GE(detected, total - 1)
      << "only " << detected << "/" << total
      << " seeded violations detected:" << misses;
}

}  // namespace
