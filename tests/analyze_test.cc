// cfl_analyze fixture tests: every whole-program rule must fire on its
// checked-in violating mini-tree, the clean and allow trees must pass, and
// the mutation self-test proves end-to-end sensitivity — twenty
// violations (two per rule, concurrency rules included, plus a dyn-module
// quartet covering its DAG edge and 22/24 lock levels) seeded one at a
// time into a copy of the clean tree, all but at most one of which the
// analyzer must detect (the acceptance bar for the analyzer being more
// than a tautology on an already-clean tree).
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

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// ---- per-rule fixtures --------------------------------------------------

TEST(CflAnalyzeTest, CleanTreeIsClean) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("clean")));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("clean"), std::string::npos) << run.output;
}

// False-positive regressions ride in the clean tree: a span member and a
// span-returning method of a CFL_IMMUTABLE_AFTER_BUILD class, a
// string_view accessor on a mutable class, a CFL_SPAN_INTO member naming a
// frozen owner, and CheckedU32-routed narrowings. None may fire.
TEST(CflAnalyzeTest, EscapeHatchesSuppressWithReason) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("allows")));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(CflAnalyzeTest, LayeringFiresOnBackEdgeAndCycle) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("layering")));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[layering]"), 2) << run.output;
  EXPECT_NE(run.output.find("back-edge"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("include cycle"), std::string::npos)
      << run.output;
}

TEST(CflAnalyzeTest, SpanEscapeFiresOnMemberMethodAndBogusOwner) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("span")));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[span-escape]"), 3) << run.output;
  EXPECT_NE(run.output.find("CFL_SPAN_INTO names 'Mutable'"),
            std::string::npos)
      << run.output;
}

TEST(CflAnalyzeTest, NarrowingFiresOnCastAndImplicitInit) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("narrowing")));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[narrowing]"), 2) << run.output;
}

TEST(CflAnalyzeTest, WorkerNoexceptFiresOnDirectBodyAndThrowingHelper) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("noexcept")));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[worker-noexcept]"), 2)
      << run.output;
}

TEST(CflAnalyzeTest, StatsGateFiresOnUngatedMutations) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("stats")));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[stats-gate]"), 2) << run.output;
}

TEST(CflAnalyzeTest, BadAllowFiresOnUnknownRule) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("badallow")));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // One unknown rule id (lint tag) + one reason-less analyze-tag allow.
  EXPECT_EQ(CountOccurrences(run.output, "[bad-allow]"), 2) << run.output;
  EXPECT_NE(run.output.find("missing justification"), std::string::npos)
      << run.output;
}

TEST(CflAnalyzeTest, LockOrderFiresOnCycleLevelInversionAndMissingMarker) {
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("lockorder")));
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
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("blocking")));
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
  AnalyzeRun run = RunAnalyze(RootArg(FixtureRoot("atomic")));
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

TEST(CflAnalyzeTest, JsonModeEmitsMachineReadableReport) {
  AnalyzeRun clean =
      RunAnalyze(RootArg(FixtureRoot("clean")) + " --json");
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("\"tool\":\"cfl_analyze\""),
            std::string::npos)
      << clean.output;
  EXPECT_NE(clean.output.find("\"errors\":0"), std::string::npos)
      << clean.output;

  AnalyzeRun bad =
      RunAnalyze(RootArg(FixtureRoot("stats")) + " --json");
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  EXPECT_NE(bad.output.find("\"rule\":\"stats-gate\""), std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("\"line\":"), std::string::npos) << bad.output;
}

TEST(CflAnalyzeTest, UsageErrorsExitTwo) {
  AnalyzeRun run = RunAnalyze("--no-such-flag");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  AnalyzeRun missing = RunAnalyze("--root /no/such/dir/cfl");
  EXPECT_EQ(missing.exit_code, 2) << missing.output;
}

// ---- mutation self-test -------------------------------------------------

struct Mutation {
  const char* file;           // relative to the tree root
  const char* from;           // exact text in the clean tree
  const char* to;             // the seeded violation
  const char* expected_rule;  // "[rule-id]" that must appear
};

const Mutation kMutations[] = {
    // layering
    {"src/graph/graph.h", "#include \"check/check.h\"",
     "#include \"match/match.h\"", "[layering]"},
    {"src/cpi/util.h", "#include \"check/check.h\"",
     "#include \"cpi/cpi.h\"", "[layering]"},
    // span-escape
    {"src/match/match.h", "std::vector<uint32_t> buf_;",
     "std::span<uint32_t> buf_;", "[span-escape]"},
    {"src/match/match.h", "CFL_SPAN_INTO(Cpi)", "CFL_SPAN_INTO(Scratch)",
     "[span-escape]"},
    // narrowing
    {"src/cpi/util.h", "const uint32_t n = CheckedU32(v.size());",
     "const uint32_t n = static_cast<uint32_t>(v.size());", "[narrowing]"},
    {"src/cpi/util.h", "uint32_t m = CheckedU32(w.size());",
     "uint32_t m = w.size();", "[narrowing]"},
    // worker-noexcept
    {"src/parallel/pool.cc",
     "uint64_t Accumulate(uint64_t a, uint64_t b) noexcept {",
     "uint64_t Accumulate(uint64_t a, uint64_t b) {", "[worker-noexcept]"},
    {"src/parallel/pool.cc", "InvokeTask(task);", "task();",
     "[worker-noexcept]"},
    // stats-gate
    {"src/match/match.cc", "CFL_STATS_ONLY(stats_.probes += 1;)",
     "stats_.probes += 1;", "[stats-gate]"},
    {"src/match/match.cc", "CFL_STATS_ONLY(stats_.generated.push_back(v);)",
     "stats_.generated.push_back(v);", "[stats-gate]"},
    // lock-order
    {"src/serve/queue.h", "Mutex mu_ CFL_LOCK_LEVEL(10);", "Mutex mu_;",
     "[lock-order]"},
    {"src/serve/queue.h", "Mutex reg_mu_ CFL_LOCK_LEVEL(20);",
     "Mutex reg_mu_ CFL_LOCK_LEVEL(5);", "[lock-order]"},
    // blocking-under-lock
    {"src/serve/queue.cc",
     "// cfl-analyze: allow(blocking-under-lock) condvar wait releases mu_",
     "// condvar wait releases mu_", "[blocking-under-lock]"},
    {"src/serve/queue.cc", "flushed_ = true;", "poll(nullptr, 0, 1);",
     "[blocking-under-lock]"},
    // atomic-intent
    {"src/serve/queue.h",
     "std::atomic<uint64_t> enqueued_ CFL_ATOMIC_INTENT(counter){0};",
     "std::atomic<uint64_t> enqueued_{0};", "[atomic-intent]"},
    {"src/serve/queue.h",
     "config_.store(config, std::memory_order_release);",
     "config_.store(config, std::memory_order_relaxed);",
     "[atomic-intent]"},
    // dyn: one seed per concurrency rule plus the DAG edge dyn may not
    // take (dyn -> parallel)
    {"src/dyn/epoch.h", "#include \"graph/graph.h\"",
     "#include \"parallel/pool.h\"", "[layering]"},
    {"src/dyn/epoch.h", "Mutex drain_mu_ CFL_LOCK_LEVEL(24);",
     "Mutex drain_mu_ CFL_LOCK_LEVEL(21);", "[lock-order]"},
    {"src/dyn/epoch.cc",
     "// cfl-analyze: allow(blocking-under-lock) condvar wait releases "
     "drain_mu_",
     "// condvar wait releases drain_mu_", "[blocking-under-lock]"},
    {"src/dyn/epoch.h", "current_.load(std::memory_order_acquire);",
     "current_.load(std::memory_order_relaxed);", "[atomic-intent]"},
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
