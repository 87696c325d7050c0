// cfl_lint fixture tests: each checked-in bad-example under
// tests/lint_fixtures/ must make exactly its rule fire (with a nonzero
// exit), and the clean fixtures must pass. This is the linter's own
// regression suite — the `cfl_lint_tree` ctest proves the real tree is
// clean, these prove the rules still *catch* anything.
//
// The linter binary path and the fixture directory come in as compile
// definitions (CFL_LINT_BINARY, CFL_LINT_FIXTURES) from tests/CMakeLists.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun RunLint(const std::string& args) {
  std::string cmd =
      std::string("\"") + CFL_LINT_BINARY + "\" " + args + " 2>&1";
  LintRun run;
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

std::string Fixture(const char* name) {
  return std::string("\"") + CFL_LINT_FIXTURES + "/" + name + "\"";
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(CflLintTest, RawAssertFires) {
  LintRun run = RunLint(Fixture("bad_assert.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[raw-assert]"), 1) << run.output;
}

TEST(CflLintTest, RawMutexFiresOnMemberAndLockGuard) {
  LintRun run = RunLint(Fixture("bad_mutex.h"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[raw-mutex]"), 2) << run.output;
}

TEST(CflLintTest, UnjustifiedMutableFires) {
  LintRun run = RunLint(Fixture("bad_mutable.h"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[mutable-member]"), 1)
      << run.output;
}

TEST(CflLintTest, BogusAllowCommentsFire) {
  LintRun run = RunLint(Fixture("bad_allow.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Two lint-tag problems plus one bare analyze-tag allow: both directive
  // tags feed one parser, so a reason-less analyzer suppression fires here
  // without waiting for a cfl_analyze run.
  EXPECT_EQ(CountOccurrences(run.output, "[bad-allow]"), 3) << run.output;
  EXPECT_NE(run.output.find("unknown rule id 'no-such-rule'"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("missing justification after allow(raw-assert)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(
      run.output.find("missing justification after allow(lock-order)"),
      std::string::npos)
      << run.output;
}

TEST(CflLintTest, ImmutableClassFiresOnMutatorAndMutable) {
  LintRun run = RunLint(Fixture("bad_immutable.h"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[immutable-class]"), 2)
      << run.output;
  // The mutator is named; constructors and operator= must NOT be flagged.
  EXPECT_NE(run.output.find("'Resize'"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("operator"), std::string::npos) << run.output;
}

TEST(CflLintTest, RawClockFiresOnTypeAndNowCall) {
  LintRun run = RunLint(Fixture("bad_clock.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Both the time_point type use and the ::now() call mention steady_clock.
  EXPECT_EQ(CountOccurrences(run.output, "[raw-clock]"), 2) << run.output;
}

TEST(CflLintTest, WellFormedAllowSuppresses) {
  LintRun run = RunLint(Fixture("good_allow.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find("error:"), std::string::npos) << run.output;
}

TEST(CflLintTest, CleanFixturePasses) {
  LintRun run = RunLint(Fixture("clean.h"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find("error:"), std::string::npos) << run.output;
}

TEST(CflLintTest, AllBadFixturesTogetherReportEveryRule) {
  LintRun run = RunLint(Fixture("bad_assert.cc") + " " +
                        Fixture("bad_mutex.h") + " " +
                        Fixture("bad_mutable.h") + " " +
                        Fixture("bad_allow.cc") + " " +
                        Fixture("bad_immutable.h") + " " +
                        Fixture("bad_clock.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (const char* rule :
       {"[raw-assert]", "[raw-mutex]", "[mutable-member]", "[bad-allow]",
        "[immutable-class]", "[raw-clock]"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos)
        << "missing " << rule << " in:\n"
        << run.output;
  }
}

TEST(CflLintTest, UnknownFlagIsAUsageError) {
  LintRun run = RunLint("--definitely-not-a-flag");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
