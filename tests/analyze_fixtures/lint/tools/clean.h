// Fixture: an unremarkable header that satisfies every single-file rule,
// including a properly frozen CFL_IMMUTABLE_AFTER_BUILD class.
// Never compiled — checked-in input for tests/analyze_test.cc.
#ifndef CFL_TESTS_LINT_FIXTURES_CLEAN_H_
#define CFL_TESTS_LINT_FIXTURES_CLEAN_H_

#include <vector>

class Accumulator {
 public:
  CFL_IMMUTABLE_AFTER_BUILD(Accumulator);

  Accumulator() = default;
  explicit Accumulator(std::vector<int> values) : values_(values) {}

  int total() const;
  bool empty() const { return values_.empty(); }

 private:
  std::vector<int> values_;
};

#endif  // CFL_TESTS_LINT_FIXTURES_CLEAN_H_
