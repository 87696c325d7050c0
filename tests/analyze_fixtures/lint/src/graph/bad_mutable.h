// Fixture: a `mutable` member without a valid allow-comment must fire
// `mutable-member` — const-invisible caches are how "immutable" structures
// grow data races. The directive above it uses the retired `cfl-lint:`
// tag, which is not a directive any more, so it suppresses nothing.
// Never compiled — checked-in input for tests/analyze_test.cc.
#ifndef CFL_TESTS_LINT_FIXTURES_BAD_MUTABLE_H_
#define CFL_TESTS_LINT_FIXTURES_BAD_MUTABLE_H_

class Histogram {
 public:
  int Quantile(double q) const;

 private:
  // cfl-lint: allow(mutable-member) retired tag: not a directive
  mutable int cached_quantile_ = -1;
};

#endif  // CFL_TESTS_LINT_FIXTURES_BAD_MUTABLE_H_
