// Fixture: a CFL_IMMUTABLE_AFTER_BUILD class with a non-const public
// method and a mutable member must fire `immutable-class` for both.
// Never compiled — checked-in input for tests/analyze_test.cc.
#ifndef CFL_TESTS_LINT_FIXTURES_BAD_IMMUTABLE_H_
#define CFL_TESTS_LINT_FIXTURES_BAD_IMMUTABLE_H_

class Table {
 public:
  CFL_IMMUTABLE_AFTER_BUILD(Table);

  Table() = default;
  Table(const Table&) = default;
  Table& operator=(const Table&) = default;

  int size() const { return size_; }

  // Violation: a public mutator on a frozen class.
  void Resize(int n);

 private:
  int size_ = 0;

  // Violation: mutable state inside a frozen class.
  mutable int lookups_ = 0;
};

#endif  // CFL_TESTS_LINT_FIXTURES_BAD_IMMUTABLE_H_
