// Fixture: a raw std::mutex member (and a raw lock holder) outside
// src/check/thread_annotations.h must fire `raw-mutex` — such members are
// invisible to Clang Thread Safety Analysis.
// Never compiled — checked-in input for tests/analyze_test.cc.
#ifndef CFL_TESTS_LINT_FIXTURES_BAD_MUTEX_H_
#define CFL_TESTS_LINT_FIXTURES_BAD_MUTEX_H_

#include <mutex>

class Counter {
 public:
  void Add(int delta) {
    std::lock_guard<std::mutex> lock(mu_);
    total_ += delta;
  }

 private:
  std::mutex mu_;
  int total_ = 0;
};

#endif  // CFL_TESTS_LINT_FIXTURES_BAD_MUTEX_H_
