// Fixture: library code (src/) including <thread> outside src/parallel/
// and <iostream> outside src/check/ must fire `banned-include` twice.
// Never compiled — checked-in input for tests/analyze_test.cc.
#ifndef CFL_TESTS_LINT_FIXTURES_BAD_INCLUDE_H_
#define CFL_TESTS_LINT_FIXTURES_BAD_INCLUDE_H_

#include <iostream>
#include <thread>

#endif  // CFL_TESTS_LINT_FIXTURES_BAD_INCLUDE_H_
