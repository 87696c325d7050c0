// Fixture: a raw assert() outside src/check/ must fire `raw-assert`.
// Never compiled — checked-in input for tests/analyze_test.cc.
#include <cassert>

int Square(int x) {
  assert(x >= 0);
  return x * x;
}
