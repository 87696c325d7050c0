// Fixture: a raw steady_clock read outside src/obs/ and src/harness/ must
// fire `raw-clock` (twice: the type and the now() call). Never compiled —
// checked-in input for tests/analyze_test.cc.
#include <chrono>

double ElapsedSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
