// Fixture: a benchmark program timing through the obs facade (a mutation seed
// reads steady_clock directly).
#include "obs/clock.h"

double TimeOnce() {
  const auto start = obs::Now();
  return obs::SecondsSince(start);
}
