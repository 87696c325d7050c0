// Monotonic-clock facade for the whole library.
//
// Every wall-clock read in src/, bench/, and tools/ goes through this header
// (or through src/harness/stopwatch.h, the pre-existing harness-side timer):
// tools/cfl_analyze rule `raw-clock` rejects direct std::chrono::steady_clock
// use anywhere else. Centralizing the reads keeps phase accounting honest —
// a timer that bypasses the stats layer produces numbers MatchStats cannot
// reconcile against total wall time — and gives one place to swap the clock
// source (e.g. a coarse clock or TSC reads) for all timers at once.

#ifndef CFL_OBS_CLOCK_H_
#define CFL_OBS_CLOCK_H_

#include <chrono>

namespace cfl::obs {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline TimePoint Now() { return Clock::now(); }

// Seconds from `from` to `to` (negative if `to` precedes `from`).
inline double SecondsBetween(TimePoint from, TimePoint to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double SecondsSince(TimePoint from) {
  return SecondsBetween(from, Now());
}

// `at + seconds`, for deadline arithmetic.
inline TimePoint AfterSeconds(TimePoint at, double seconds) {
  return at + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

// Lap-style monotonic timer: Lap() returns the seconds since construction or
// the previous Lap and restarts. The phase timers of MatchStats are laps of
// one WallTimer, so consecutive phases can never overlap or double-count.
class WallTimer {
 public:
  WallTimer() : start_(Now()) {}

  double Lap() {
    TimePoint now = Now();
    double s = SecondsBetween(start_, now);
    start_ = now;
    return s;
  }

  double Elapsed() const { return SecondsSince(start_); }

 private:
  TimePoint start_;
};

}  // namespace cfl::obs

#endif  // CFL_OBS_CLOCK_H_
