// Counters for the dynamic-graph subsystem (src/dyn/).
//
// Lives in obs (not dyn) for the same reason MatchStats does: the serve
// layer reports these on its STATS line and must be able to name the type
// without depending on the subsystem that fills it. Plain fields, no
// atomics — DynamicGraph mutates them under its own mutex and hands out
// copies, so readers never see torn values.

#ifndef CFL_OBS_DYN_COUNTERS_H_
#define CFL_OBS_DYN_COUNTERS_H_

#include <cstdint>

namespace cfl::obs {

struct DynCounters {
  // Lifetime total: deltas folded into a fresh snapshot.
  uint64_t folds = 0;
};

}  // namespace cfl::obs

#endif  // CFL_OBS_DYN_COUNTERS_H_
