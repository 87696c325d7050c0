// Fixture: the plan cache's mutex at level 30, above both locks an UPDATE
// holds when the commit hook invalidates plans.
#ifndef FIX_SERVE_PLAN_CACHE_H_
#define FIX_SERVE_PLAN_CACHE_H_

#include <cstdint>

#include "check/check.h"

namespace fix {

class PlanCache {
 public:
  uint64_t Invalidate(uint64_t epoch);

 private:
  Mutex mu_ CFL_LOCK_LEVEL(30);
  uint64_t last_epoch_ = 0;
  uint64_t plans_ = 0;
};

inline uint64_t PlanCache::Invalidate(uint64_t epoch) {
  MutexLock lock(mu_);
  last_epoch_ = epoch;
  return plans_;
}

}  // namespace fix

#endif  // FIX_SERVE_PLAN_CACHE_H_
