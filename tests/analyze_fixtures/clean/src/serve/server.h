// Fixture: the server's UPDATE path in the shape of src/serve/server.h —
// commit_mu_ (20) serialises acquire + delta + commit, and a stop flag.
#ifndef FIX_SERVE_SERVER_H_
#define FIX_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>

#include "check/check.h"
#include "dyn/dynamic_graph.h"
#include "serve/plan_cache.h"

namespace fix {

class QueryServer {
 public:
  void HandleUpdate(int fd, const Graph* next);
  bool Stopping() { return stop_.load(std::memory_order_relaxed); }

 private:
  Mutex commit_mu_ CFL_LOCK_LEVEL(20);
  DynamicGraph dyn_;
  PlanCache cache_;
  uint64_t updates_ = 0;
  std::atomic<bool> stop_ CFL_ATOMIC_INTENT(flag){false};
};

}  // namespace fix

#endif  // FIX_SERVE_SERVER_H_
