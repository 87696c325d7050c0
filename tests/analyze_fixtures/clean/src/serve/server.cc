// Fixture: one UPDATE. The chain commit_mu_ (20) -> DynamicGraph::mu_ (22)
// ascends through dyn_.Apply; the hook's PlanCache::mu_ (30) is taken
// under both. The reply is written after the commit lock is released.
#include "serve/server.h"

namespace fix {

void QueryServer::HandleUpdate(int fd, const Graph* next) {
  uint64_t invalidated = 0;
  {
    MutexLock lock(commit_mu_);
    const Graph* base = dyn_.Acquire();
    if (base != next) {
      dyn_.Apply(next, [&](uint64_t epoch) {
        invalidated = cache_.Invalidate(epoch);
      });
    }
    updates_ += 1;
  }
  write(fd, &invalidated, sizeof(invalidated));
}

}  // namespace fix
