// Fixture: DynamicGraph's two lock sites.
#include "dyn/dynamic_graph.h"

namespace fix {

const Graph* DynamicGraph::Acquire() {
  MutexLock lock(mu_);
  return current_;
}

uint64_t DynamicGraph::Apply(const Graph* next,
                             const std::function<void(uint64_t)>& on_commit) {
  MutexLock lock(mu_);
  current_ = next;
  epoch_ += 1;
  on_commit(epoch_);
  return epoch_;
}

}  // namespace fix
