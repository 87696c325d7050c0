// Fixture: the epoch-versioned graph in the shape of src/dyn. mu_ (22)
// guards the current snapshot and epoch; the server's UPDATE path takes it
// nested under commit_mu_ (20), and the commit hook it runs under mu_
// takes PlanCache::mu_ (30). dyn may include only graph and validate.
#ifndef FIX_DYN_DYNAMIC_GRAPH_H_
#define FIX_DYN_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <functional>

#include "check/check.h"
#include "graph/graph.h"

namespace fix {

class DynamicGraph {
 public:
  const Graph* Acquire();
  uint64_t Apply(const Graph* next,
                 const std::function<void(uint64_t)>& on_commit);

 private:
  Mutex mu_ CFL_LOCK_LEVEL(22);
  const Graph* current_ = nullptr;
  uint64_t epoch_ = 0;
};

}  // namespace fix

#endif  // FIX_DYN_DYNAMIC_GRAPH_H_
