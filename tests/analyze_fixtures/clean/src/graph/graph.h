// Fixture: an immutable-after-build structure. Constructors, assignment
// and const accessors are what a frozen class may expose (mutation seeds
// strip a const and swap an include for a banned one).
#ifndef FIX_GRAPH_GRAPH_H_
#define FIX_GRAPH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "check/check.h"

namespace fix {

class Graph {
 public:
  CFL_IMMUTABLE_AFTER_BUILD(Graph);

  Graph() = default;
  explicit Graph(std::vector<uint32_t> edges) : edges_(edges) {}
  Graph& operator=(const Graph&) = default;

  uint64_t NumEdges() const { return edges_.size(); }

 private:
  std::vector<uint32_t> edges_;
};

}  // namespace fix

#endif  // FIX_GRAPH_GRAPH_H_
