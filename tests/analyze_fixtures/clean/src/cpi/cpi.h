// Fixture: a frozen index, the mutable scratch its construction reuses,
// and a function that only reads its graph (mutation seeds make the
// scratch `mutable` and cast the graph's constness away).
#ifndef FIX_CPI_CPI_H_
#define FIX_CPI_CPI_H_

#include <cstdint>
#include <vector>

#include "check/check.h"
#include "cpi/util.h"
#include "graph/graph.h"

namespace fix {

class Cpi {
 public:
  CFL_IMMUTABLE_AFTER_BUILD(Cpi);

  uint32_t NumCandidates() const { return CheckedU32(cand_.size()); }

 private:
  std::vector<uint32_t> cand_;
};

class Scratch {
 public:
  void Reset() { buf_.clear(); }

 private:
  std::vector<uint32_t> buf_;
};

inline uint64_t CountEdges(const Graph& g) {
  const Graph& graph = g;
  return graph.NumEdges();
}

}  // namespace fix

#endif  // FIX_CPI_CPI_H_
