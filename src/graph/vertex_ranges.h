// Walking a folded epoch's vertex ids a range at a time.
//
// A fold (dyn/fold.h) changes the adjacency of a short, sorted list of
// touched vertices; every other id keeps the base epoch's bytes. The fold's
// CSR pass and Graph::DeriveIndexes both walk that list with
// ForEachVertexRange, so an untouched id range costs one bulk copy per
// array instead of a per-vertex test, and the work outside those copies is
// proportional to the touched list.

#ifndef CFL_GRAPH_VERTEX_RANGES_H_
#define CFL_GRAPH_VERTEX_RANGES_H_

#include <cstdint>
#include <span>

#include "graph/graph.h"

namespace cfl {

// Visits the ids [0, n) in ascending order: `copy(begin, end)` once per
// maximal range [begin, end) holding no id of `touched`, and `derive(v)`
// for each id of `touched`. `touched` must be ascending and inside [0, n).
template <typename Copy, typename Derive>
void ForEachVertexRange(uint32_t n, std::span<const VertexId> touched,
                        Copy&& copy, Derive&& derive) {
  uint32_t next = 0;
  for (VertexId t : touched) {
    if (next < t) copy(next, t);
    derive(t);
    next = t + 1;
  }
  if (next < n) copy(next, n);
}

// Fills out[begin + 1 .. end] for an id range [begin, end) whose slices
// were copied whole from a base CSR-style array: each offset is the base's
// moved by the one shift that maps base[begin] onto out[begin], which must
// already be written. Offsets are unsigned, so a negative shift wraps and
// unwraps exactly.
inline void ShiftOffsets(const uint64_t* base, uint32_t begin, uint32_t end,
                         uint64_t* out) {
  const uint64_t shift = out[begin] - base[begin];
  for (uint32_t v = begin; v < end; ++v) out[v + 1] = base[v + 1] + shift;
}

}  // namespace cfl

#endif  // CFL_GRAPH_VERTEX_RANGES_H_
