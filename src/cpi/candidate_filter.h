// Candidate filters (paper Section A.6 and Algorithm 6).
//
// A data vertex v can be a candidate for query vertex u only if it passes,
// in increasing order of cost:
//   1. label filter:   l_G(v) == l_q(u)
//   2. degree filter:  d_G(v) >= d_q(u)
//   3. neighbor-label mask, O(1): every bit (l & 63) of u's non-zero NLF
//      labels is set in v's mask (Graph::NeighborLabelMask) — a necessary
//      condition for 5, since labels alias modulo 64
//   4. maximum-neighbor-degree (MND) filter (Lemma A.1, O(1)):
//      mnd_G(v) >= mnd_q(u)
//   5. NLF (neighbor label frequency) filter: for every label l among u's
//      neighbors, d_G(v, l) >= d_q(u, l)
//
// `CandVerify` is filters 4+5 (Algorithm 6); callers apply 1+2 while
// scanning, and the CPI builder's seeding loop (cpi_builder.cc) also
// applies 3 there, before a vertex is marked. `LabelDegreeIndex` answers
// "how many data vertices have label l and degree >= d" in O(log), which
// root selection (A.6) uses to estimate candidate counts cheaply.

#ifndef CFL_CPI_CANDIDATE_FILTER_H_
#define CFL_CPI_CANDIDATE_FILTER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace cfl {

// Algorithm 6: MND filter then NLF filter. Assumes the label filter already
// passed; the degree filter is implied by NLF but callers typically check it
// first anyway since it is cheaper.
bool CandVerify(const Graph& q, VertexId u, const Graph& data, VertexId v);

// Number of data vertices passing all four filters for u — the accurate
// score root selection (A.6) uses for its shortlist.
uint64_t CountVerifiedCandidates(const Graph& q, VertexId u,
                                 const Graph& data);

// Label + degree precheck (paper Algorithm 3 lines 1 and 12).
inline bool LabelDegreeFilter(const Graph& q, VertexId u, const Graph& data,
                              VertexId v) {
  return data.label(v) == q.label(u) &&
         data.degree(v) >= q.StructuralDegree(u);
}

// Per-label sorted degree lists over a data graph; build once per data
// graph, reuse across queries.
class LabelDegreeIndex {
 public:
  explicit LabelDegreeIndex(const Graph& data);

  // Number of data vertices with label `l` and effective degree >= `min_degree`.
  uint64_t CountAtLeast(Label l, uint32_t min_degree) const;

 private:
  std::vector<std::vector<uint32_t>> degrees_by_label_;  // each sorted asc
};

}  // namespace cfl

#endif  // CFL_CPI_CANDIDATE_FILTER_H_
