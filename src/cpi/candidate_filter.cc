#include "cpi/candidate_filter.h"

#include <algorithm>
#include <span>

namespace cfl {

bool CandVerify(const Graph& q, VertexId u, const Graph& data, VertexId v) {
  // Constant-time MND filter first (Algorithm 6 line 1).
  if (data.MaxNeighborDegree(v) < q.MaxNeighborDegree(u)) return false;
  // NLF filter (lines 2-4): every neighbor-label requirement of u must be
  // met by v. Query NLF runs are few, data lookups are O(log).
  for (const Graph::LabelCount& need : q.NeighborLabelCounts(u)) {
    if (data.NeighborLabelCount(v, need.label) < need.count) return false;
  }
  return true;
}

uint64_t CountVerifiedCandidates(const Graph& q, VertexId u,
                                 const Graph& data) {
  const std::span<const VertexId> vs = data.VerticesWithLabel(q.label(u));
  const uint32_t min_degree = q.StructuralDegree(u);
  uint64_t count = 0;
  for (const VertexId v : vs) {
    if (data.degree(v) >= min_degree && CandVerify(q, u, data, v)) ++count;
  }
  return count;
}

LabelDegreeIndex::LabelDegreeIndex(const Graph& data) {
  degrees_by_label_.resize(data.NumLabels());
  for (Label l = 0; l < data.NumLabels(); ++l) {
    std::span<const VertexId> vs = data.VerticesWithLabel(l);
    std::vector<uint32_t>& ds = degrees_by_label_[l];
    ds.reserve(vs.size());
    for (VertexId v : vs) ds.push_back(data.degree(v));
    std::sort(ds.begin(), ds.end());
  }
}

uint64_t LabelDegreeIndex::CountAtLeast(Label l, uint32_t min_degree) const {
  if (l >= degrees_by_label_.size()) return 0;
  const std::vector<uint32_t>& ds = degrees_by_label_[l];
  auto it = std::lower_bound(ds.begin(), ds.end(), min_degree);
  return static_cast<uint64_t>(ds.end() - it);
}

}  // namespace cfl
