#include "dyn/fold.h"

#include <algorithm>
#include <vector>

#include "check/check.h"
#include "graph/vertex_ranges.h"

namespace cfl::dyn {

// Friend of Graph: lays down the post-delta CSR and labels, then hands the
// derived indexes to Graph::DeriveIndexes with the base and the touched set.
class GraphFolder {
 public:
  GraphFolder(const Graph& base, const GraphDelta& delta)
      : base_(base), delta_(delta) {}

  Graph Fold(DirtyLabels* dirty) {
    CFL_CHECK(delta_.sealed()) << " FoldDelta requires a sealed delta";
    CFL_CHECK(&delta_.base() == &base_)
        << " FoldDelta: delta is bound to a different base graph";

    Graph g;
    const uint32_t n = delta_.NewVertices();

    // Labels: base labels plus the batch's appended vertices.
    g.labels_.reserve(n);
    g.labels_.assign(base_.labels_.begin(), base_.labels_.end());
    for (uint32_t i = 0; i < delta_.AddedVertices(); ++i) {
      g.labels_.push_back(delta_.AddedVertexLabel(i));
    }

    // CSR in one appending pass over the touched list: each untouched id
    // range copies its base slice whole and shifts its offsets; touched
    // vertices (batch-added ids among them) take the delta merge.
    g.offsets_.assign(n + 1, 0);
    g.neighbors_.reserve(base_.neighbors_.size() + delta_.AddedEdges() * 2 -
                         delta_.RemovedEdges() * 2);
    std::vector<VertexId> merged;
    ForEachVertexRange(
        n, delta_.Touched(),
        [&](uint32_t begin, uint32_t end) {
          g.neighbors_.insert(
              g.neighbors_.end(),
              base_.neighbors_.begin() + base_.offsets_[begin],
              base_.neighbors_.begin() + base_.offsets_[end]);
          ShiftOffsets(base_.offsets_.data(), begin, end, g.offsets_.data());
        },
        [&](VertexId v) {
          delta_.MergedNeighbors(v, &merged);
          g.neighbors_.insert(g.neighbors_.end(), merged.begin(),
                              merged.end());
          g.offsets_[v + 1] = g.neighbors_.size();
        });

    // Plain graphs only (no loops, no multiplicities — delta.cc rejects
    // both), so the edge count is pure arithmetic.
    g.num_edges_ =
        base_.NumEdges() + delta_.AddedEdges() - delta_.RemovedEdges();

    std::vector<VertexId> mnd_recomputed =
        g.DeriveIndexes(&base_, delta_.Touched());
    if (dirty != nullptr) ComputeDirty(g, mnd_recomputed, dirty);
    return g;
  }

 private:
  // Dirty labels: labels of touched vertices, plus labels of untouched
  // vertices whose mnd moved (their candidate memberships can flip under
  // the paper's mnd pruning even though their own adjacency is unchanged).
  // Only the untouched vertices DeriveIndexes recomputed can have moved.
  void ComputeDirty(const Graph& g, std::span<const VertexId> mnd_recomputed,
                    DirtyLabels* dirty) {
    dirty->labels.clear();
    for (VertexId t : delta_.Touched()) dirty->labels.push_back(g.label(t));
    for (VertexId v : mnd_recomputed) {
      if (g.MaxNeighborDegree(v) != base_.MaxNeighborDegree(v)) {
        dirty->labels.push_back(g.label(v));
      }
    }
    std::sort(dirty->labels.begin(), dirty->labels.end());
    dirty->labels.erase(
        std::unique(dirty->labels.begin(), dirty->labels.end()),
        dirty->labels.end());
  }

  const Graph& base_;
  const GraphDelta& delta_;
};

Graph FoldDelta(const Graph& base, const GraphDelta& delta,
                DirtyLabels* dirty) {
  return GraphFolder(base, delta).Fold(dirty);
}

}  // namespace cfl::dyn
