#include "graph/graph_builder.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "check/check.h"

namespace cfl {

GraphBuilder::GraphBuilder(uint32_t num_vertices)
    : num_vertices_(num_vertices), labels_(num_vertices, 0) {}

void GraphBuilder::SetLabel(VertexId v, Label l) {
  CFL_DCHECK_LT(v, num_vertices_) << " SetLabel on out-of-range vertex";
  labels_[v] = l;
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    throw std::out_of_range("GraphBuilder::AddEdge: vertex id out of range");
  }
  if (u == v) {
    if (!allow_self_loops_) {
      throw std::invalid_argument(
          "GraphBuilder::AddEdge: self-loop without AllowSelfLoops()");
    }
    edges_.emplace_back(u, u);
    return;
  }
  edges_.emplace_back(u, v);
  edges_.emplace_back(v, u);
}

void GraphBuilder::SetMultiplicities(std::vector<uint32_t> multiplicity) {
  if (multiplicity.size() != num_vertices_) {
    throw std::invalid_argument(
        "GraphBuilder::SetMultiplicities: size mismatch");
  }
  for (uint32_t m : multiplicity) {
    if (m == 0) {
      throw std::invalid_argument(
          "GraphBuilder::SetMultiplicities: multiplicity must be >= 1");
    }
  }
  multiplicity_ = std::move(multiplicity);
}

Graph GraphBuilder::Build() && {
  Graph g;
  const uint32_t n = num_vertices_;
  g.labels_ = std::move(labels_);
  g.multiplicity_ = std::move(multiplicity_);

  // Deduplicate and sort directed arcs by (source, target label, target id):
  // the counting sort below then lands each vertex's neighbors already in
  // the label-partitioned order `Graph` promises.
  std::sort(edges_.begin(), edges_.end(),
            [&](const std::pair<VertexId, VertexId>& a,
                const std::pair<VertexId, VertexId>& b) {
              if (a.first != b.first) return a.first < b.first;
              if (g.labels_[a.second] != g.labels_[b.second]) {
                return g.labels_[a.second] < g.labels_[b.second];
              }
              return a.second < b.second;
            });
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  g.offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) g.offsets_[u + 1]++;
  for (uint32_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.neighbors_.resize(edges_.size());
  {
    std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const auto& [u, v] : edges_) g.neighbors_[cursor[u]++] = v;
  }

  // Undirected edge count: non-loop arcs appear twice, loops once.
  uint64_t loops = 0;
  for (const auto& [u, v] : edges_) {
    if (u == v) ++loops;
  }
  g.num_edges_ = (edges_.size() - loops) / 2 + loops;
  // The arc list is dead from here on: free it before the indexes grow.
  std::vector<std::pair<VertexId, VertexId>>().swap(edges_);

  g.DeriveIndexes(/*base=*/nullptr, {});
  return g;
}

Graph MakeGraph(const std::vector<Label>& labels,
                const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder b(static_cast<uint32_t>(labels.size()));
  for (uint32_t v = 0; v < labels.size(); ++v) b.SetLabel(v, labels[v]);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return std::move(b).Build();
}

Graph InducedSubgraph(const Graph& g, const std::vector<VertexId>& vertices,
                      std::vector<VertexId>* to_original) {
  std::unordered_map<VertexId, uint32_t> local;
  local.reserve(vertices.size() * 2);
  for (uint32_t i = 0; i < vertices.size(); ++i) local.emplace(vertices[i], i);

  GraphBuilder b(static_cast<uint32_t>(vertices.size()));
  if (g.HasMultiplicities()) b.AllowSelfLoops();
  std::vector<uint32_t> mult;
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    b.SetLabel(i, g.label(vertices[i]));
    if (g.HasMultiplicities()) mult.push_back(g.multiplicity(vertices[i]));
    for (VertexId w : g.Neighbors(vertices[i])) {
      auto it = local.find(w);
      if (it == local.end()) continue;
      if (it->second >= i) b.AddEdge(i, it->second);  // each edge once
    }
  }
  if (g.HasMultiplicities()) b.SetMultiplicities(std::move(mult));
  if (to_original != nullptr) *to_original = vertices;
  return std::move(b).Build();
}

}  // namespace cfl
