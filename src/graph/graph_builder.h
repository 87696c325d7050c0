// Mutable builder producing immutable `Graph` instances.
//
// Usage:
//   GraphBuilder b(/*num_vertices=*/5);
//   b.SetLabel(0, 2); ...
//   b.AddEdge(0, 1); ...
//   Graph g = std::move(b).Build();
//
// The builder deduplicates edges and lays them out as a (label, id)-sorted
// CSR; `Graph::DeriveIndexes` (graph/derived_index.cc) then fills the
// label-run / label / NLF / max-neighbor-degree / hub-probe indexes that
// `Graph` exposes, for every vertex. Self-loops are rejected unless
// `AllowSelfLoops` was called (they are only meaningful for compressed
// graphs whose clique classes loop to themselves).

#ifndef CFL_GRAPH_GRAPH_BUILDER_H_
#define CFL_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace cfl {

class GraphBuilder {
 public:
  explicit GraphBuilder(uint32_t num_vertices);

  // All vertices default to label 0.
  void SetLabel(VertexId v, Label l);

  // Adds the undirected edge (u, v). Duplicate additions are coalesced at
  // Build time. u == v requires AllowSelfLoops().
  void AddEdge(VertexId u, VertexId v);

  // Permits self-loops (used by the data-graph compressor).
  void AllowSelfLoops() { allow_self_loops_ = true; }

  // Assigns vertex multiplicities (compressed graphs). Must have size
  // num_vertices; every entry must be >= 1.
  void SetMultiplicities(std::vector<uint32_t> multiplicity);

  uint32_t num_vertices() const { return num_vertices_; }

  // Finalizes the graph. The builder is left in a moved-from state.
  Graph Build() &&;

 private:
  uint32_t num_vertices_;
  std::vector<Label> labels_;
  std::vector<std::pair<VertexId, VertexId>> edges_;  // both directions
  std::vector<uint32_t> multiplicity_;
  bool allow_self_loops_ = false;
};

// Convenience: builds a graph from labels and an undirected edge list.
Graph MakeGraph(const std::vector<Label>& labels,
                const std::vector<std::pair<VertexId, VertexId>>& edges);

// Vertex-induced subgraph on `vertices` (which must be distinct). Local
// vertex i of the result corresponds to vertices[i]; labels and
// multiplicities carry over. If `to_original` is non-null it receives the
// local-to-original id mapping (a copy of `vertices`).
Graph InducedSubgraph(const Graph& g, const std::vector<VertexId>& vertices,
                      std::vector<VertexId>* to_original = nullptr);

}  // namespace cfl

#endif  // CFL_GRAPH_GRAPH_BUILDER_H_
