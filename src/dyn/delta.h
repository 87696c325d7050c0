// One batch of mutations against an immutable base `Graph`.
//
// The engine is immutable-per-epoch (DESIGN.md §12): nothing ever mutates a
// built Graph in place. Instead a `GraphDelta` records edge/vertex
// insertions and deletions relative to one specific base snapshot,
// validates them eagerly (duplicate edge, missing edge, dead vertex — the
// server turns these into ERR replies instead of corrupting state), and
// after `Seal()` exposes the normalized view the fold consumes: per touched
// vertex, the added and removed neighbors sorted by (label, id) — exactly
// the order of the base CSR's label-partitioned adjacency runs, so
// `MergedNeighborsWithLabel` can produce the post-delta neighbor list as a
// single linear three-way merge (base run ∪ added − removed) without ever
// sorting. dyn/fold.cc folds a sealed delta into a fresh CSR with the same
// merge; tests/dyn_epoch_test.cc sweeps the merge against a std::set
// reference.
//
// Semantics:
//   * AddVertex appends ids after the base's (ids are stable forever);
//     new labels may extend the label space.
//   * RemoveVertex removes every incident edge and tombstones the vertex:
//     the id, and its label-index entry, survive (so a from-scratch rebuild
//     over the same vertex set stays bit-comparable — the differential
//     oracle depends on this), but its degree drops to zero and further ops
//     on it are rejected.
//   * Add/RemoveEdge of the same pair within one batch cancel out, so a
//     random op stream normalizes to the net difference.
//
// A delta is bound to the base it was constructed from; DynamicGraph
// rejects stale deltas (base no longer current) instead of guessing.

#ifndef CFL_DYN_DELTA_H_
#define CFL_DYN_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"

namespace cfl::dyn {

// Labels whose candidate populations changed under a delta: the labels of
// every touched vertex (its adjacency, degree, and NLF runs changed) plus
// the labels of untouched neighbors whose max-neighbor-degree moved. A
// cached plan whose query labels are disjoint from this set has a
// bit-identical embedding set before and after the delta (no edge between
// two unchanged-label vertices can have changed without touching them), so
// the plan cache drops exactly the intersecting entries (DESIGN.md §12).
struct DirtyLabels {
  std::vector<Label> labels;  // sorted, deduped

  bool Contains(Label l) const;
  // True iff any label in `sorted` (ascending) is dirty.
  bool Intersects(std::span<const Label> sorted) const;
};

class GraphDelta {
 public:
  // `base` must outlive the delta.
  explicit GraphDelta(const Graph& base);

  GraphDelta(GraphDelta&&) = default;
  GraphDelta& operator=(GraphDelta&&) = default;

  // --- Mutation recording (before Seal) ---------------------------------
  //
  // Each returns false and sets error() on an invalid op; the delta is
  // unchanged and stays usable (the server reports the op, not the batch).

  // Appends a vertex (id = base vertices + added so far; reported via
  // `id_out` when non-null). Isolated until edges are added.
  bool AddVertex(Label label, VertexId* id_out = nullptr);

  // Tombstones `v`: drops every currently-present incident edge.
  bool RemoveVertex(VertexId v);

  bool AddEdge(VertexId u, VertexId v);
  bool RemoveEdge(VertexId u, VertexId v);

  const std::string& error() const { return error_; }

  // --- Overlay queries (valid any time) ---------------------------------

  const Graph& base() const { return *base_; }
  uint32_t BaseVertices() const { return base_->NumVertices(); }
  uint32_t NewVertices() const { return BaseVertices() + AddedVertices(); }

  // Label of `v` in the post-delta graph (base label or added-vertex label).
  Label LabelOf(VertexId v) const;

  bool VertexRemoved(VertexId v) const {
    return removed_vertices_.count(v) != 0;
  }
  bool VertexAlive(VertexId v) const {
    return v < NewVertices() && !VertexRemoved(v);
  }

  // Edge presence in the post-delta graph (base minus removals plus adds).
  bool HasEdgeNow(VertexId u, VertexId v) const;

  // Net op counts.
  uint32_t AddedVertices() const {
    return static_cast<uint32_t>(added_labels_.size());
  }
  uint32_t RemovedVertices() const {
    return static_cast<uint32_t>(removed_vertices_.size());
  }
  uint64_t AddedEdges() const { return added_edges_; }
  uint64_t RemovedEdges() const { return removed_edges_; }
  Label AddedVertexLabel(uint32_t i) const { return added_labels_[i]; }

  bool empty() const {
    return added_labels_.empty() && removed_vertices_.empty() &&
           added_edges_ == 0 && removed_edges_ == 0;
  }

  // --- Sealed views (fold + merge; Seal first) --------------------------

  // Freezes the delta and builds the normalized per-vertex views below.
  // Further mutations are rejected. Idempotent.
  void Seal();
  bool sealed() const { return sealed_; }

  // Vertices whose adjacency changed (endpoints of every net edge op,
  // every tombstone, every added vertex), ascending. Sealed only.
  // cfl-analyze: allow(span-escape) views into the sealed (frozen) delta
  std::span<const VertexId> Touched() const;
  bool IsTouched(VertexId v) const;

  // Net added / removed neighbors of `v`, sorted by (post-delta label, id).
  // Empty spans for untouched vertices. Sealed only.
  // cfl-analyze: allow(span-escape) views into the sealed (frozen) delta
  std::span<const VertexId> Added(VertexId v) const;
  // cfl-analyze: allow(span-escape) views into the sealed (frozen) delta
  std::span<const VertexId> Removed(VertexId v) const;

  // The on-the-fly merge: neighbors of `v` with label `l` in the
  // post-delta graph, ascending by id — the base CSR label run merged with
  // the delta, never materializing the rest of the graph. Appends to *out.
  void MergedNeighborsWithLabel(VertexId v, Label l,
                                std::vector<VertexId>* out) const;

  // Full post-delta adjacency of `v`, (label, id)-sorted like the CSR.
  // Replaces *out.
  void MergedNeighbors(VertexId v, std::vector<VertexId>* out) const;

 private:
  struct PerVertex {
    // Pre-seal: hash-set staging. Post-seal: the sorted vectors.
    std::unordered_set<VertexId> add_set;
    std::unordered_set<VertexId> remove_set;
    std::vector<VertexId> added;    // (label, id)-sorted at Seal
    std::vector<VertexId> removed;  // (label, id)-sorted at Seal
  };

  bool Fail(const std::string& message);
  // Net-cancelling edge flip shared by Add/RemoveEdge and RemoveVertex.
  void RecordAdd(VertexId u, VertexId v);
  void RecordRemove(VertexId u, VertexId v);
  const PerVertex* Find(VertexId v) const;

  const Graph* base_;
  bool sealed_ = false;
  std::string error_;

  std::vector<Label> added_labels_;             // one per added vertex
  std::unordered_set<VertexId> removed_vertices_;
  std::unordered_map<VertexId, PerVertex> per_vertex_;
  uint64_t added_edges_ = 0;
  uint64_t removed_edges_ = 0;

  std::vector<VertexId> touched_;  // built at Seal, ascending
};

}  // namespace cfl::dyn

#endif  // CFL_DYN_DELTA_H_
