// Core graph representation for the CFL-Match library.
//
// The paper (Bi et al., SIGMOD 2016) operates on vertex-labeled undirected
// graphs. `Graph` is an immutable CSR (compressed sparse row) structure
// whose layout is tuned for the access patterns of subgraph matching:
//   * label-partitioned adjacency: each vertex's neighbor list is sorted by
//     (label, id), and a per-vertex label-run index makes
//     `NeighborsWithLabel(v, l)` a contiguous span — the CPI builder's
//     counting-intersection loops scan only the one label that can survive
//     instead of the whole neighborhood,
//   * O(1) edge-existence probes against hub vertices (per-hub bitsets,
//     see below), falling back to an O(log d) binary search inside the
//     matching label run otherwise,
//   * O(1) label lookup and candidate seeding via a label index,
//   * O(log L) neighbor-label-frequency (NLF) lookups for CandVerify
//     (paper Algorithm 6), one entry per label run so the NLF shares the
//     run index's offsets,
//   * a 64-bit neighbor-label mask per vertex, a necessary condition for
//     NLF that candidate seeding tests in O(1),
//   * O(1) max-neighbor-degree lookups (paper Lemma A.1).
//
// Hub probes: vertices whose structural degree reaches kHubDegreeThreshold
// carry a direct-indexed bitset row over all vertex ids, so the
// enumerator's backward-edge checks against high-degree vertices — the worst
// case for binary search — are a single word load. Rows live in one shared
// arena, materialized only when the total fits a fixed space budget (the
// threshold doubles until it does), so the index is bounded regardless of
// the degree distribution.
//
// `Graph` doubles as the representation of *compressed* data graphs produced
// by the structural-equivalence merging of Ren & Wang [14] (the "-Boost"
// variants): each vertex may carry a multiplicity >= 1 counting how many
// original vertices it stands for, and a vertex whose members form a clique
// carries a self-loop. All degree-like accessors report *effective* values
// (as if the graph were expanded), which is exactly what candidate filters
// must compare against; `StructuralDegree` reports the raw CSR degree.
//
// Instances are created through `GraphBuilder` (graph_builder.h) or
// `dyn::FoldDelta` (dyn/fold.h). Both lay down the CSR and labels, then call
// `DeriveIndexes` (graph/derived_index.cc), the one place every derived
// per-vertex index is computed. Once built, a Graph is immutable: every
// accessor is const and writes nothing (no mutable members, no lazy
// caches), so a single instance is safe to share by reference across
// concurrent enumeration workers — the counting driver
// (match/count_driver.h) depends on this contract. The
// CFL_IMMUTABLE_AFTER_BUILD marker below makes the contract machine-checked:
// tools/cfl_lint rejects non-const public methods, mutable members, and
// const_cast in marked classes (see check/thread_annotations.h).

#ifndef CFL_GRAPH_GRAPH_H_
#define CFL_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "check/thread_annotations.h"

namespace cfl {

using VertexId = uint32_t;
using Label = uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

class GraphBuilder;

namespace dyn {
class GraphFolder;  // dyn/fold.h: folds a GraphDelta into a fresh epoch CSR
}  // namespace dyn

class Graph {
 public:
  CFL_IMMUTABLE_AFTER_BUILD(Graph);

  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  // --- Basic shape ------------------------------------------------------

  uint32_t NumVertices() const { return static_cast<uint32_t>(labels_.size()); }

  // Number of undirected edges (a self-loop counts as one edge).
  uint64_t NumEdges() const { return num_edges_; }

  // Labels are dense in [0, NumLabels()).
  uint32_t NumLabels() const { return num_labels_; }

  Label label(VertexId v) const { return labels_[v]; }

  // --- Adjacency --------------------------------------------------------

  // Neighbors of v, sorted by (label, id): one contiguous ascending-id run
  // per neighbor label, runs ordered by label. If the graph has a self-loop
  // at v (compressed clique class), v itself appears in its label's run.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  // Neighbors of v with label l: a contiguous span of the (label, id)-sorted
  // adjacency, ascending by id. Empty if v has no l-labeled neighbor.
  // O(log |L_N(v)|) via the per-vertex label-run index.
  std::span<const VertexId> NeighborsWithLabel(VertexId v, Label l) const {
    const LabelRun* first = runs_.data() + run_offsets_[v];
    const LabelRun* last = runs_.data() + run_offsets_[v + 1];
    const LabelRun* it = std::lower_bound(
        first, last, l,
        [](const LabelRun& run, Label want) { return run.label < want; });
    if (it == last || it->label != l) return {};
    const uint64_t begin = offsets_[v] + it->begin;
    const uint64_t end =
        (it + 1 != last) ? offsets_[v] + (it + 1)->begin : offsets_[v + 1];
    return {neighbors_.data() + begin, neighbors_.data() + end};
  }

  // Number of entries in v's adjacency list.
  uint32_t StructuralDegree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  // Degree of v in the (conceptually expanded) graph: the number of distinct
  // vertices adjacent to any member of v. Equal to StructuralDegree for
  // plain graphs.
  uint32_t degree(VertexId v) const { return effective_degree_[v]; }

  // True iff (u, v) is an edge. u == v tests for a self-loop. O(1) when
  // either endpoint is a hub; otherwise a binary search inside the matching
  // label run of the lower-degree endpoint.
  bool HasEdge(VertexId u, VertexId v) const {
    if (!hub_bits_.empty()) {
      const uint32_t hu = hub_index_[u];
      if (hu != kNoHub) return HubBit(hu, v);
      const uint32_t hv = hub_index_[v];
      if (hv != kNoHub) return HubBit(hv, u);
    }
    if (StructuralDegree(u) > StructuralDegree(v)) std::swap(u, v);
    std::span<const VertexId> run = NeighborsWithLabel(u, labels_[v]);
    return std::binary_search(run.begin(), run.end(), v);
  }

  // --- Multiplicities (compressed graphs) --------------------------------

  bool HasMultiplicities() const { return !multiplicity_.empty(); }

  // How many original vertices this vertex stands for (1 in plain graphs).
  uint32_t multiplicity(VertexId v) const {
    return multiplicity_.empty() ? 1u : multiplicity_[v];
  }

  // Total vertex count of the conceptually expanded graph.
  uint64_t EffectiveNumVertices() const { return effective_num_vertices_; }

  // --- Label index -------------------------------------------------------

  // All vertices with label l, sorted ascending.
  std::span<const VertexId> VerticesWithLabel(Label l) const {
    if (l >= num_labels_) return {};
    return {label_vertices_.data() + label_offsets_[l],
            label_vertices_.data() + label_offsets_[l + 1]};
  }

  // Number of (expanded) vertices with label l; the paper's label frequency.
  uint64_t LabelFrequency(Label l) const {
    return l < num_labels_ ? label_frequency_[l] : 0;
  }

  // --- Filters' support structures ---------------------------------------

  // Number of (expanded) neighbors of v with label l; the paper's d(v, l)
  // used by the NLF filter (Algorithm 6 lines 2-4).
  uint32_t NeighborLabelCount(VertexId v, Label l) const;

  // v's NLF: one (label, expanded count) entry per label run of its
  // adjacency (AdjacencyLabelRuns), sorted by label. A count is zero only
  // for a run that holds nothing but v's own self-loop at multiplicity 1,
  // which adds no expanded neighbor.
  struct LabelCount {
    Label label;
    uint32_t count;
  };
  std::span<const LabelCount> NeighborLabelCounts(VertexId v) const {
    return {nlf_.data() + run_offsets_[v], nlf_.data() + run_offsets_[v + 1]};
  }

  // Bit (l & 63) is set for every label l with a non-zero NLF count at v.
  // Labels alias modulo 64, so the mask is only a necessary condition:
  // (mask(v) & mask_q(u)) == mask_q(u) whenever v passes u's NLF filter.
  uint64_t NeighborLabelMask(VertexId v) const { return nlf_mask_[v]; }

  // The paper's mnd(v) (Definition A.1): max effective degree over N(v).
  // Zero for isolated vertices.
  uint32_t MaxNeighborDegree(VertexId v) const { return mnd_[v]; }

  // --- Label-run / hub introspection (validators and tests) ---------------

  // One run of same-labeled neighbors; `begin` is the offset of the run's
  // first entry relative to the start of v's adjacency list.
  struct LabelRun {
    Label label;
    uint32_t begin;
  };
  std::span<const LabelRun> AdjacencyLabelRuns(VertexId v) const {
    return {runs_.data() + run_offsets_[v],
            runs_.data() + run_offsets_[v + 1]};
  }

  // Structural degree at which a vertex first qualifies for a hub row.
  static constexpr uint32_t kHubDegreeThreshold = 64;

  // True iff the hub-probe index was materialized at build time.
  bool HasHubIndex() const { return !hub_bits_.empty(); }

  // The degree threshold the hub rows settled on: kHubDegreeThreshold,
  // doubled until the rows fit the space budget; 0 for an empty graph.
  uint32_t HubDegreeThreshold() const { return hub_degree_threshold_; }

  bool IsHub(VertexId v) const {
    return !hub_bits_.empty() && hub_index_[v] != kNoHub;
  }

  // Raw bitset row lookup for hub v (IsHub(v) must hold): true iff the row
  // marks w as a neighbor. Validators compare this against the adjacency.
  bool HubRowBit(VertexId v, VertexId w) const {
    return HubBit(hub_index_[v], w);
  }

  // Base of hub v's bitset row — NumVertices() bits in 64-bit words indexed
  // by neighbor id — or nullptr when v is not a hub (or the index is
  // absent). The enumerator's BackwardPlan (match/enumerator.h) resolves
  // rows once per descent so backward-edge probes skip the hub_index_
  // lookup.
  const uint64_t* HubRowWords(VertexId v) const {
    if (hub_bits_.empty()) return nullptr;
    const uint32_t row = hub_index_[v];
    if (row == kNoHub) return nullptr;
    return hub_bits_.data() + row * hub_words_per_row_;
  }

  // Approximate heap footprint in bytes; used by the index-size experiment.
  uint64_t MemoryBytes() const;

 private:
  // Both write the CSR (offsets_, neighbors_), labels_, multiplicity_ and
  // num_edges_, then call DeriveIndexes for everything else.
  friend class GraphBuilder;
  friend class dyn::GraphFolder;
  friend struct GraphTestAccess;  // check/test_access.h

  static constexpr uint32_t kNoHub = static_cast<uint32_t>(-1);

  // Fills every derived index — label runs, effective degrees, num_labels_,
  // the label index, NLF and its mask, mnd and the hub rows — from the
  // CSR, labels_ and multiplicity_ (derived_index.cc). Called once, on a
  // Graph whose derived fields are still default-constructed. With
  // `base == nullptr` every vertex is derived. Otherwise `*this` is `base`
  // after a fold: `touched` lists the vertices whose adjacency changed
  // (every id >= base->NumVertices() among them); they are derived from
  // their new adjacency, and every other vertex copies its runs, NLF, NLF
  // mask, degree and hub row from `base`. Returns the vertices whose mnd
  // was recomputed (a byte per vertex): the touched set and its new
  // neighbours, or every vertex without a base.
  std::vector<uint8_t> DeriveIndexes(const Graph* base,
                                     std::span<const VertexId> touched);

  bool HubBit(uint32_t row, VertexId w) const {
    return (hub_bits_[row * hub_words_per_row_ + (w >> 6)] >>
            (w & 63)) & 1u;
  }

  std::vector<uint64_t> offsets_;   // size n+1
  std::vector<VertexId> neighbors_; // size 2m, sorted by (label, id) per vertex
  std::vector<Label> labels_;       // size n
  uint64_t num_edges_ = 0;
  uint32_t num_labels_ = 0;

  std::vector<uint32_t> multiplicity_;      // empty => all ones
  uint64_t effective_num_vertices_ = 0;

  std::vector<uint32_t> effective_degree_;  // size n

  // Label index.
  std::vector<uint64_t> label_offsets_;   // size num_labels+1
  std::vector<VertexId> label_vertices_;  // size n
  std::vector<uint64_t> label_frequency_; // size num_labels (multiplicities)

  // Per-vertex label-run index over `neighbors_`.
  std::vector<uint64_t> run_offsets_;  // size n+1
  std::vector<LabelRun> runs_;

  // Hub-probe index: hub_index_[v] is the bitset row of hub v (kNoHub for
  // non-hubs); rows are hub_words_per_row_ words each, packed in hub_bits_.
  // All empty when no vertex met the threshold within the space budget.
  std::vector<uint32_t> hub_index_;
  std::vector<uint64_t> hub_bits_;
  uint64_t hub_words_per_row_ = 0;
  uint32_t hub_degree_threshold_ = 0;

  // NLF index: one (label, count) entry per label run, indexed by
  // run_offsets_, and the per-vertex mask of its non-zero labels.
  std::vector<LabelCount> nlf_;   // parallel to runs_
  std::vector<uint64_t> nlf_mask_;  // size n

  std::vector<uint32_t> mnd_;  // size n
};

}  // namespace cfl

#endif  // CFL_GRAPH_GRAPH_H_
