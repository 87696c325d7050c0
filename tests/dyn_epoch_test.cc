// Tests for the dynamic-graph epoch layer: the GraphDelta overlay's merged
// adjacency against a std::set model, FoldDelta content equality with a
// from-scratch rebuild, snapshot isolation across commits, stale-delta
// rejection (also between writers racing on one base), and snapshot
// lifetime beyond the DynamicGraph.

#include "dyn/dynamic_graph.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/validate.h"
#include "dyn/delta.h"
#include "dyn/fold.h"
#include "gen/rng.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"

namespace cfl {
namespace {

using dyn::DirtyLabels;
using dyn::DynamicGraph;
using dyn::FoldDelta;
using dyn::GraphDelta;

Graph SmallBase(uint64_t seed, uint32_t n = 60) {
  SyntheticOptions options;
  options.num_vertices = n;
  options.average_degree = 4.0;
  options.num_labels = 4;
  options.seed = seed;
  return MakeSynthetic(options);
}

// Obviously-correct mirror of base graph + mutations. Tombstoned vertices
// keep their label (matching the fold's semantics) but lose all edges.
struct Model {
  std::vector<Label> labels;
  std::vector<bool> alive;
  std::vector<std::set<VertexId>> adj;
  std::vector<std::pair<VertexId, VertexId>> edge_list;  // u < v, sampling

  explicit Model(const Graph& g) {
    const uint32_t n = g.NumVertices();
    labels.resize(n);
    alive.assign(n, true);
    adj.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      labels[v] = g.label(v);
      for (VertexId w : g.Neighbors(v)) {
        adj[v].insert(w);
        if (w > v) edge_list.emplace_back(v, w);
      }
    }
  }

  VertexId AddVertex(Label l) {
    labels.push_back(l);
    alive.push_back(true);
    adj.emplace_back();
    return static_cast<VertexId>(labels.size() - 1);
  }

  void RemoveVertex(VertexId v) {
    for (VertexId w : adj[v]) adj[w].erase(v);
    adj[v].clear();
    alive[v] = false;
    std::erase_if(edge_list, [v](const std::pair<VertexId, VertexId>& e) {
      return e.first == v || e.second == v;
    });
  }

  void AddEdge(VertexId u, VertexId v) {
    adj[u].insert(v);
    adj[v].insert(u);
    edge_list.emplace_back(std::min(u, v), std::max(u, v));
  }

  void RemoveEdge(VertexId u, VertexId v) {
    adj[u].erase(v);
    adj[v].erase(u);
    std::pair<VertexId, VertexId> key{std::min(u, v), std::max(u, v)};
    std::erase(edge_list, key);
  }

  bool HasEdge(VertexId u, VertexId v) const { return adj[u].count(v) > 0; }

  Graph Rebuild() const {
    std::vector<std::pair<VertexId, VertexId>> edges(edge_list);
    std::sort(edges.begin(), edges.end());
    return MakeGraph(labels, edges);
  }

  // v's post-delta adjacency in the graph's (label, id) order.
  std::vector<VertexId> SortedNeighbors(VertexId v) const {
    std::vector<VertexId> out(adj[v].begin(), adj[v].end());
    std::sort(out.begin(), out.end(), [&](VertexId a, VertexId b) {
      if (labels[a] != labels[b]) return labels[a] < labels[b];
      return a < b;
    });
    return out;
  }
};

// Applies ~`ops` random mutations to both the delta and the model. Every
// op the model accepts the delta must accept too.
void Mutate(Rng& rng, uint32_t ops, GraphDelta* delta, Model* model) {
  for (uint32_t i = 0; i < ops; ++i) {
    const uint32_t n = static_cast<uint32_t>(model->labels.size());
    switch (rng.Below(8)) {
      case 0: {  // add vertex
        Label l = static_cast<Label>(rng.Below(5));
        VertexId id = kInvalidVertex;
        ASSERT_TRUE(delta->AddVertex(l, &id)) << delta->error();
        ASSERT_EQ(id, model->AddVertex(l));
        break;
      }
      case 1: {  // remove a random alive base vertex (not batch-added)
        VertexId v = rng.Below(n);
        if (v >= delta->BaseVertices() || !model->alive[v]) break;
        ASSERT_TRUE(delta->RemoveVertex(v)) << delta->error();
        model->RemoveVertex(v);
        break;
      }
      case 2:
      case 3: {  // remove a random existing edge
        if (model->edge_list.empty()) break;
        auto [u, v] =
            model->edge_list[rng.Below(model->edge_list.size())];
        ASSERT_TRUE(delta->RemoveEdge(u, v)) << delta->error();
        model->RemoveEdge(u, v);
        break;
      }
      default: {  // add a random missing edge between alive vertices
        VertexId u = rng.Below(n);
        VertexId v = rng.Below(n);
        if (u == v || !model->alive[u] || !model->alive[v]) break;
        if (model->HasEdge(u, v)) break;
        ASSERT_TRUE(delta->AddEdge(u, v)) << delta->error();
        model->AddEdge(u, v);
        break;
      }
    }
  }
}

// ---- overlay adjacency vs the set model ---------------------------------

TEST(GraphDeltaTest, MergedNeighborsMatchSetModel) {
  for (uint64_t trial = 0; trial < 10; ++trial) {
    Graph base = SmallBase(100 + trial);
    Model model(base);
    GraphDelta delta(base);
    Rng rng(900 + trial);
    Mutate(rng, 30, &delta, &model);
    delta.Seal();

    const uint32_t n = static_cast<uint32_t>(model.labels.size());
    ASSERT_EQ(delta.NewVertices(), n);
    std::vector<VertexId> merged;
    for (VertexId v = 0; v < n; ++v) {
      delta.MergedNeighbors(v, &merged);
      std::vector<VertexId> expected =
          model.alive[v] ? model.SortedNeighbors(v) : std::vector<VertexId>{};
      ASSERT_EQ(merged, expected) << "vertex " << v << " trial " << trial;

      // Per-label slices agree too (including labels v has no edges to).
      for (Label l = 0; l < 6; ++l) {
        std::vector<VertexId> by_label;
        if (model.alive[v]) {
          for (VertexId w : model.adj[v]) {
            if (model.labels[w] == l) by_label.push_back(w);
          }
          std::sort(by_label.begin(), by_label.end());
        }
        std::vector<VertexId> got;
        delta.MergedNeighborsWithLabel(v, l, &got);
        ASSERT_EQ(got, by_label) << "vertex " << v << " label " << l;
      }
    }
  }
}

TEST(GraphDeltaTest, RejectsInvalidOps) {
  Graph base = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  GraphDelta delta(base);

  EXPECT_FALSE(delta.AddEdge(0, 0));  // self-loop
  EXPECT_FALSE(delta.AddEdge(0, 1));  // already present
  EXPECT_FALSE(delta.RemoveEdge(0, 2));  // not present
  EXPECT_FALSE(delta.AddEdge(0, 99));  // out of range

  ASSERT_TRUE(delta.RemoveVertex(1));
  EXPECT_FALSE(delta.AddEdge(0, 1));     // dead endpoint
  EXPECT_FALSE(delta.RemoveVertex(1));   // already tombstoned
  EXPECT_FALSE(delta.RemoveEdge(1, 2));  // vanished with the vertex

  VertexId id = kInvalidVertex;
  ASSERT_TRUE(delta.AddVertex(7, &id));
  EXPECT_EQ(id, 3u);  // new ids start at base n
  EXPECT_FALSE(delta.RemoveVertex(id));  // same-batch removal rejected
  EXPECT_NE(delta.error(), "");
}

// ---- fold vs from-scratch rebuild ---------------------------------------

// Full content comparison through the public Graph API: adjacency, label
// runs, label index, NLF and its mask, mnd, degrees, and every bit of
// every hub row.
void ExpectGraphsEqual(const Graph& folded, const Graph& rebuilt) {
  ASSERT_EQ(folded.NumVertices(), rebuilt.NumVertices());
  ASSERT_EQ(folded.NumEdges(), rebuilt.NumEdges());
  ASSERT_EQ(folded.NumLabels(), rebuilt.NumLabels());
  ASSERT_EQ(folded.HasHubIndex(), rebuilt.HasHubIndex());
  ASSERT_EQ(folded.HubDegreeThreshold(), rebuilt.HubDegreeThreshold());
  // Every array is sized exactly, so the footprints agree to the byte.
  // MemoryBytes() sums capacities: this relies on libstdc++ allocating
  // exactly on copy, assign and a resize after a matching reserve, which
  // the standard does not promise; the content checks below do not.
  ASSERT_EQ(folded.MemoryBytes(), rebuilt.MemoryBytes());
  const uint32_t n = folded.NumVertices();
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(folded.label(v), rebuilt.label(v)) << v;
    ASSERT_EQ(folded.degree(v), rebuilt.degree(v)) << v;
    ASSERT_EQ(folded.StructuralDegree(v), rebuilt.StructuralDegree(v)) << v;
    ASSERT_EQ(folded.MaxNeighborDegree(v), rebuilt.MaxNeighborDegree(v)) << v;
    ASSERT_EQ(folded.IsHub(v), rebuilt.IsHub(v)) << v;
    std::span<const VertexId> fn = folded.Neighbors(v);
    std::span<const VertexId> rn = rebuilt.Neighbors(v);
    ASSERT_TRUE(std::equal(fn.begin(), fn.end(), rn.begin(), rn.end())) << v;
    std::span<const Graph::LabelRun> fr = folded.AdjacencyLabelRuns(v);
    std::span<const Graph::LabelRun> rr = rebuilt.AdjacencyLabelRuns(v);
    ASSERT_EQ(fr.size(), rr.size()) << v;
    for (size_t i = 0; i < fr.size(); ++i) {
      ASSERT_EQ(fr[i].label, rr[i].label) << v;
      ASSERT_EQ(fr[i].begin, rr[i].begin) << v;
    }
    if (folded.IsHub(v)) {
      for (VertexId w = 0; w < n; ++w) {
        ASSERT_EQ(folded.HubRowBit(v, w), rebuilt.HubRowBit(v, w))
            << "hub " << v << " bit " << w;
      }
    }
    std::span<const Graph::LabelCount> fc = folded.NeighborLabelCounts(v);
    std::span<const Graph::LabelCount> rc = rebuilt.NeighborLabelCounts(v);
    ASSERT_EQ(fc.size(), rc.size()) << v;
    for (size_t i = 0; i < fc.size(); ++i) {
      ASSERT_EQ(fc[i].label, rc[i].label) << v;
      ASSERT_EQ(fc[i].count, rc[i].count) << v;
    }
    ASSERT_EQ(folded.NeighborLabelMask(v), rebuilt.NeighborLabelMask(v)) << v;
  }
  for (Label l = 0; l < folded.NumLabels(); ++l) {
    std::span<const VertexId> fv = folded.VerticesWithLabel(l);
    std::span<const VertexId> rv = rebuilt.VerticesWithLabel(l);
    ASSERT_TRUE(std::equal(fv.begin(), fv.end(), rv.begin(), rv.end())) << l;
    ASSERT_EQ(folded.LabelFrequency(l), rebuilt.LabelFrequency(l)) << l;
    std::span<const uint32_t> fd = folded.SortedDegreesWithLabel(l);
    std::span<const uint32_t> rd = rebuilt.SortedDegreesWithLabel(l);
    ASSERT_TRUE(std::equal(fd.begin(), fd.end(), rd.begin(), rd.end())) << l;
  }
}

TEST(FoldDeltaTest, FoldedGraphMatchesFromScratchRebuild) {
  for (uint64_t trial = 0; trial < 10; ++trial) {
    Graph base = SmallBase(200 + trial);
    Model model(base);
    GraphDelta delta(base);
    Rng rng(1700 + trial);
    Mutate(rng, 25, &delta, &model);
    delta.Seal();

    DirtyLabels dirty;
    Graph folded = FoldDelta(base, delta, &dirty);
    ValidationResult valid = ValidateGraph(folded);
    ASSERT_TRUE(valid.ok) << valid.error;
    ExpectGraphsEqual(folded, model.Rebuild());

    // Dirty-label oracle: any base vertex whose NLF or mnd moved must have
    // its label in the dirty set — that is exactly the soundness condition
    // the serve layer's plan invalidation relies on.
    for (VertexId v = 0; v < base.NumVertices(); ++v) {
      std::span<const Graph::LabelCount> before = base.NeighborLabelCounts(v);
      std::span<const Graph::LabelCount> after = folded.NeighborLabelCounts(v);
      bool nlf_moved =
          !std::equal(before.begin(), before.end(), after.begin(),
                      after.end(), [](const Graph::LabelCount& a, const Graph::LabelCount& b) {
                        return a.label == b.label && a.count == b.count;
                      });
      if (nlf_moved ||
          base.MaxNeighborDegree(v) != folded.MaxNeighborDegree(v)) {
        EXPECT_TRUE(dirty.Contains(base.label(v)))
            << "vertex " << v << " changed but label " << base.label(v)
            << " is not dirty (trial " << trial << ")";
      }
    }
    for (VertexId v : delta.Touched()) {
      EXPECT_TRUE(dirty.Contains(delta.LabelOf(v)));
    }
  }
}

// A base whose ~6 heaviest vertices sit around the hub threshold (64): a
// sparse random background plus `hubs` vertices of degree 58..72. With
// n = 318 the row stride is 5 words; ten added vertices push it to 6.
Graph HubBase(uint64_t seed, uint32_t n, uint32_t hubs) {
  Rng rng(seed);
  std::vector<Label> labels(n);
  for (Label& l : labels) l = static_cast<Label>(rng.Below(4));
  std::set<std::pair<VertexId, VertexId>> edges;
  std::vector<uint32_t> degree(n, 0);
  auto add = [&](VertexId u, VertexId v) {
    if (u != v && edges.emplace(std::min(u, v), std::max(u, v)).second) {
      ++degree[u];
      ++degree[v];
    }
  };
  for (uint32_t e = 0; e < n; ++e) {
    add(static_cast<VertexId>(rng.Below(n)),
        static_cast<VertexId>(rng.Below(n)));
  }
  for (VertexId h = 0; h < hubs; ++h) {
    const uint64_t target = rng.Between(58, 72);
    while (degree[h] < target) add(h, static_cast<VertexId>(rng.Below(n)));
  }
  return MakeGraph(labels, {edges.begin(), edges.end()});
}

// Fold == rebuild where hub rows exist on both sides: hubs gain and lose
// edges across the threshold in both directions, batch-added vertices
// (ids past a 64-bit word boundary) attach to hubs, and a hub's neighbour
// is tombstoned. The last two heavy vertices get no explicit edits, so
// their rows usually take the copy-from-base path into the wider stride.
TEST(FoldDeltaTest, FoldedHubRowsMatchFromScratchRebuild) {
  constexpr uint32_t kN = 318;
  constexpr uint32_t kHubs = 6;
  constexpr uint32_t kEdited = 4;
  uint32_t crossed_up = 0;
  uint32_t crossed_down = 0;
  uint32_t copied_rows = 0;
  for (uint64_t trial = 0; trial < 30; ++trial) {
    Graph base = HubBase(400 + trial, kN, kHubs);
    ASSERT_TRUE(base.HasHubIndex());
    Model model(base);
    GraphDelta delta(base);
    Rng rng(2900 + trial);

    std::vector<VertexId> added;
    for (uint32_t i = 0; i < 10; ++i) {
      Label l = static_cast<Label>(rng.Below(4));
      VertexId id = kInvalidVertex;
      ASSERT_TRUE(delta.AddVertex(l, &id)) << delta.error();
      ASSERT_EQ(id, model.AddVertex(l));
      added.push_back(id);
    }
    // Tombstone one non-heavy neighbour of hub 0.
    for (VertexId w : base.Neighbors(0)) {
      if (w < kHubs) continue;
      ASSERT_TRUE(delta.RemoveVertex(w)) << delta.error();
      model.RemoveVertex(w);
      break;
    }
    // Heavy vertices below the threshold gain up to 10 edges; a quarter of
    // those above lose 10 instead. Gains include the new vertices so hub
    // rows carry bits in the widened stride's tail.
    for (VertexId h = 0; h < kEdited; ++h) {
      const bool grow = !base.IsHub(h) || !rng.Chance(0.25);
      for (uint32_t k = 0; k < 10; ++k) {
        if (grow) {
          VertexId w = (k % 3 == 0)
                           ? added[rng.Below(added.size())]
                           : static_cast<VertexId>(rng.Below(kN));
          if (w == h || !model.alive[w] || model.HasEdge(h, w)) continue;
          ASSERT_TRUE(delta.AddEdge(h, w)) << delta.error();
          model.AddEdge(h, w);
        } else {
          if (model.adj[h].empty()) break;
          VertexId w = *std::next(model.adj[h].begin(),
                                  rng.Below(model.adj[h].size()));
          ASSERT_TRUE(delta.RemoveEdge(h, w)) << delta.error();
          model.RemoveEdge(h, w);
        }
      }
    }
    Mutate(rng, 15, &delta, &model);
    delta.Seal();

    Graph folded = FoldDelta(base, delta);
    ValidationResult valid = ValidateGraph(folded);
    ASSERT_TRUE(valid.ok) << valid.error;
    Graph rebuilt = model.Rebuild();
    ASSERT_TRUE(rebuilt.HasHubIndex());
    ExpectGraphsEqual(folded, rebuilt);
    if (HasFatalFailure()) return;
    for (VertexId h = 0; h < kHubs; ++h) {
      crossed_up += !base.IsHub(h) && folded.IsHub(h);
      crossed_down += base.IsHub(h) && !folded.IsHub(h);
      copied_rows += base.IsHub(h) && folded.IsHub(h) &&
                     !std::binary_search(delta.Touched().begin(),
                                         delta.Touched().end(), h);
    }
  }
  EXPECT_GT(crossed_up, 0u);
  EXPECT_GT(crossed_down, 0u);
  EXPECT_GT(copied_rows, 0u);
}

// ---- range boundaries of the touched-list fold ---------------------------

// Adds (u, v) if absent, removes it if present, in both delta and model.
void Toggle(VertexId u, VertexId v, GraphDelta* delta, Model* model) {
  if (model->HasEdge(u, v)) {
    ASSERT_TRUE(delta->RemoveEdge(u, v)) << delta->error();
    model->RemoveEdge(u, v);
  } else {
    ASSERT_TRUE(delta->AddEdge(u, v)) << delta->error();
    model->AddEdge(u, v);
  }
}

// The dirty labels by definition: every touched vertex's label, plus the
// label of every base vertex whose mnd moved.
std::vector<Label> BruteForceDirtyLabels(const Graph& base,
                                         const Graph& folded,
                                         const GraphDelta& delta) {
  std::vector<Label> labels;
  for (VertexId t : delta.Touched()) labels.push_back(folded.label(t));
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    if (base.MaxNeighborDegree(v) != folded.MaxNeighborDegree(v)) {
      labels.push_back(base.label(v));
    }
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

// Seals and folds `delta`, then checks the result against a rebuild of
// `model` and the dirty labels against their brute-force definition.
Graph FoldAndCheck(const Graph& base, GraphDelta* delta, const Model& model) {
  delta->Seal();
  DirtyLabels dirty;
  Graph folded = FoldDelta(base, *delta, &dirty);
  ValidationResult valid = ValidateGraph(folded);
  EXPECT_TRUE(valid.ok) << valid.error;
  ExpectGraphsEqual(folded, model.Rebuild());
  EXPECT_EQ(dirty.labels, BruteForceDirtyLabels(base, folded, *delta));
  return folded;
}

// Fold == rebuild for batches that put the untouched id ranges' edges where
// an off-by-one would show: touched ids at both ends, runs of adjacent
// touched ids, every id touched, only batch-added ids touched, tombstones,
// and ops that cancel to nothing.
TEST(FoldDeltaTest, TouchedRangeBoundariesMatchRebuild) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(seed);
    const Graph base = SmallBase(3000 + seed);
    const uint32_t n = base.NumVertices();
    Rng rng(5000 + seed);
    {  // The first and the last id, alone and beside random ops.
      SCOPED_TRACE("ends");
      Model model(base);
      GraphDelta delta(base);
      Toggle(0, n - 1, &delta, &model);
      if (seed % 2 == 1) Mutate(rng, 4, &delta, &model);
      FoldAndCheck(base, &delta, model);
    }
    {  // Four adjacent ids: no untouched range between them.
      SCOPED_TRACE("adjacent");
      Model model(base);
      GraphDelta delta(base);
      const auto k = static_cast<VertexId>(rng.Below(n - 3));
      Toggle(k, k + 1, &delta, &model);
      Toggle(k + 2, k + 3, &delta, &model);
      FoldAndCheck(base, &delta, model);
      EXPECT_EQ(delta.Touched().size(), 4u);
    }
    {  // Every id: no untouched range at all.
      SCOPED_TRACE("all");
      Model model(base);
      GraphDelta delta(base);
      for (VertexId v = 0; v < n; ++v) {
        Toggle(v, (v + 1) % n, &delta, &model);
      }
      FoldAndCheck(base, &delta, model);
      EXPECT_EQ(delta.Touched().size(), n);
    }
    {  // Only batch-added ids: the whole base is one untouched range.
      SCOPED_TRACE("added only");
      Model model(base);
      GraphDelta delta(base);
      std::vector<VertexId> added;
      for (uint32_t i = 0; i < 1 + seed % 3; ++i) {
        const auto l = static_cast<Label>(rng.Below(6));
        VertexId id = kInvalidVertex;
        ASSERT_TRUE(delta.AddVertex(l, &id)) << delta.error();
        ASSERT_EQ(id, model.AddVertex(l));
        added.push_back(id);
      }
      if (added.size() >= 2) Toggle(added[0], added[1], &delta, &model);
      FoldAndCheck(base, &delta, model);
      EXPECT_EQ(delta.Touched().front(), n);
    }
    {  // Tombstones at both ends and inside.
      SCOPED_TRACE("tombstones");
      Model model(base);
      GraphDelta delta(base);
      for (VertexId v : {VertexId{0}, n - 1, VertexId{n / 2}}) {
        ASSERT_TRUE(delta.RemoveVertex(v)) << delta.error();
        model.RemoveVertex(v);
      }
      FoldAndCheck(base, &delta, model);
    }
    {  // An edge removed and re-added, and one added and removed, touch
       // nothing; on odd seeds one real op rides along.
      SCOPED_TRACE("net zero");
      Model model(base);
      GraphDelta delta(base);
      const auto [u, v] = model.edge_list[rng.Below(model.edge_list.size())];
      Toggle(u, v, &delta, &model);
      Toggle(u, v, &delta, &model);
      VertexId a = 0;
      VertexId b = 0;
      while (a == b || model.HasEdge(a, b)) {
        a = static_cast<VertexId>(rng.Below(n));
        b = static_cast<VertexId>(rng.Below(n));
      }
      Toggle(a, b, &delta, &model);
      Toggle(a, b, &delta, &model);
      if (seed % 2 == 1) Toggle(a, b, &delta, &model);
      FoldAndCheck(base, &delta, model);
      EXPECT_EQ(delta.Touched().size(), seed % 2 == 1 ? 2u : 0u);
    }
  }
}

// A base with no vertex at all: every id of the fold is batch-added.
TEST(FoldDeltaTest, FoldOntoEmptyBaseMatchesRebuild) {
  const Graph base = MakeGraph({}, {});
  Model model(base);
  GraphDelta delta(base);
  for (Label l : {2u, 0u, 2u, 1u}) {
    VertexId id = kInvalidVertex;
    ASSERT_TRUE(delta.AddVertex(l, &id)) << delta.error();
    ASSERT_EQ(id, model.AddVertex(l));
  }
  Toggle(0, 1, &delta, &model);
  Toggle(1, 3, &delta, &model);
  FoldAndCheck(base, &delta, model);
}

// Hub rows under batches that keep the stride, in two shapes: a hub edited
// without leaving the hub set (its row re-derived, the other hubs' rows
// copied from the base), and a heavy vertex pushed over the threshold,
// which changes the hub set and shifts the later hubs' rows. The sweep
// asserts that it produced both shapes.
TEST(FoldDeltaTest, HubRowsUnderSameStrideBatchesMatchRebuild) {
  constexpr uint32_t kN = 318;
  constexpr uint32_t kHubs = 6;
  uint32_t edited_hub_batches = 0;
  uint32_t new_hub_batches = 0;
  for (uint64_t trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    const Graph base = HubBase(7000 + trial, kN, kHubs);
    ASSERT_TRUE(base.HasHubIndex());
    Rng rng(7100 + trial);
    for (const bool cross : {false, true}) {
      Model model(base);
      GraphDelta delta(base);
      for (VertexId h = 0; h < kHubs; ++h) {
        const uint32_t degree = base.StructuralDegree(h);
        if (!cross && base.IsHub(h) && degree > Graph::kHubDegreeThreshold) {
          // One edge out, one edge in: h stays a hub.
          const VertexId w = *std::next(model.adj[h].begin(),
                                        rng.Below(model.adj[h].size()));
          if (w >= kHubs) Toggle(h, w, &delta, &model);
        } else if (cross && !base.IsHub(h)) {
          // Up to the threshold: h joins the hub set.
          while (model.adj[h].size() < Graph::kHubDegreeThreshold) {
            const auto w = static_cast<VertexId>(rng.Below(kN));
            if (w >= kHubs && !model.HasEdge(h, w)) {
              Toggle(h, w, &delta, &model);
            }
          }
        }
      }
      for (uint32_t i = 0; i < 4; ++i) {
        VertexId a = kHubs + static_cast<VertexId>(rng.Below(kN - kHubs));
        VertexId b = kHubs + static_cast<VertexId>(rng.Below(kN - kHubs));
        if (a != b) Toggle(a, b, &delta, &model);
      }
      const Graph folded = FoldAndCheck(base, &delta, model);
      if (HasFatalFailure()) return;
      bool same_hubs = true;
      bool touched_hub = false;
      for (VertexId v = 0; v < kN; ++v) {
        same_hubs = same_hubs && base.IsHub(v) == folded.IsHub(v);
      }
      for (VertexId t : delta.Touched()) touched_hub |= folded.IsHub(t);
      edited_hub_batches += same_hubs && touched_hub;
      new_hub_batches += !same_hubs;
    }
  }
  EXPECT_GT(edited_hub_batches, 0u);
  EXPECT_GT(new_hub_batches, 0u);
}

TEST(FoldDeltaTest, TombstonesKeepLabelAndLoseEdges) {
  Graph base = MakeGraph({0, 1, 0, 1}, {{0, 1}, {1, 2}, {2, 3}});
  GraphDelta delta(base);
  ASSERT_TRUE(delta.RemoveVertex(1));
  delta.Seal();
  Graph folded = FoldDelta(base, delta);
  ASSERT_TRUE(ValidateGraph(folded).ok);
  EXPECT_EQ(folded.NumVertices(), 4u);
  EXPECT_EQ(folded.label(1), 1u);
  EXPECT_EQ(folded.StructuralDegree(1), 0u);
  EXPECT_EQ(folded.NumEdges(), 1u);  // only (2,3) survives
  // The label index still lists the tombstone (content-equal with a
  // rebuild over the same vertex set).
  std::span<const VertexId> l1 = folded.VerticesWithLabel(1);
  EXPECT_TRUE(std::find(l1.begin(), l1.end(), 1u) != l1.end());
}

// ---- snapshots and epochs -----------------------------------------------

TEST(DynamicGraphTest, SnapshotIsolationAcrossCommits) {
  DynamicGraph dg(MakeGraph({0, 1, 0}, {{0, 1}}));
  dyn::Snapshot before = dg.Acquire();
  EXPECT_EQ(before.epoch(), 0u);
  EXPECT_FALSE(before.graph().HasEdge(1, 2));

  GraphDelta delta = dg.NewDelta(before);
  ASSERT_TRUE(delta.AddEdge(1, 2));
  dyn::ApplyResult result;
  ASSERT_FALSE(dg.Apply(std::move(delta), &result).has_value());
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_EQ(result.added_edges, 1u);

  // The held snapshot still answers as of epoch 0.
  EXPECT_FALSE(before.graph().HasEdge(1, 2));
  dyn::Snapshot after = dg.Acquire();
  EXPECT_EQ(after.epoch(), 1u);
  EXPECT_TRUE(after.graph().HasEdge(1, 2));
}

TEST(DynamicGraphTest, StaleDeltaIsRejectedWholesale) {
  DynamicGraph dg(MakeGraph({0, 1, 0}, {{0, 1}}));
  dyn::Snapshot snap = dg.Acquire();
  GraphDelta first = dg.NewDelta(snap);
  GraphDelta second = dg.NewDelta(snap);
  ASSERT_TRUE(first.AddEdge(1, 2));
  ASSERT_TRUE(second.AddEdge(0, 2));
  ASSERT_FALSE(dg.Apply(std::move(first)).has_value());

  std::optional<std::string> error = dg.Apply(std::move(second));
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("stale"), std::string::npos) << *error;
  // Nothing of the stale batch landed.
  dyn::Snapshot now = dg.Acquire();
  EXPECT_FALSE(now.graph().HasEdge(0, 2));
  EXPECT_EQ(now.epoch(), 1u);
}

TEST(DynamicGraphTest, RacingWritersOnOneBaseCommitExactlyOnce) {
  // Apply folds before it takes the graph mutex, so two writers can fold
  // the same base at once. Whichever commits second must get the stale
  // error and land nothing of its batch.
  for (uint64_t round = 0; round < 8; ++round) {
    DynamicGraph dg(SmallBase(500 + round, 3000));
    dyn::Snapshot snap = dg.Acquire();
    std::pair<VertexId, VertexId> edges[2];
    for (VertexId i = 0; i < 2; ++i) {
      VertexId w = 2;
      while (snap.graph().HasEdge(i, w)) ++w;
      edges[i] = {i, w};
    }
    std::atomic<int> ready{0};
    std::optional<std::string> errors[2];
    std::vector<std::thread> writers;
    for (int i = 0; i < 2; ++i) {
      writers.emplace_back([&, i] {
        GraphDelta delta = dg.NewDelta(snap);
        ASSERT_TRUE(delta.AddEdge(edges[i].first, edges[i].second));
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        errors[i] = dg.Apply(std::move(delta));
      });
    }
    for (std::thread& t : writers) t.join();

    ASSERT_NE(errors[0].has_value(), errors[1].has_value()) << round;
    const int winner = errors[0].has_value() ? 1 : 0;
    EXPECT_NE(errors[1 - winner]->find("stale"), std::string::npos)
        << *errors[1 - winner];
    dyn::Snapshot now = dg.Acquire();
    EXPECT_EQ(now.epoch(), 1u);
    EXPECT_TRUE(now.graph().HasEdge(edges[winner].first,
                                    edges[winner].second));
    EXPECT_FALSE(now.graph().HasEdge(edges[1 - winner].first,
                                     edges[1 - winner].second));
  }
}

TEST(DynamicGraphTest, EmptyDeltaCommitsNothing) {
  DynamicGraph dg(MakeGraph({0, 1}, {{0, 1}}));
  dyn::Snapshot snap = dg.Acquire();
  dyn::ApplyResult result;
  ASSERT_FALSE(dg.Apply(dg.NewDelta(snap), &result).has_value());
  EXPECT_EQ(result.epoch, 0u);
  EXPECT_EQ(dg.CurrentEpoch(), 0u);
}

TEST(DynamicGraphTest, SnapshotOutlivesDynamicGraph) {
  // The shared_ptr is the only lifetime guard: a snapshot stays readable
  // after a commit superseded it and after its DynamicGraph is destroyed.
  auto dg = std::make_unique<DynamicGraph>(MakeGraph({0, 1, 0}, {{0, 1}}));
  dyn::Snapshot snap = dg->Acquire();
  GraphDelta delta = dg->NewDelta(snap);
  ASSERT_TRUE(delta.AddEdge(1, 2));
  ASSERT_FALSE(dg->Apply(std::move(delta)).has_value());
  dg.reset();

  ASSERT_TRUE(ValidateGraph(snap.graph()).ok);
  EXPECT_EQ(snap.epoch(), 0u);
  EXPECT_EQ(snap.graph().NumEdges(), 1u);
  EXPECT_TRUE(snap.graph().HasEdge(0, 1));
  EXPECT_FALSE(snap.graph().HasEdge(1, 2));
}

}  // namespace
}  // namespace cfl
