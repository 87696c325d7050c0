// Tests for 2-core peeling, CFL decomposition, BFS trees, and NEC classes.

#include "decomp/cfl_decomposition.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "decomp/bfs_tree.h"
#include "decomp/nec.h"
#include "decomp/two_core.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace cfl {
namespace {

using testing::Figure7Query;

// The paper's Figure 4(a) query: triangle core {u0,u1,u2}; u1 hangs a tree
// u3,u4 with leaves u7,u8; u2 hangs u5,u6 with leaves u9,u10.
Graph Figure4Query() {
  return MakeGraph(
      {0, 1, 2, 3, 3, 4, 4, 5, 5, 6, 6},
      {{0, 1}, {0, 2}, {1, 2},                    // core triangle
       {1, 3}, {1, 4}, {3, 7}, {4, 8},            // tree at u1
       {2, 5}, {2, 6}, {5, 9}, {6, 10}});         // tree at u2
}

TEST(TwoCoreTest, TriangleWithPendantTrees) {
  Graph q = Figure4Query();
  std::vector<VertexId> core = TwoCoreVertices(q);
  EXPECT_EQ(core, (std::vector<VertexId>{0, 1, 2}));
}

TEST(TwoCoreTest, TreeHasEmptyCore) {
  Graph path = MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(TwoCoreVertices(path).empty());
}

TEST(TwoCoreTest, CycleIsItsOwnCore) {
  Graph cycle = MakeGraph({0, 0, 0, 0, 0},
                          {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_EQ(TwoCoreVertices(cycle).size(), 5u);
}

TEST(TwoCoreTest, MatchesBruteForceDefinitionOnRandomGraphs) {
  // 2-core = maximal subgraph with min degree >= 2; cross-check peeling
  // against iterated brute-force deletion.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SyntheticOptions options;
    options.num_vertices = 40;
    options.average_degree = 2.2;
    options.num_labels = 3;
    options.seed = seed;
    Graph g = MakeSynthetic(options);

    std::vector<bool> in(g.NumVertices(), true);
    bool changed = true;
    while (changed) {
      changed = false;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (!in[v]) continue;
        uint32_t d = 0;
        for (VertexId w : g.Neighbors(v)) d += in[w] ? 1 : 0;
        if (d < 2) {
          in[v] = false;
          changed = true;
        }
      }
    }
    EXPECT_EQ(TwoCoreMembership(g), in) << "seed " << seed;
  }
}

TEST(CflDecompositionTest, Figure4Partition) {
  Graph q = Figure4Query();
  CflDecomposition d = DecomposeCfl(q);
  EXPECT_FALSE(d.QueryIsTree());
  EXPECT_EQ(d.core, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(d.forest, (std::vector<VertexId>{3, 4, 5, 6}));
  EXPECT_EQ(d.leaf, (std::vector<VertexId>{7, 8, 9, 10}));
  EXPECT_EQ(d.connections, (std::vector<VertexId>{1, 2}));
}

TEST(CflDecompositionTest, PartitionIsDisjointAndComplete) {
  Graph q = Figure4Query();
  CflDecomposition d = DecomposeCfl(q);
  EXPECT_EQ(d.core.size() + d.forest.size() + d.leaf.size(), q.NumVertices());
  std::vector<VertexId> all;
  all.insert(all.end(), d.core.begin(), d.core.end());
  all.insert(all.end(), d.forest.begin(), d.forest.end());
  all.insert(all.end(), d.leaf.begin(), d.leaf.end());
  std::sort(all.begin(), all.end());
  for (VertexId v = 0; v < q.NumVertices(); ++v) EXPECT_EQ(all[v], v);
}

TEST(CflDecompositionTest, TreeQueryCoreIsChosenRoot) {
  // Star: center 0, leaves 1..3.
  Graph star = MakeGraph({0, 1, 1, 1}, {{0, 1}, {0, 2}, {0, 3}});
  CflDecomposition d = DecomposeCfl(star, /*tree_root=*/0);
  EXPECT_TRUE(d.QueryIsTree());
  EXPECT_EQ(d.core, (std::vector<VertexId>{0}));
  EXPECT_TRUE(d.forest.empty());
  EXPECT_EQ(d.leaf, (std::vector<VertexId>{1, 2, 3}));
}

TEST(CflDecompositionTest, TreeQueryDegreeOneRootStaysCore) {
  // Path 0-1-2: root the tree at the degree-one endpoint 0.
  Graph path = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  CflDecomposition d = DecomposeCfl(path, /*tree_root=*/0);
  EXPECT_EQ(d.core, (std::vector<VertexId>{0}));
  EXPECT_EQ(d.forest, (std::vector<VertexId>{1}));
  EXPECT_EQ(d.leaf, (std::vector<VertexId>{2}));
}

TEST(CflDecompositionTest, WholeQueryCanBeCore) {
  Graph k4 = MakeGraph({0, 0, 0, 0},
                       {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  CflDecomposition d = DecomposeCfl(k4);
  EXPECT_EQ(d.core.size(), 4u);
  EXPECT_TRUE(d.forest.empty());
  EXPECT_TRUE(d.leaf.empty());
  EXPECT_TRUE(d.connections.empty());
}

TEST(BfsTreeTest, Figure7Structure) {
  Graph q = Figure7Query();
  BfsTree t = BuildBfsTree(q, 0);
  EXPECT_EQ(t.root, 0u);
  EXPECT_EQ(t.level[0], 1u);
  EXPECT_EQ(t.level[1], 2u);
  EXPECT_EQ(t.level[2], 2u);
  EXPECT_EQ(t.level[3], 3u);
  EXPECT_EQ(t.parent[1], 0u);
  EXPECT_EQ(t.parent[2], 0u);
  EXPECT_EQ(t.parent[3], 1u);
  ASSERT_EQ(t.non_tree_edges.size(), 2u);
  // (u1,u2) is an S-NTE; (u2,u3) a C-NTE with u2 the shallower endpoint.
  bool found_snte = false, found_cnte = false;
  for (const NonTreeEdge& e : t.non_tree_edges) {
    if (e.same_level) {
      found_snte = true;
      EXPECT_EQ(std::min(e.u, e.v), 1u);
      EXPECT_EQ(std::max(e.u, e.v), 2u);
    } else {
      found_cnte = true;
      EXPECT_EQ(e.u, 2u);
      EXPECT_EQ(e.v, 3u);
    }
  }
  EXPECT_TRUE(found_snte);
  EXPECT_TRUE(found_cnte);
}

TEST(BfsTreeTest, LevelsPartitionAndParentsAreShallower) {
  Graph q = Figure4Query();
  BfsTree t = BuildBfsTree(q, 0);
  size_t total = 0;
  for (const std::vector<VertexId>& level : t.levels) total += level.size();
  EXPECT_EQ(total, q.NumVertices());
  for (VertexId v = 0; v < q.NumVertices(); ++v) {
    if (v == t.root) continue;
    EXPECT_EQ(t.level[v], t.level[t.parent[v]] + 1);
  }
}

TEST(BfsTreeTest, DisconnectedThrows) {
  Graph g = MakeGraph({0, 0, 0, 0}, {{0, 1}, {2, 3}});
  EXPECT_THROW(BuildBfsTree(g, 0), std::invalid_argument);
}

TEST(NecTest, DetectsNonAdjacentTwins) {
  // u1 and u2: same label, both adjacent exactly to {0,3}.
  Graph q = MakeGraph({0, 1, 1, 2}, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  std::vector<std::vector<VertexId>> classes = ComputeNecClasses(q);
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[1], (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(NecReducedVertices(q), 1u);
}

TEST(NecTest, LabelDifferenceSplitsClasses) {
  Graph q = MakeGraph({0, 1, 2, 3}, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(NecReducedVertices(q), 0u);
}

TEST(NecTest, LeafTwins) {
  // Star with three same-label leaves: all three are one NEC class.
  Graph star = MakeGraph({0, 1, 1, 1}, {{0, 1}, {0, 2}, {0, 3}});
  std::vector<std::vector<VertexId>> classes = ComputeNecClasses(star);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[1].size(), 3u);
  EXPECT_EQ(NecReducedVertices(star), 2u);
}

TEST(Lemma42Test, ForestSetHasNoNecTwins) {
  // Paper Lemma 4.2: no two forest-set vertices have the same label and the
  // same neighborhoods (they would close a cycle and belong to the core).
  for (uint64_t seed = 0; seed < 15; ++seed) {
    SyntheticOptions options;
    options.num_vertices = 60;
    options.average_degree = 2.6;
    options.num_labels = 2;  // few labels maximize collision chances
    options.seed = seed;
    Graph q = MakeSynthetic(options);
    CflDecomposition d = DecomposeCfl(q, 0);
    for (size_t i = 0; i < d.forest.size(); ++i) {
      for (size_t j = i + 1; j < d.forest.size(); ++j) {
        VertexId a = d.forest[i], b = d.forest[j];
        if (q.label(a) != q.label(b)) continue;
        std::span<const VertexId> na = q.Neighbors(a);
        std::span<const VertexId> nb = q.Neighbors(b);
        bool equal = na.size() == nb.size() &&
                     std::equal(na.begin(), na.end(), nb.begin());
        EXPECT_FALSE(equal) << "forest twins u" << a << ", u" << b
                            << " at seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace cfl
