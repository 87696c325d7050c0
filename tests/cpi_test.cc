// Tests for candidate filters, root selection, and CPI construction —
// including the paper's full Figure 7 construction trace and the soundness
// property (Lemmas 5.2 / 5.3) on randomized inputs.

#include "cpi/cpi_builder.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/compress.h"
#include "check/narrow.h"
#include "cpi/candidate_filter.h"
#include "cpi/root_select.h"
#include "decomp/bfs_tree.h"
#include "gen/query_gen.h"
#include "gen/rng.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace cfl {
namespace {

using testing::BruteForceEmbeddings;
using testing::Figure7Data;
using testing::Figure7Query;

std::vector<VertexId> ToVec(std::span<const VertexId> s) {
  return {s.begin(), s.end()};
}

std::vector<VertexId> Sorted(std::span<const VertexId> s) {
  std::vector<VertexId> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

TEST(CandidateFilterTest, LabelDegreeFilter) {
  Graph q = Figure7Query();
  Graph g = Figure7Data();
  // u1 (B, degree 3): v3 qualifies, v10 (C) has the wrong label.
  EXPECT_TRUE(LabelDegreeFilter(q, 1, g, 3));
  EXPECT_FALSE(LabelDegreeFilter(q, 1, g, 10));
  // u2 (C, degree 3): v10 has degree 3 and label C.
  EXPECT_TRUE(LabelDegreeFilter(q, 2, g, 10));
}

TEST(CandidateFilterTest, CandVerifyNlf) {
  Graph q = Figure7Query();
  Graph g = Figure7Data();
  // v10 (C) has no D neighbor, which u2 requires -> CandVerify fails
  // (exactly the paper's Example 5.1 pruning of v10).
  EXPECT_FALSE(CandVerify(q, 2, g, 10));
  EXPECT_TRUE(CandVerify(q, 2, g, 4));
  EXPECT_TRUE(CandVerify(q, 2, g, 6));
  EXPECT_TRUE(CandVerify(q, 2, g, 8));
}

TEST(CandidateFilterTest, MndFilter) {
  // Query: center 0 with a degree-3 neighbor -> mnd_q(1) = 3. Data vertex
  // whose neighbors all have degree 1 must fail.
  Graph q = MakeGraph({0, 1, 2, 2, 2}, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  Graph g = MakeGraph({1, 0, 2, 2, 2}, {{0, 1}, {1, 2}, {1, 3}, {1, 4}});
  // In q, vertex 1 (label 1) has neighbor 0 with degree 4 -> mnd_q = 4.
  // In g, vertex 0 (label 1) has neighbor 1 with degree 4 -> passes.
  EXPECT_TRUE(CandVerify(q, 1, g, 0));
  // Cross-check the accessor directly.
  EXPECT_EQ(q.MaxNeighborDegree(1), 4u);
  EXPECT_EQ(g.MaxNeighborDegree(2), 4u);
}

TEST(LabelDegreeIndexTest, Counts) {
  Graph g = Figure7Data();
  LabelDegreeIndex index(g);
  // B vertices: v3,v5,v9 have degree 3; v7 has degree 4.
  EXPECT_EQ(index.CountAtLeast(testing::kB, 3), 4u);
  EXPECT_EQ(index.CountAtLeast(testing::kB, 4), 1u);
  EXPECT_EQ(index.CountAtLeast(testing::kB, 5), 0u);
  // A vertices: v1 (degree 5), v2 (degree 3).
  EXPECT_EQ(index.CountAtLeast(testing::kA, 1), 2u);
  EXPECT_EQ(index.CountAtLeast(testing::kA, 4), 1u);
  EXPECT_EQ(index.CountAtLeast(99, 0), 0u);
}

// A compressed graph: hypervertices with multiplicities up to 900, some
// with clique self-loops, so effective degrees run far past |V|. The
// counts must match a brute-force scan for every label and every degree,
// from an index of one entry per vertex.
TEST(LabelDegreeIndexTest, CompressedGraphMatchesBruteForce) {
  constexpr uint32_t kN = 60;
  Rng rng(4242);
  GraphBuilder builder(kN);
  builder.AllowSelfLoops();
  std::vector<uint32_t> multiplicity(kN);
  for (VertexId v = 0; v < kN; ++v) {
    builder.SetLabel(v, static_cast<Label>(rng.Below(4)));
    multiplicity[v] = 1 + static_cast<uint32_t>(rng.Below(900));
    if (rng.Below(3) == 0) builder.AddEdge(v, v);
    for (int e = 0; e < 3; ++e) {
      const VertexId w = static_cast<VertexId>(rng.Below(kN));
      if (w != v) builder.AddEdge(v, w);
    }
  }
  builder.SetMultiplicities(multiplicity);
  Graph g = std::move(builder).Build();
  ASSERT_TRUE(g.HasMultiplicities());

  uint32_t max_degree = 0;
  for (VertexId v = 0; v < kN; ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  ASSERT_GT(max_degree, 10 * kN);

  LabelDegreeIndex index(g);
  size_t entries = 0;
  for (Label l = 0; l <= g.NumLabels(); ++l) {
    entries += g.SortedDegreesWithLabel(l).size();
    for (uint32_t d = 0; d <= max_degree + 1; ++d) {
      uint64_t brute = 0;
      for (VertexId v = 0; v < kN; ++v) {
        if (g.label(v) == l && g.degree(v) >= d) ++brute;
      }
      ASSERT_EQ(index.CountAtLeast(l, d), brute) << "label " << l << " d " << d;
    }
  }
  EXPECT_EQ(entries, g.NumVertices());
}

TEST(RootSelectTest, PicksU0ForFigure7) {
  Graph q = Figure7Query();
  Graph g = Figure7Data();
  LabelDegreeIndex index(g);
  std::vector<VertexId> all = {0, 1, 2, 3};
  EXPECT_EQ(SelectRoot(q, g, index, all), 0u);
}

class CpiFigure7Test : public ::testing::Test {
 protected:
  CpiFigure7Test()
      : q_(Figure7Query()), g_(Figure7Data()), tree_(BuildBfsTree(q_, 0)) {}

  Graph q_, g_;
  BfsTree tree_;
};

TEST_F(CpiFigure7Test, NaiveCandidatesAreLabelSets) {
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kNaive);
  EXPECT_EQ(ToVec(cpi.Candidates(0)), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(ToVec(cpi.Candidates(1)), (std::vector<VertexId>{3, 5, 7, 9}));
  EXPECT_EQ(ToVec(cpi.Candidates(2)), (std::vector<VertexId>{4, 6, 8, 10}));
  EXPECT_EQ(ToVec(cpi.Candidates(3)), (std::vector<VertexId>{11, 12, 13, 15}));
}

TEST_F(CpiFigure7Test, TopDownMatchesFigure7d) {
  // Paper Example 5.1: forward generation gives u1 = {v3,v5,v7,v9} then the
  // backward pass prunes v9; u2 = {v4,v6,v8} (v10 killed by CandVerify);
  // u3 = {v11,v12} (v13, v15 lack a neighbor in u2.C / u1.C).
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kTopDown);
  EXPECT_EQ(ToVec(cpi.Candidates(0)), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(ToVec(cpi.Candidates(1)), (std::vector<VertexId>{3, 5, 7}));
  EXPECT_EQ(ToVec(cpi.Candidates(2)), (std::vector<VertexId>{4, 6, 8}));
  EXPECT_EQ(ToVec(cpi.Candidates(3)), (std::vector<VertexId>{11, 12}));
}

TEST_F(CpiFigure7Test, RefinedMatchesFigure7e) {
  // Paper Example 5.2: bottom-up refinement prunes v8 (u2), v7 (u1), v2 (u0).
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kRefined);
  EXPECT_EQ(ToVec(cpi.Candidates(0)), (std::vector<VertexId>{1}));
  EXPECT_EQ(ToVec(cpi.Candidates(1)), (std::vector<VertexId>{3, 5}));
  EXPECT_EQ(ToVec(cpi.Candidates(2)), (std::vector<VertexId>{4, 6}));
  EXPECT_EQ(ToVec(cpi.Candidates(3)), (std::vector<VertexId>{11, 12}));
}

TEST_F(CpiFigure7Test, RefinedAdjacencyLists) {
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kRefined);
  // N_{u1}^{u0}(v1) = {v3, v5} — as positions {0, 1} in u1.C.
  std::span<const uint32_t> adj_u1 = cpi.AdjacentPositions(1, 0);
  ASSERT_EQ(adj_u1.size(), 2u);
  EXPECT_EQ(cpi.CandidateAt(1, adj_u1[0]), 3u);
  EXPECT_EQ(cpi.CandidateAt(1, adj_u1[1]), 5u);
  // N_{u3}^{u1}(v3) = {v11}; N_{u3}^{u1}(v5) = {v12}.
  std::span<const uint32_t> adj_v3 = cpi.AdjacentPositions(3, 0);
  ASSERT_EQ(adj_v3.size(), 1u);
  EXPECT_EQ(cpi.CandidateAt(3, adj_v3[0]), 11u);
  std::span<const uint32_t> adj_v5 = cpi.AdjacentPositions(3, 1);
  ASSERT_EQ(adj_v5.size(), 1u);
  EXPECT_EQ(cpi.CandidateAt(3, adj_v5[0]), 12u);
}

TEST_F(CpiFigure7Test, EmptinessDetection) {
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kRefined);
  EXPECT_FALSE(cpi.HasEmptyCandidateSet());

  // A query with an impossible label has empty candidates everywhere.
  Graph impossible = MakeGraph({17, 17}, {{0, 1}});
  BfsTree t2 = BuildBfsTree(impossible, 0);
  Cpi cpi2 = BuildCpi(impossible, g_, t2, CpiStrategy::kRefined);
  EXPECT_TRUE(cpi2.HasEmptyCandidateSet());
}

TEST_F(CpiFigure7Test, SizeBoundHolds) {
  // |CPI| = O(|E(G)| * |V(q)|): candidates <= |V(G)| per vertex, adjacency
  // entries <= 2|E(G)| per tree edge.
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kNaive);
  uint64_t bound = static_cast<uint64_t>(q_.NumVertices()) *
                   (g_.NumVertices() + 2 * g_.NumEdges());
  EXPECT_LE(cpi.SizeInEntries(), bound);
  EXPECT_GT(cpi.MemoryBytes(), 0u);
}

// ---- CpiBuildStats (src/obs/stats.h) ------------------------------------

// The Figure 7 trace pins down the per-vertex accounting exactly: forward
// generation sizes, the backward S-NTE prune of v9 from u1.C, and the
// bottom-up prunes of v2/v7/v8 (Examples 5.1 / 5.2).
TEST_F(CpiFigure7Test, BuildStatsMatchFigure7Trace) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  CpiBuilder builder(g_);
  CpiBuildStats stats;
  builder.Build(q_, tree_, CpiStrategy::kRefined, &stats);
  EXPECT_EQ(stats.generated,
            (std::vector<uint64_t>{2, 4, 3, 2}));  // v9 still present in u1
  EXPECT_EQ(stats.pruned_backward, (std::vector<uint64_t>{0, 1, 0, 0}));
  EXPECT_EQ(stats.pruned_bottomup, (std::vector<uint64_t>{1, 1, 1, 0}));
  EXPECT_EQ(stats.TotalGenerated(), 11u);
  EXPECT_EQ(stats.TotalPruned(), 4u);
}

// generated[u] - pruned[u] == |C(u)| for every strategy; the naive strategy
// prunes nothing; the phase timers are non-negative.
TEST_F(CpiFigure7Test, BuildStatsReconcileAcrossStrategies) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  for (CpiStrategy strategy :
       {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
    CpiBuilder builder(g_);
    CpiBuildStats stats;
    Cpi cpi = builder.Build(q_, tree_, strategy, &stats);
    ASSERT_EQ(stats.generated.size(), q_.NumVertices());
    for (VertexId u = 0; u < q_.NumVertices(); ++u) {
      EXPECT_EQ(stats.generated[u] - stats.pruned_backward[u] -
                    stats.pruned_bottomup[u],
                cpi.NumCandidates(u))
          << "strategy " << int(strategy) << " u " << u;
    }
    if (strategy == CpiStrategy::kNaive) {
      EXPECT_EQ(stats.TotalPruned(), 0u);
    }
    if (strategy != CpiStrategy::kRefined) {
      EXPECT_EQ(std::accumulate(stats.pruned_bottomup.begin(),
                                stats.pruned_bottomup.end(), uint64_t{0}),
                0u);
    }
    EXPECT_GE(stats.top_down_seconds, 0.0);
    EXPECT_GE(stats.bottom_up_seconds, 0.0);
    EXPECT_GE(stats.adjacency_seconds, 0.0);
  }
}

// Without a sink the builder records nothing and the build result is
// unchanged (the stats pointer must not alter construction).
TEST_F(CpiFigure7Test, BuildWithAndWithoutStatsSinkAgree) {
  CpiBuilder with(g_), without(g_);
  CpiBuildStats stats;
  Cpi a = with.Build(q_, tree_, CpiStrategy::kRefined, &stats);
  Cpi b = without.Build(q_, tree_, CpiStrategy::kRefined);
  ASSERT_EQ(a.NumQueryVertices(), b.NumQueryVertices());
  for (VertexId u = 0; u < q_.NumVertices(); ++u) {
    EXPECT_EQ(ToVec(a.Candidates(u)), ToVec(b.Candidates(u))) << "u " << u;
  }
  EXPECT_EQ(a.SizeInEntries(), b.SizeInEntries());
}

// Soundness (Lemmas 5.2/5.3): every true embedding must survive in the CPI —
// for each query vertex u, M(u) is in u.C, for every strategy.
class CpiSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CpiSoundnessTest, AllEmbeddingsSurvive) {
  const uint64_t seed = GetParam();
  SyntheticOptions data_options;
  data_options.num_vertices = 60;
  data_options.average_degree = 4.0;
  data_options.num_labels = 4;
  data_options.seed = seed;
  Graph g = MakeSynthetic(data_options);

  QueryGenOptions query_options;
  query_options.num_vertices = 6;
  query_options.sparse = (seed % 2 == 0);
  query_options.seed = seed * 7 + 1;
  Graph q = GenerateQuery(g, query_options);

  std::vector<Embedding> truth = BruteForceEmbeddings(q, g);

  for (CpiStrategy strategy :
       {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
    for (VertexId root = 0; root < q.NumVertices(); ++root) {
      BfsTree tree = BuildBfsTree(q, root);
      Cpi cpi = BuildCpi(q, g, tree, strategy);
      for (const Embedding& m : truth) {
        for (VertexId u = 0; u < q.NumVertices(); ++u) {
          std::span<const VertexId> c = cpi.Candidates(u);
          EXPECT_TRUE(std::binary_search(c.begin(), c.end(), m[u]))
              << "seed " << seed << " root " << root << " u " << u;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpiSoundnessTest,
                         ::testing::Range<uint64_t>(0, 12));

// Layout equivalence: the flattened arena CPI must expose, through
// Candidates / AdjacentPositions / CandidateAt, exactly the nested
// representation the pre-arena implementation stored — per query vertex, a
// candidate list, and per parent candidate the ascending positions of the
// child candidates adjacent to it in the data graph. The reference is
// rebuilt here from first principles (Graph::HasEdge), independent of the
// builder's scan order.
TEST(CpiLayoutTest, FlattenedLayoutMatchesNestedReference) {
  SyntheticOptions options;
  options.num_vertices = 120;
  options.average_degree = 6.0;
  options.num_labels = 6;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    options.seed = seed + 1;
    Graph g = MakeSynthetic(options);
    QueryGenOptions query_options;
    query_options.num_vertices = 7;
    query_options.seed = seed * 13 + 5;
    Graph q = GenerateQuery(g, query_options);
    BfsTree tree = BuildBfsTree(q, 0);
    Cpi cpi = BuildCpi(q, g, tree, CpiStrategy::kRefined);

    // Reference nested representation.
    std::vector<std::vector<VertexId>> ref_cands(q.NumVertices());
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      ref_cands[u] = ToVec(cpi.Candidates(u));
      EXPECT_TRUE(std::is_sorted(ref_cands[u].begin(), ref_cands[u].end()));
      for (uint32_t i = 0; i < ref_cands[u].size(); ++i) {
        EXPECT_EQ(cpi.CandidateAt(u, i), ref_cands[u][i]);
      }
    }
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      if (u == tree.root) continue;
      const VertexId p = tree.parent[u];
      for (uint32_t pp = 0; pp < ref_cands[p].size(); ++pp) {
        std::vector<uint32_t> expected;
        for (uint32_t i = 0; i < ref_cands[u].size(); ++i) {
          if (g.HasEdge(ref_cands[p][pp], ref_cands[u][i])) {
            expected.push_back(i);
          }
        }
        std::span<const uint32_t> got = cpi.AdjacentPositions(u, pp);
        EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), expected)
            << "seed " << seed << " u " << u << " parent_pos " << pp;
      }
    }
  }
}

// Refinement can only shrink candidate sets (monotonicity).
TEST(CpiMonotonicityTest, RefinedIsSubsetOfTopDownIsSubsetOfNaive) {
  SyntheticOptions options;
  options.num_vertices = 80;
  options.average_degree = 5.0;
  options.num_labels = 5;
  options.seed = 99;
  Graph g = MakeSynthetic(options);
  QueryGenOptions query_options;
  query_options.num_vertices = 8;
  query_options.seed = 3;
  Graph q = GenerateQuery(g, query_options);
  BfsTree tree = BuildBfsTree(q, 0);

  Cpi naive = BuildCpi(q, g, tree, CpiStrategy::kNaive);
  Cpi td = BuildCpi(q, g, tree, CpiStrategy::kTopDown);
  Cpi refined = BuildCpi(q, g, tree, CpiStrategy::kRefined);
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    std::vector<VertexId> n = Sorted(naive.Candidates(u));
    std::vector<VertexId> t = Sorted(td.Candidates(u));
    std::vector<VertexId> r = Sorted(refined.Candidates(u));
    EXPECT_TRUE(std::includes(n.begin(), n.end(), t.begin(), t.end()));
    EXPECT_TRUE(std::includes(t.begin(), t.end(), r.begin(), r.end()));
  }
}

// ---- Reference oracle ----------------------------------------------------

// Algorithms 3 + 4 written out literally over std::set, sharing nothing
// with CpiBuilder but the filters (CandVerify, degree) and Graph::HasEdge.
struct RefCpi {
  std::vector<std::set<VertexId>> cand;
  std::vector<uint64_t> generated, pruned_backward, pruned_bottomup;
  std::vector<std::vector<uint32_t>> offsets, entries;
};

std::set<VertexId> NeighborsOfSet(const Graph& g, const std::set<VertexId>& c) {
  std::set<VertexId> out;
  for (VertexId v : c) out.insert(g.Neighbors(v).begin(), g.Neighbors(v).end());
  return out;
}

// Drops the members of `c` with no neighbor in C(u') for some u' in
// `against`; returns how many were dropped.
uint64_t RefPrune(const Graph& g, const std::vector<std::set<VertexId>>& cand,
                  std::span<const VertexId> against, std::set<VertexId>& c) {
  const size_t before = c.size();
  for (VertexId uprime : against) {
    const std::set<VertexId> reach = NeighborsOfSet(g, cand[uprime]);
    std::erase_if(c, [&](VertexId v) { return !reach.contains(v); });
  }
  return before - c.size();
}

RefCpi ReferenceCpi(const Graph& q, const Graph& g, const BfsTree& tree,
                    bool bottom_up) {
  const uint32_t n = q.NumVertices();
  RefCpi ref{std::vector<std::set<VertexId>>(n), std::vector<uint64_t>(n),
             std::vector<uint64_t>(n), std::vector<uint64_t>(n),
             std::vector<std::vector<uint32_t>>(n),
             std::vector<std::vector<uint32_t>>(n)};
  auto admits = [&](VertexId u, VertexId v) {
    return g.label(v) == q.label(u) && g.degree(v) >= q.StructuralDegree(u);
  };
  const VertexId r = tree.root;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (admits(r, v) && CandVerify(q, r, g, v)) ref.cand[r].insert(v);
  }
  ref.generated[r] = ref.cand[r].size();
  std::vector<bool> visited(n, false);
  visited[r] = true;
  std::vector<std::vector<VertexId>> unvisited_same_level(n);
  for (uint32_t lev = 1; lev < tree.NumLevels(); ++lev) {
    for (VertexId u : tree.levels[lev]) {
      std::vector<VertexId> vis;
      for (VertexId uprime : q.Neighbors(u)) {
        if (visited[uprime]) {
          vis.push_back(uprime);
        } else if (tree.level[uprime] == tree.level[u]) {
          unvisited_same_level[u].push_back(uprime);
        }
      }
      // Seeds come from the first visited neighbor; the rest filter them.
      for (VertexId v : NeighborsOfSet(g, ref.cand[vis.front()])) {
        if (admits(u, v)) ref.cand[u].insert(v);
      }
      RefPrune(g, ref.cand, std::span(vis).subspan(1), ref.cand[u]);
      std::erase_if(ref.cand[u],
                    [&](VertexId v) { return !CandVerify(q, u, g, v); });
      ref.generated[u] = ref.cand[u].size();
      visited[u] = true;
    }
    for (auto it = tree.levels[lev].rbegin(); it != tree.levels[lev].rend();
         ++it) {
      ref.pruned_backward[*it] = RefPrune(g, ref.cand,
                                          unvisited_same_level[*it],
                                          ref.cand[*it]);
    }
  }
  if (bottom_up) {
    for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
      std::vector<VertexId> lower;
      for (VertexId uprime : q.Neighbors(*it)) {
        if (tree.level[uprime] == tree.level[*it] + 1) lower.push_back(uprime);
      }
      ref.pruned_bottomup[*it] = RefPrune(g, ref.cand, lower, ref.cand[*it]);
    }
  }
  for (VertexId u = 0; u < n; ++u) {
    if (u == r) continue;
    const std::vector<VertexId> child(ref.cand[u].begin(), ref.cand[u].end());
    ref.offsets[u].push_back(0);
    for (VertexId vp : ref.cand[tree.parent[u]]) {
      for (uint32_t i = 0; i < child.size(); ++i) {
        if (g.HasEdge(vp, child[i])) ref.entries[u].push_back(i);
      }
      ref.offsets[u].push_back(CheckedU32(ref.entries[u].size()));
    }
  }
  return ref;
}

// `builder` is reused across calls, as CflMatcher reuses it across queries,
// so scratch left dirty by one build would corrupt a later one.
void ExpectMatchesReference(CpiBuilder& builder, const Graph& q,
                            const Graph& g, uint64_t seed,
                            const std::string& where) {
  const BfsTree tree = BuildBfsTree(q, CheckedU32(seed % q.NumVertices()));
  for (CpiStrategy strategy : {CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
    const RefCpi ref =
        ReferenceCpi(q, g, tree, strategy == CpiStrategy::kRefined);
    CpiBuildStats stats;
    Cpi cpi = builder.Build(q, tree, strategy, &stats);
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      const std::string at =
          where + " strategy " + std::to_string(int(strategy)) + " u " +
          std::to_string(u);
      EXPECT_EQ(ToVec(cpi.Candidates(u)),
                std::vector<VertexId>(ref.cand[u].begin(), ref.cand[u].end()))
          << at;
      EXPECT_EQ(ToVec(cpi.AdjacencyOffsets(u)), ref.offsets[u]) << at;
      EXPECT_EQ(ToVec(cpi.AdjacencyEntries(u)), ref.entries[u]) << at;
      if (obs::kStatsEnabled) {
        EXPECT_EQ(stats.generated[u], ref.generated[u]) << at;
        EXPECT_EQ(stats.pruned_backward[u], ref.pruned_backward[u]) << at;
        EXPECT_EQ(stats.pruned_bottomup[u], ref.pruned_bottomup[u]) << at;
      }
    }
  }
}

// |V| straddles the 64-bit word boundary (63/64/65) and grows to sizes
// where seed sets span many words; 8 queries per size, dense and sparse.
TEST(CpiReferenceTest, MatchesLiteralAlgorithmsOnSyntheticGraphs) {
  for (uint32_t num_vertices : {63u, 64u, 65u, 200u, 1000u}) {
    SyntheticOptions options;
    options.num_vertices = num_vertices;
    options.average_degree = 5.0;
    options.num_labels = num_vertices < 100 ? 3 : 6;
    options.seed = num_vertices;
    Graph g = MakeSynthetic(options);
    CpiBuilder builder(g);
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      QueryGenOptions query_options;
      query_options.num_vertices = 4 + seed % 5;
      query_options.sparse = seed % 2 == 0;
      query_options.seed = seed * 31 + num_vertices;
      Graph q = GenerateQuery(g, query_options);
      ExpectMatchesReference(
          builder, q, g, seed,
          "|V|=" + std::to_string(num_vertices) + " seed " +
              std::to_string(seed));
    }
  }
}

// Sparse, label-uniform data over 4096 vertices (64 bitmap words): a label
// class holds ~256 ids spread across the whole id range, so small seed sets
// span many words and take the sort path, while larger ones are scanned,
// through the same reused builder.
TEST(CpiReferenceTest, MatchesLiteralAlgorithmsOnSparseWideSeedSets) {
  SyntheticOptions options;
  options.num_vertices = 4096;
  options.average_degree = 3.0;
  options.num_labels = 16;
  options.label_exponent = 0.0;
  options.seed = 5;
  Graph g = MakeSynthetic(options);
  CpiBuilder builder(g);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    QueryGenOptions query_options;
    query_options.num_vertices = 4 + seed % 4;
    query_options.sparse = seed % 2 == 0;
    query_options.seed = seed;
    ExpectMatchesReference(builder, GenerateQuery(g, query_options), g, seed,
                           "wide seed " + std::to_string(seed));
  }
}

// A compressed data graph: self-loops on clique classes put a vertex in its
// own label run, and degrees are effective (expanded) values.
TEST(CpiReferenceTest, MatchesLiteralAlgorithmsOnCompressedGraph) {
  SyntheticOptions options;
  options.num_vertices = 150;
  options.average_degree = 4.0;
  options.num_labels = 4;
  options.seed = 11;
  Graph g = AddTwinVertices(MakeSynthetic(options), 100, 0.5, 3);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    QueryGenOptions query_options;
    query_options.num_vertices = 5;
    query_options.sparse = seed % 2 == 0;
    query_options.seed = seed;
    Graph q = GenerateQuery(g, query_options);
    CompressedGraph cg = CompressForQuery(g, q);
    CpiBuilder builder(cg.graph);
    ExpectMatchesReference(builder, q, cg.graph, seed,
                           "compressed seed " + std::to_string(seed));
  }
}

// 100 uniform labels: labels l and l + 64 share a bit of the neighbor-label
// mask, so seeding's mask test lets through vertices that NLF then rejects
// in CandVerify. The candidate sets must still equal the reference's.
TEST(CpiReferenceTest, MatchesLiteralAlgorithmsWithAliasedLabelMasks) {
  SyntheticOptions options;
  options.num_vertices = 3000;
  options.average_degree = 8.0;
  options.num_labels = 100;
  options.label_exponent = 0.0;
  options.seed = 17;
  Graph g = MakeSynthetic(options);
  ASSERT_GT(g.NumLabels(), 64u);
  // The data really aliases: some vertex has a mask bit for a label it has
  // no neighbor of.
  bool aliased = false;
  for (VertexId v = 0; v < g.NumVertices() && !aliased; ++v) {
    for (Label l = 0; l < g.NumLabels() && !aliased; ++l) {
      aliased = g.NeighborLabelCount(v, l) == 0 &&
                ((g.NeighborLabelMask(v) >> (l & 63)) & 1) != 0;
    }
  }
  ASSERT_TRUE(aliased);
  CpiBuilder builder(g);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    QueryGenOptions query_options;
    query_options.num_vertices = 4 + seed % 5;
    query_options.sparse = seed % 2 == 0;
    query_options.seed = seed;
    ExpectMatchesReference(builder, GenerateQuery(g, query_options), g, seed,
                           "aliased seed " + std::to_string(seed));
  }
}

// A compressed graph where some singleton vertices carry a self-loop: a
// self-loop run with no other member counts zero expanded neighbors, so its
// NLF entry is zero and sets no mask bit. Clique classes (multiplicity 2
// with a self-loop) sit beside them. Queries come from the plain graph.
TEST(CpiReferenceTest, MatchesLiteralAlgorithmsWithZeroCountSelfLoopRuns) {
  SyntheticOptions options;
  options.num_vertices = 400;
  options.average_degree = 5.0;
  options.num_labels = 8;
  options.seed = 23;
  const Graph plain = MakeSynthetic(options);
  const uint32_t n = plain.NumVertices();
  GraphBuilder b(n);
  b.AllowSelfLoops();
  std::vector<uint32_t> multiplicity(n, 1);
  for (VertexId v = 0; v < n; ++v) {
    b.SetLabel(v, plain.label(v));
    for (VertexId w : plain.Neighbors(v)) {
      if (v < w) b.AddEdge(v, w);
    }
    if (v % 3 == 0) b.AddEdge(v, v);      // singleton self-loop
    if (v % 7 == 1) {                     // clique class of two
      multiplicity[v] = 2;
      b.AddEdge(v, v);
    }
  }
  b.SetMultiplicities(std::move(multiplicity));
  const Graph g = std::move(b).Build();
  bool zero_run = false;
  for (VertexId v = 0; v < n && !zero_run; ++v) {
    for (const Graph::LabelCount& entry : g.NeighborLabelCounts(v)) {
      zero_run = zero_run || entry.count == 0;
    }
  }
  ASSERT_TRUE(zero_run);
  CpiBuilder builder(g);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    QueryGenOptions query_options;
    query_options.num_vertices = 4 + seed % 5;
    query_options.sparse = seed % 2 == 0;
    query_options.seed = seed;
    ExpectMatchesReference(builder, GenerateQuery(plain, query_options), g,
                           seed, "self-loop seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace cfl
