// Tests for the correctness-tooling layer (src/check/): the CFL_CHECK macro
// family and the structural validators. Every validator is exercised both
// on known-good structures (must pass) and on deliberately corrupted copies
// (must fail, with the failure attributed to the right rule — a validator
// that flags the wrong invariant would mislead whoever debugs a real
// corruption).

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.h"
#include "check/test_access.h"
#include "check/validate.h"
#include "cpi/cpi_builder.h"
#include "decomp/bfs_tree.h"
#include "decomp/cfl_decomposition.h"
#include "decomp/nec.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace cfl {
namespace {

using ::cfl::testing::Figure3Data;
using ::cfl::testing::Figure3Query;
using ::cfl::testing::Figure7Data;
using ::cfl::testing::Figure7Query;
using ::cfl::testing::kA;
using ::cfl::testing::kB;
using ::cfl::testing::kC;
using ::cfl::testing::kD;

// Asserts the validator fails and attributes the failure to the right rule.
void ExpectFailureContaining(const ValidationResult& r,
                             const std::string& needle) {
  ASSERT_FALSE(r.ok) << "validator accepted a corrupted structure";
  EXPECT_NE(r.error.find(needle), std::string::npos)
      << "failure \"" << r.error << "\" does not mention \"" << needle
      << "\"";
}

// ---- CFL_CHECK macros -----------------------------------------------------

TEST(CheckMacros, PassingChecksAreSilent) {
  CFL_CHECK(true) << "never evaluated";
  CFL_CHECK_EQ(2 + 2, 4);
  CFL_CHECK_LT(1, 2) << "context";
  CFL_DCHECK(true);
  CFL_DCHECK_GE(5, 5);
}

TEST(CheckMacrosDeathTest, FailureReportsExpressionAndContext) {
  EXPECT_DEATH(CFL_CHECK(1 == 2) << " extra context " << 42,
               "CFL_CHECK failed.*1 == 2.*extra context 42");
}

TEST(CheckMacrosDeathTest, ComparisonFailureReportsValues) {
  int lhs = 3;
  int rhs = 7;
  EXPECT_DEATH(CFL_CHECK_EQ(lhs, rhs) << " while testing",
               "lhs == rhs.*\\(3 vs 7\\).*while testing");
}

#if CFL_DCHECK_IS_ON
TEST(CheckMacrosDeathTest, DchecksActiveInDebugBuilds) {
  EXPECT_DEATH(CFL_DCHECK(false) << " debug only", "CFL_CHECK failed");
}
#else
TEST(CheckMacros, DchecksCompiledOutInReleaseBuilds) {
  int evaluations = 0;
  // The condition is dead: it must not run (and must not abort).
  CFL_DCHECK(++evaluations > 0) << " never printed";
  EXPECT_EQ(evaluations, 0);
}
#endif

// ---- ValidateGraph --------------------------------------------------------

TEST(ValidateGraphTest, AcceptsPaperFixtures) {
  EXPECT_TRUE(ValidateGraph(Figure3Query()).ok);
  EXPECT_TRUE(ValidateGraph(Figure3Data()).ok);
  EXPECT_TRUE(ValidateGraph(Figure7Data()).ok);
}

TEST(ValidateGraphTest, AcceptsCompressedGraphWithSelfLoop) {
  GraphBuilder b(3);
  b.AllowSelfLoops();
  b.SetLabel(0, kA);
  b.SetLabel(1, kB);
  b.SetLabel(2, kB);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 1);  // clique class of two merged B vertices
  b.SetMultiplicities({1, 2, 1});
  EXPECT_TRUE(ValidateGraph(std::move(b).Build()).ok);
}

TEST(ValidateGraphTest, CatchesUnsortedAdjacency) {
  Graph g = Figure3Data();
  std::vector<VertexId>& nb = GraphTestAccess::Neighbors(g);
  // v0's adjacency is {2, 1, 3} in (label, id) order (v2 has label B; v1 and
  // v3 label C); swapping the first two entries puts a C before the B.
  std::swap(nb[0], nb[1]);
  ExpectFailureContaining(ValidateGraph(g), "not strictly ascending");
}

TEST(ValidateGraphTest, CatchesAsymmetricAdjacency) {
  Graph g = Figure3Data();
  // v0's adjacency {2,1,3} -> {2,1,4}: stays (label, id)-sorted (v4 carries
  // label E), but v4 does not list v0 back.
  GraphTestAccess::Neighbors(g)[2] = 4;
  ExpectFailureContaining(ValidateGraph(g), "asymmetric");
}

TEST(ValidateGraphTest, CatchesWrongEdgeCount) {
  Graph g = Figure3Data();
  ++GraphTestAccess::NumEdges(g);
  ExpectFailureContaining(ValidateGraph(g), "NumEdges");
}

TEST(ValidateGraphTest, CatchesLabelIndexInconsistency) {
  Graph g = Figure3Data();
  ++GraphTestAccess::LabelFrequency(g)[kA];
  ExpectFailureContaining(ValidateGraph(g), "LabelFrequency");
}

TEST(ValidateGraphTest, CatchesSortedDegreeDrift) {
  Graph g = Figure3Data();
  ++GraphTestAccess::LabelDegrees(g).back();
  ExpectFailureContaining(ValidateGraph(g), "SortedDegreesWithLabel");
}

TEST(ValidateGraphTest, CatchesNlfDrift) {
  Graph g = Figure3Data();
  ++GraphTestAccess::Nlf(g)[0].count;
  ExpectFailureContaining(ValidateGraph(g), "NLF");
}

TEST(ValidateGraphTest, CatchesNeighborLabelMaskDrift) {
  Graph g = Figure3Data();
  // v0 has B and C neighbors only; claiming an A neighbor would let seeding
  // keep a vertex NLF rejects, and dropping a bit would lose candidates.
  GraphTestAccess::NlfMask(g)[0] ^= uint64_t{1} << kA;
  ExpectFailureContaining(ValidateGraph(g), "NeighborLabelMask(0)");
}

TEST(ValidateGraphTest, CatchesWrongEffectiveDegree) {
  Graph g = Figure3Data();
  ++GraphTestAccess::EffectiveDegree(g)[3];
  ExpectFailureContaining(ValidateGraph(g), "degree(3)");
}

TEST(ValidateGraphTest, CatchesWrongMaxNeighborDegree) {
  Graph g = Figure3Data();
  ++GraphTestAccess::Mnd(g)[5];
  ExpectFailureContaining(ValidateGraph(g), "MaxNeighborDegree");
}

TEST(ValidateGraphTest, CatchesSelfLoopAtSingletonVertex) {
  GraphBuilder b(2);
  b.AllowSelfLoops();
  b.SetLabel(0, kA);
  b.SetLabel(1, kB);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  b.SetMultiplicities({1, 2});
  Graph g = std::move(b).Build();
  ASSERT_TRUE(ValidateGraph(g).ok);
  // Demote the clique class to a singleton: the self-loop becomes illegal.
  GraphTestAccess::Multiplicity(g)[1] = 1;
  GraphTestAccess::EffectiveNumVertices(g) = 2;
  ExpectFailureContaining(ValidateGraph(g), "self-loop");
}

// ---- ValidateBfsTree ------------------------------------------------------

TEST(ValidateBfsTreeTest, AcceptsBuiltTree) {
  Graph q = Figure7Query();
  EXPECT_TRUE(ValidateBfsTree(q, BuildBfsTree(q, 0)).ok);
}

TEST(ValidateBfsTreeTest, CatchesNonEdgeParent) {
  Graph q = Figure7Query();
  BfsTree tree = BuildBfsTree(q, 0);
  // u3's parent is u1; u0 is not adjacent to u3.
  tree.parent[3] = 0;
  ExpectFailureContaining(ValidateBfsTree(q, tree), "not a query edge");
}

TEST(ValidateBfsTreeTest, CatchesWrongLevel) {
  Graph q = Figure7Query();
  BfsTree tree = BuildBfsTree(q, 0);
  ++tree.level[2];
  ExpectFailureContaining(ValidateBfsTree(q, tree), "level");
}

TEST(ValidateBfsTreeTest, CatchesMisclassifiedNonTreeEdge) {
  Graph q = Figure7Query();
  BfsTree tree = BuildBfsTree(q, 0);
  ASSERT_FALSE(tree.non_tree_edges.empty());
  tree.non_tree_edges[0].same_level = !tree.non_tree_edges[0].same_level;
  ExpectFailureContaining(ValidateBfsTree(q, tree), "misclassified");
}

// ---- ValidateCpi ----------------------------------------------------------

struct CpiFixture {
  Graph query = Figure7Query();
  Graph data = Figure7Data();
  BfsTree tree;
  Cpi cpi;

  CpiFixture() {
    tree = BuildBfsTree(query, 0);
    cpi = BuildCpi(query, data, tree, CpiStrategy::kRefined);
  }
};

TEST(ValidateCpiTest, AcceptsBuiltCpi) {
  CpiFixture f;
  EXPECT_TRUE(ValidateCpi(f.query, f.data, f.cpi).ok);
}

TEST(ValidateCpiTest, AcceptsAllStrategies) {
  CpiFixture f;
  for (CpiStrategy strategy :
       {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
    Cpi cpi = BuildCpi(f.query, f.data, f.tree, strategy);
    EXPECT_TRUE(ValidateCpi(f.query, f.data, cpi).ok);
  }
}

TEST(ValidateCpiTest, CatchesUnsortedCandidates) {
  CpiFixture f;
  // u1's refined candidates are {v3, v5}.
  std::span<VertexId> cands = CpiTestAccess::Candidates(f.cpi, 1);
  ASSERT_GE(cands.size(), 2u);
  std::swap(cands.front(), cands.back());
  ExpectFailureContaining(ValidateCpi(f.query, f.data, f.cpi),
                          "not strictly ascending");
}

TEST(ValidateCpiTest, CatchesWrongLabelCandidate) {
  CpiFixture f;
  // Root candidate set becomes {v4}, which carries label C, not A.
  std::span<VertexId> root_cands = CpiTestAccess::Candidates(f.cpi, 0);
  ASSERT_EQ(root_cands.size(), 1u);
  root_cands[0] = 4;
  ExpectFailureContaining(ValidateCpi(f.query, f.data, f.cpi), "label");
}

TEST(ValidateCpiTest, CatchesOutOfRangePosition) {
  CpiFixture f;
  // Non-root vertices store positions into their candidate array; position
  // 200 is far outside any of them. The clobbered entry also breaks the
  // exact block correspondence, which is the rule that must fire.
  for (VertexId u = 1; u < f.query.NumVertices(); ++u) {
    std::span<uint32_t> adj = CpiTestAccess::AdjEntries(f.cpi, u);
    if (adj.empty()) continue;
    const uint32_t saved = adj.back();
    adj.back() = 200;
    ValidationResult r = ValidateCpi(f.query, f.data, f.cpi);
    ASSERT_FALSE(r.ok) << "out-of-range position in u=" << u << " accepted";
    adj.back() = saved;
  }
}

TEST(ValidateCpiTest, CatchesDroppedAdjacencyEntry) {
  CpiFixture f;
  // Shrinking u1's entry slice by one (final relative offset plus the
  // arena-start table for every later vertex) makes u1's last block miss a
  // real data-graph edge — the silent embedding-dropping bug class.
  std::span<uint32_t> offsets = CpiTestAccess::AdjOffsets(f.cpi, 1);
  ASSERT_FALSE(CpiTestAccess::AdjEntries(f.cpi, 1).empty());
  ASSERT_FALSE(offsets.empty());
  --offsets.back();
  std::vector<uint64_t>& start = CpiTestAccess::AdjEntryStart(f.cpi);
  for (size_t u = 2; u < start.size(); ++u) --start[u];
  ExpectFailureContaining(ValidateCpi(f.query, f.data, f.cpi), "misses");
}

TEST(ValidateCpiTest, CatchesPhantomAdjacencyEntry) {
  CpiFixture f;
  // u3's candidates are {v11, v12}; its parent u1 has candidates {v3, v5}.
  // v3 is adjacent to v11 only and v5 to v12 only, so the blocks are {0}
  // and {1}. Moving the block boundary hands v5's entry to v3's block,
  // which then claims a data edge (v3, v12) that does not exist.
  std::span<uint32_t> offsets = CpiTestAccess::AdjOffsets(f.cpi, 3);
  ASSERT_EQ(offsets.size(), 3u);
  ASSERT_EQ(offsets[0], 0u);
  ASSERT_EQ(offsets[1], 1u);
  ASSERT_EQ(offsets[2], 2u);
  offsets[1] = 2;
  ExpectFailureContaining(ValidateCpi(f.query, f.data, f.cpi),
                          "without a matching data-graph edge");
}

TEST(ValidateCpiTest, CatchesBrokenOffsets) {
  CpiFixture f;
  std::span<uint32_t> offsets = CpiTestAccess::AdjOffsets(f.cpi, 1);
  ASSERT_FALSE(offsets.empty());
  ++offsets.back();
  ExpectFailureContaining(ValidateCpi(f.query, f.data, f.cpi), "partition");
}

// ---- ValidateDecomposition ------------------------------------------------

// Triangle {0,1,2} with a pendant leaf 3 on vertex 0.
Graph TriangleWithPendant() {
  return MakeGraph({kA, kB, kC, kD}, {{0, 1}, {0, 2}, {1, 2}, {0, 3}});
}

TEST(ValidateDecompositionTest, AcceptsCoreQueries) {
  Graph q = TriangleWithPendant();
  EXPECT_TRUE(ValidateDecomposition(q, DecomposeCfl(q)).ok);
  Graph fig3 = Figure3Query();
  EXPECT_TRUE(ValidateDecomposition(fig3, DecomposeCfl(fig3)).ok);
}

TEST(ValidateDecompositionTest, AcceptsTreeQuery) {
  Graph path = MakeGraph({kA, kB, kC}, {{0, 1}, {1, 2}});
  EXPECT_TRUE(ValidateDecomposition(path, DecomposeCfl(path, 1)).ok);
}

TEST(ValidateDecompositionTest, CatchesLeafPlacedInCore) {
  Graph q = TriangleWithPendant();
  CflDecomposition d = DecomposeCfl(q);
  ASSERT_EQ(d.leaf, std::vector<VertexId>({3}));
  // Promote the pendant leaf into the core-set: the core is no longer the
  // 2-core.
  d.klass[3] = VertexClass::kCore;
  d.core.push_back(3);
  d.leaf.clear();
  ExpectFailureContaining(ValidateDecomposition(q, d), "2-core");
}

TEST(ValidateDecompositionTest, CatchesLeafMisclassifiedAsForest) {
  Graph q = TriangleWithPendant();
  CflDecomposition d = DecomposeCfl(q);
  d.klass[3] = VertexClass::kForest;
  d.forest = {3};
  d.leaf.clear();
  ExpectFailureContaining(ValidateDecomposition(q, d), "degree");
}

TEST(ValidateDecompositionTest, CatchesKlassListDisagreement) {
  Graph q = TriangleWithPendant();
  CflDecomposition d = DecomposeCfl(q);
  d.klass[1] = VertexClass::kForest;  // lists still say core
  ExpectFailureContaining(ValidateDecomposition(q, d), "klass disagrees");
}

TEST(ValidateDecompositionTest, CatchesMissingConnection) {
  Graph q = TriangleWithPendant();
  CflDecomposition d = DecomposeCfl(q);
  ASSERT_FALSE(d.connections.empty());
  d.connections.clear();
  ExpectFailureContaining(ValidateDecomposition(q, d), "connection");
}

// ---- ValidateNecClasses ---------------------------------------------------

// v1 and v2 are non-adjacent twins (label B, both adjacent to exactly v0).
Graph TwinStar() {
  return MakeGraph({kA, kB, kB, kC}, {{0, 1}, {0, 2}, {0, 3}});
}

TEST(ValidateNecClassesTest, AcceptsComputedClasses) {
  Graph g = TwinStar();
  EXPECT_TRUE(ValidateNecClasses(g, ComputeNecClasses(g)).ok);
  Graph fig3 = Figure3Data();
  EXPECT_TRUE(ValidateNecClasses(fig3, ComputeNecClasses(fig3)).ok);
}

TEST(ValidateNecClassesTest, CatchesMergedNonEquivalentVertices) {
  Graph g = TwinStar();
  // v3 has a different label; forcing it into the twins' class is invalid.
  std::vector<std::vector<VertexId>> classes = {{0}, {1, 2, 3}};
  ExpectFailureContaining(ValidateNecClasses(g, classes), "label");
}

TEST(ValidateNecClassesTest, CatchesSplitEquivalentVertices) {
  Graph g = TwinStar();
  std::vector<std::vector<VertexId>> classes = {{0}, {1}, {2}, {3}};
  ExpectFailureContaining(ValidateNecClasses(g, classes), "merged");
}

TEST(ValidateNecClassesTest, CatchesDifferentNeighborhoods) {
  Graph g = MakeGraph({kA, kB, kB}, {{0, 1}, {1, 2}});
  std::vector<std::vector<VertexId>> classes = {{0}, {1, 2}};
  ExpectFailureContaining(ValidateNecClasses(g, classes), "neighborhoods");
}

// ---- ValidateEmbedding ----------------------------------------------------

TEST(ValidateEmbeddingTest, AcceptsPaperEmbeddings) {
  Graph q = Figure3Query();
  Graph g = Figure3Data();
  // The paper lists (v0, v2, v1, v5, v4) among the three embeddings.
  EXPECT_TRUE(ValidateEmbedding(q, g, {0, 2, 1, 5, 4}).ok);
}

TEST(ValidateEmbeddingTest, CatchesNonInjectiveMapping) {
  Graph q = MakeGraph({kA, kB, kB}, {{0, 1}, {0, 2}});
  Graph g = MakeGraph({kA, kB, kB}, {{0, 1}, {0, 2}});
  ExpectFailureContaining(ValidateEmbedding(q, g, {0, 1, 1}), "absorbs");
}

TEST(ValidateEmbeddingTest, CatchesLabelViolation) {
  Graph q = Figure3Query();
  Graph g = Figure3Data();
  // u1 carries label B but v1 carries label C.
  ExpectFailureContaining(ValidateEmbedding(q, g, {0, 1, 2, 5, 4}),
                          "label");
}

TEST(ValidateEmbeddingTest, CatchesMissingEdge) {
  Graph q = Figure3Query();
  Graph g = Figure3Data();
  // Labels all match (v3 carries C like v1 does), but the query edge
  // (u2, u4) would need the absent data edge (v3, v4).
  ExpectFailureContaining(ValidateEmbedding(q, g, {0, 2, 3, 5, 4}),
                          "no data edge");
}

TEST(ValidateEmbeddingTest, CatchesIncompleteMapping) {
  Graph q = Figure3Query();
  Graph g = Figure3Data();
  ExpectFailureContaining(
      ValidateEmbedding(q, g, {0, 2, 1, 5, kInvalidVertex}), "unmatched");
}

TEST(ValidateEmbeddingTest, RespectsMultiplicityOnCompressedGraphs) {
  // Data: hypervertex v1 stands for two B vertices forming a clique
  // (self-loop); query asks for an adjacent B-B pair.
  GraphBuilder b(2);
  b.AllowSelfLoops();
  b.SetLabel(0, kA);
  b.SetLabel(1, kB);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  b.SetMultiplicities({1, 2});
  Graph data = std::move(b).Build();
  Graph q = MakeGraph({kA, kB, kB}, {{0, 1}, {0, 2}, {1, 2}});

  // Both B query vertices may co-map into the clique class...
  EXPECT_TRUE(ValidateEmbedding(q, data, {0, 1, 1}).ok);
  // ...but a third occupant exceeds the multiplicity.
  Graph q3 = MakeGraph({kA, kB, kB, kB},
                       {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  ExpectFailureContaining(ValidateEmbedding(q3, data, {0, 1, 1, 1}),
                          "multiplicity");
}

}  // namespace
}  // namespace cfl
