// Direct tests of the CPI-based backtracking enumerator (Algorithm 5):
// state cleanliness across outcomes, backward-edge enforcement, capacity
// semantics, visitor-visible invariants, and the BackwardPlan check against
// a per-edge HasEdge reference.

#include "match/enumerator.h"

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cpi/cpi_builder.h"
#include "decomp/bfs_tree.h"
#include "decomp/cfl_decomposition.h"
#include "graph/graph_builder.h"
#include "order/matching_order.h"
#include "test_util.h"

namespace cfl {
namespace {

using testing::Figure7Data;
using testing::Figure7Query;

struct Fixture {
  Graph q = Figure7Query();
  Graph g = Figure7Data();
  BfsTree tree = BuildBfsTree(q, 0);
  Cpi cpi = BuildCpi(q, g, tree);
  CflDecomposition d = DecomposeCfl(q, 0);
  MatchingOrder order =
      ComputeMatchingOrder(q, cpi, d, DecompositionMode::kNone);
};

TEST(EnumeratorTest, VisitorSeesFullyBoundValidMappings) {
  Fixture f;
  EnumeratorState state(f.q.NumVertices(), f.g.NumVertices());
  Deadline deadline(0.0);
  uint32_t visits = 0;
  EnumerateStatus status = EnumeratePartial(
      f.g, f.cpi, f.order.steps, state, deadline, [&]() {
        ++visits;
        for (VertexId u = 0; u < f.q.NumVertices(); ++u) {
          EXPECT_NE(state.mapping[u], kInvalidVertex);
          EXPECT_EQ(f.g.label(state.mapping[u]), f.q.label(u));
          for (VertexId w : f.q.Neighbors(u)) {
            EXPECT_TRUE(f.g.HasEdge(state.mapping[u], state.mapping[w]));
          }
        }
        return true;
      });
  EXPECT_EQ(status, EnumerateStatus::kDone);
  EXPECT_EQ(visits, 2u);  // Figure 7 has two embeddings
}

TEST(EnumeratorTest, StateCleanAfterEveryOutcome) {
  Fixture f;
  EnumeratorState state(f.q.NumVertices(), f.g.NumVertices());

  auto expect_clean = [&]() {
    for (uint32_t used : state.used) EXPECT_EQ(used, 0u);
    for (VertexId v : state.mapping) EXPECT_EQ(v, kInvalidVertex);
  };

  // Outcome 1: exhausted.
  {
    Deadline deadline(0.0);
    EnumeratePartial(f.g, f.cpi, f.order.steps, state, deadline,
                     []() { return true; });
    expect_clean();
  }
  // Outcome 2: stopped by the visitor.
  {
    Deadline deadline(0.0);
    EnumerateStatus status = EnumeratePartial(
        f.g, f.cpi, f.order.steps, state, deadline, []() { return false; });
    EXPECT_EQ(status, EnumerateStatus::kStopped);
    expect_clean();
  }
  // Outcome 3: timed out (pre-expired deadline still unwinds cleanly).
  {
    Deadline deadline(1e-9);
    while (!deadline.ExpiredCoarse()) {
    }
    EnumerateStatus status = EnumeratePartial(
        f.g, f.cpi, f.order.steps, state, deadline, []() { return true; });
    EXPECT_EQ(status, EnumerateStatus::kTimedOut);
    expect_clean();
  }
}

TEST(EnumeratorTest, SearchCountersAdvance) {
  Fixture f;
  EnumeratorState state(f.q.NumVertices(), f.g.NumVertices());
  Deadline deadline(0.0);
  EnumeratePartial(f.g, f.cpi, f.order.steps, state, deadline,
                   []() { return true; });
  EXPECT_GT(state.candidates_tried, 0u);
  EXPECT_GT(state.candidates_bound, 0u);
  EXPECT_LE(state.candidates_bound, state.candidates_tried);
}

TEST(EnumeratorTest, CapacitySemantics) {
  // Two same-label query vertices against one capacity-2 hypervertex: both
  // may share it; capacity 1 forbids it.
  Graph q = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}, {1, 2}});
  for (uint32_t capacity : {1u, 2u}) {
    GraphBuilder gb(2);
    gb.AllowSelfLoops();
    gb.SetLabel(0, 0);
    gb.SetLabel(1, 1);
    gb.AddEdge(0, 1);
    gb.AddEdge(1, 1);  // clique class
    gb.SetMultiplicities({1, capacity});
    Graph g = std::move(gb).Build();

    BfsTree tree = BuildBfsTree(q, 0);
    Cpi cpi = BuildCpi(q, g, tree);
    if (cpi.HasEmptyCandidateSet()) {
      EXPECT_EQ(capacity, 1u);  // degree filter alone kills capacity 1
      continue;
    }
    CflDecomposition d = DecomposeCfl(q, 0);
    MatchingOrder order =
        ComputeMatchingOrder(q, cpi, d, DecompositionMode::kNone);
    EnumeratorState state(q.NumVertices(), g.NumVertices());
    Deadline deadline(0.0);
    uint32_t matches = 0;
    EnumeratePartial(g, cpi, order.steps, state, deadline, [&]() {
      ++matches;
      return true;
    });
    EXPECT_EQ(matches, capacity == 2 ? 1u : 0u) << "capacity " << capacity;
  }
}

// ---- backward-edge check ---------------------------------------------------

// A graph with both hub and non-hub vertices: vertices 0..3 connect to most
// of the 96 tail vertices (structural degree >= 64 => hubs), the tail
// vertices keep degree <= 4 (non-hubs).
Graph HubMixData() {
  constexpr uint32_t kTail = 96;
  GraphBuilder b(4 + kTail);
  for (uint32_t v = 0; v < 4 + kTail; ++v) b.SetLabel(v, 0);
  for (uint32_t h = 0; h < 4; ++h) {
    for (uint32_t t = 0; t < kTail; ++t) {
      // Each hub skips a different residue class so rows differ.
      if (t % 7 == h) continue;
      b.AddEdge(h, 4 + t);
    }
  }
  return std::move(b).Build();
}

TEST(BackwardPlanTest, MatchesPerEdgeHasEdgeOnHubAndNonHubMixes) {
  Graph g = HubMixData();
  ASSERT_TRUE(g.HasHubIndex());
  ASSERT_TRUE(g.IsHub(0));
  ASSERT_FALSE(g.IsHub(4));

  std::mt19937 rng(97);
  std::uniform_int_distribution<uint32_t> pick(0, g.NumVertices() - 1);
  for (int trial = 0; trial < 2000; ++trial) {
    BackwardPlan plan;
    const uint32_t n = 1 + trial % 7;
    std::vector<VertexId> mapped;
    for (uint32_t k = 0; k < n; ++k) {
      VertexId w = pick(rng);
      // Bias toward hubs so all-hub plans are common.
      if (trial % 3 != 0) w %= 4;
      plan.Add(g, w);
      mapped.push_back(w);
    }
    const VertexId v = pick(rng);

    // Reference: first failing per-edge HasEdge probe, or n if all pass.
    uint32_t want = n;
    for (uint32_t k = 0; k < n; ++k) {
      if (!g.HasEdge(mapped[k], v)) {
        want = k;
        break;
      }
    }
    EXPECT_EQ(plan.FirstFailure(g, v), want)
        << "trial " << trial << " v=" << v;
  }
}

TEST(BackwardPlanTest, PlanTracksHubRows) {
  Graph g = HubMixData();
  BackwardPlan plan;
  plan.Add(g, 0);
  plan.Add(g, 1);
  EXPECT_NE(plan.edges[0].row, nullptr);
  EXPECT_NE(plan.edges[1].row, nullptr);
  plan.Add(g, 5);  // tail vertex: not a hub
  EXPECT_EQ(plan.edges[2].row, nullptr);
  EXPECT_EQ(plan.edges[2].mapped, 5u);
  plan.Reset();
  EXPECT_TRUE(plan.edges.empty());
}

TEST(BackwardPlanTest, EmptyPlanAlwaysPasses) {
  Graph g = HubMixData();
  BackwardPlan plan;
  EXPECT_EQ(plan.FirstFailure(g, 0), 0u);
  EXPECT_EQ(plan.FirstFailure(g, 7), 0u);
}

TEST(BackwardPlanTest, WorksWithoutHubIndex) {
  // Every degree is below the hub threshold, so the graph has no hub
  // index: every plan edge falls back to HasEdge.
  GraphBuilder b(6);
  for (uint32_t v = 0; v < 6; ++v) b.SetLabel(v, 0);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build();
  ASSERT_FALSE(g.HasHubIndex());
  BackwardPlan plan;
  plan.Add(g, 0);
  plan.Add(g, 1);
  EXPECT_EQ(plan.edges[0].row, nullptr);
  EXPECT_EQ(plan.FirstFailure(g, 2), 2u);
  EXPECT_EQ(plan.FirstFailure(g, 3), 0u);
  plan.Reset();
  plan.Add(g, 2);
  plan.Add(g, 3);  // v=0: edge (2,0) holds, (3,0) doesn't -> first fail 1
  EXPECT_EQ(plan.FirstFailure(g, 0), 1u);
}

}  // namespace
}  // namespace cfl
