// Property tests for the kernel layer (kernels/kernels.h).
//
// The contract under test: for identical inputs, the scalar reference, the
// AVX2-tier implementation, and the dispatched entry point return the same
// first-failure index from VerifyBackwardEdges, over hub and non-hub
// mixes, empty plans, and graphs without a hub index.

#include "kernels/kernels.h"

#include <cstdint>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/env.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace cfl {
namespace {

using kernels::BackwardPlan;
using kernels::Isa;

// ---- backward-edge verification ------------------------------------------

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

TEST(KernelsVerifyTest, MatchesPerEdgeHasEdgeOnHubAndNonHubMixes) {
  Graph g = HubMixData();
  ASSERT_TRUE(g.HasHubIndex());
  ASSERT_TRUE(g.IsHub(0));
  ASSERT_FALSE(g.IsHub(4));

  std::mt19937 rng(97);
  std::uniform_int_distribution<uint32_t> pick(0, g.NumVertices() - 1);
  for (int trial = 0; trial < 2000; ++trial) {
    BackwardPlan plan;
    plan.Reset();
    const uint32_t n = 1 + trial % 7;
    std::vector<VertexId> mapped;
    for (uint32_t k = 0; k < n; ++k) {
      VertexId w = pick(rng);
      // Bias toward hubs so the all-hub bit-parallel path gets exercised.
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
    EXPECT_EQ(kernels::scalar::VerifyBackwardEdges(g, plan, v), want)
        << "trial " << trial << " v=" << v;
    EXPECT_EQ(kernels::avx2::VerifyBackwardEdges(g, plan, v), want)
        << "trial " << trial << " v=" << v;
    EXPECT_EQ(kernels::VerifyBackwardEdges(g, plan, v), want)
        << "trial " << trial << " v=" << v;
  }
}

TEST(KernelsVerifyTest, PlanTracksHubRowsAndAllHubFlag) {
  Graph g = HubMixData();
  BackwardPlan plan;
  plan.Add(g, 0);
  plan.Add(g, 1);
  EXPECT_TRUE(plan.all_hub);
  EXPECT_NE(plan.edges[0].row, nullptr);
  plan.Add(g, 5);  // tail vertex: not a hub
  EXPECT_FALSE(plan.all_hub);
  EXPECT_EQ(plan.edges[2].row, nullptr);
  plan.Reset();
  EXPECT_TRUE(plan.all_hub);
  EXPECT_TRUE(plan.edges.empty());
}

TEST(KernelsVerifyTest, EmptyPlanAlwaysPasses) {
  Graph g = HubMixData();
  BackwardPlan plan;
  EXPECT_EQ(kernels::VerifyBackwardEdges(g, plan, 0), 0u);
  EXPECT_EQ(kernels::scalar::VerifyBackwardEdges(g, plan, 7), 0u);
  EXPECT_EQ(kernels::avx2::VerifyBackwardEdges(g, plan, 7), 0u);
}

TEST(KernelsVerifyTest, WorksWithoutHubIndex) {
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
  EXPECT_FALSE(plan.all_hub);
  EXPECT_EQ(kernels::scalar::VerifyBackwardEdges(g, plan, 2), 2u);
  EXPECT_EQ(kernels::avx2::VerifyBackwardEdges(g, plan, 2), 2u);
  EXPECT_EQ(kernels::scalar::VerifyBackwardEdges(g, plan, 3), 0u);
  plan.Reset();
  plan.Add(g, 2);
  plan.Add(g, 3);  // v=0: edge (2,0) holds, (3,0) doesn't -> first fail 1
  EXPECT_EQ(kernels::avx2::VerifyBackwardEdges(g, plan, 0), 1u);
}

// ---- dispatch ------------------------------------------------------------

TEST(KernelsDispatchTest, StartupSelectionIsConsistent) {
  const Isa isa = kernels::ActiveIsa();
  if (env::Get("CFL_FORCE_SCALAR") != nullptr &&
      std::string_view(env::Get("CFL_FORCE_SCALAR")) != "0") {
    EXPECT_EQ(isa, Isa::kScalar);
    EXPECT_FALSE(kernels::PrefetchEnabled());
  } else if (kernels::Avx2Available()) {
    EXPECT_EQ(isa, Isa::kAvx2);
  } else {
    EXPECT_EQ(isa, Isa::kScalar);
  }
  EXPECT_STRNE(kernels::IsaName(isa), "");
  // CompiledIn is a superset condition of Available.
  if (kernels::Avx2Available()) {
    EXPECT_TRUE(kernels::Avx2CompiledIn());
  }
}

TEST(KernelsDispatchTest, ForcedIsasAgreeBitForBit) {
  const Isa original = kernels::ActiveIsa();
  Graph g = HubMixData();
  BackwardPlan plan;
  plan.Add(g, 0);
  plan.Add(g, 1);
  plan.Add(g, 2);
  plan.Add(g, 3);

  kernels::ForceIsaForTesting(Isa::kScalar);
  EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);
  std::vector<uint32_t> scalar_fails;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    scalar_fails.push_back(kernels::VerifyBackwardEdges(g, plan, v));
  }

  if (kernels::Avx2Available()) {
    kernels::ForceIsaForTesting(Isa::kAvx2);
    EXPECT_EQ(kernels::ActiveIsa(), Isa::kAvx2);
    std::vector<uint32_t> fails;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      fails.push_back(kernels::VerifyBackwardEdges(g, plan, v));
    }
    EXPECT_EQ(fails, scalar_fails);
  }

  kernels::ForceIsaForTesting(original);
  EXPECT_EQ(kernels::ActiveIsa(), original);
}

TEST(KernelsDispatchTest, PrefetchSpanIsAHarmlessHint) {
  // Purely a smoke test: any pointer/size combination must be safe.
  std::vector<uint32_t> v(100000);
  kernels::PrefetchSpan(nullptr, 0);
  kernels::PrefetchSpan(v.data(), 0);
  kernels::PrefetchSpan(v.data(), 1);
  kernels::PrefetchSpan(v.data(), 64);
  kernels::PrefetchSpan(v.data(), 65);
  kernels::PrefetchSpan(v.data(), v.size() * sizeof(uint32_t));
  SUCCEED();
}

}  // namespace
}  // namespace cfl
