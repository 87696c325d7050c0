// End-to-end tests of CflMatcher: paper examples, variant agreement,
// enumeration mode, limits, and leaf-match counting against brute force.

#include "match/cfl_match.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace cfl {
namespace {

using testing::BruteForceCount;
using testing::Figure3Data;
using testing::Figure3Query;
using testing::Figure7Data;
using testing::Figure7Query;

TEST(CflMatchTest, Figure3HasThreeEmbeddings) {
  Graph q = Figure3Query();
  Graph g = Figure3Data();
  ASSERT_EQ(BruteForceCount(q, g), 3u);  // the paper lists exactly three

  CflMatcher matcher(g);
  MatchResult r = matcher.Match(q);
  EXPECT_EQ(r.embeddings, 3u);
  EXPECT_FALSE(r.timed_out);
  EXPECT_FALSE(r.reached_limit);
}

TEST(CflMatchTest, Figure3EnumerationMatchesPaperList) {
  Graph q = Figure3Query();
  Graph g = Figure3Data();
  CflMatcher matcher(g);
  MatchOptions options;
  std::set<Embedding> seen;
  options.on_embedding = [&](const Embedding& m) {
    seen.insert(m);
    return true;
  };
  MatchResult r = matcher.Match(q, options);
  EXPECT_EQ(r.embeddings, 3u);
  std::set<Embedding> expected = {{0, 2, 1, 5, 4}, {0, 2, 1, 5, 6},
                                  {0, 2, 3, 5, 6}};
  EXPECT_EQ(seen, expected);
}

TEST(CflMatchTest, Figure7HasTwoEmbeddings) {
  Graph q = Figure7Query();
  Graph g = Figure7Data();
  ASSERT_EQ(BruteForceCount(q, g), 2u);
  CflMatcher matcher(g);
  EXPECT_EQ(matcher.Match(q).embeddings, 2u);
}

TEST(CflMatchTest, EmbeddingsAreValid) {
  Graph q = Figure3Query();
  Graph g = Figure3Data();
  CflMatcher matcher(g);
  MatchOptions options;
  options.on_embedding = [&](const Embedding& m) {
    // Injective, label-preserving, edge-preserving.
    std::set<VertexId> distinct(m.begin(), m.end());
    EXPECT_EQ(distinct.size(), m.size());
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      EXPECT_EQ(q.label(u), g.label(m[u]));
      for (VertexId w : q.Neighbors(u)) {
        EXPECT_TRUE(g.HasEdge(m[u], m[w]));
      }
    }
    return true;
  };
  matcher.Match(q, options);
}

TEST(CflMatchTest, NoEmbeddingsForImpossibleLabel) {
  Graph g = Figure3Data();
  Graph q = MakeGraph({0, 9}, {{0, 1}});  // label 9 absent from g
  CflMatcher matcher(g);
  EXPECT_EQ(matcher.Match(q).embeddings, 0u);
}

TEST(CflMatchTest, MaxEmbeddingsStopsEarly) {
  // Star query into a large star: many embeddings, cap at 5.
  Graph q = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  GraphBuilder b(11);
  b.SetLabel(0, 0);
  for (VertexId v = 1; v <= 10; ++v) {
    b.SetLabel(v, 1);
    b.AddEdge(0, v);
  }
  Graph g = std::move(b).Build();
  ASSERT_EQ(BruteForceCount(q, g), 90u);

  CflMatcher matcher(g);
  MatchOptions options;
  options.limits.max_embeddings = 5;
  MatchResult r = matcher.Match(q, options);
  EXPECT_TRUE(r.reached_limit);
  EXPECT_GE(r.embeddings, 5u);

  // Without a cap the count is exact.
  EXPECT_EQ(matcher.Match(q).embeddings, 90u);
}

TEST(CflMatchTest, TreeQueriesWork) {
  Graph g = Figure3Data();
  // Path query C-D-E (labels 2,3,4).
  Graph q = MakeGraph({2, 3, 4}, {{0, 1}, {1, 2}});
  CflMatcher matcher(g);
  EXPECT_EQ(matcher.Match(q).embeddings, BruteForceCount(q, g));
}

TEST(CflMatchTest, SingleEdgeQuery) {
  Graph g = Figure3Data();
  Graph q = MakeGraph({0, 1}, {{0, 1}});  // A-B
  CflMatcher matcher(g);
  EXPECT_EQ(matcher.Match(q).embeddings, BruteForceCount(q, g));
}

TEST(CflMatchTest, VariantsAgreeOnPaperFixtures) {
  Graph g = Figure3Data();
  Graph q = Figure3Query();
  CflMatcher matcher(g);
  for (DecompositionMode mode :
       {DecompositionMode::kCfl, DecompositionMode::kCoreForest,
        DecompositionMode::kNone}) {
    for (CpiStrategy strategy :
         {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
      MatchOptions options;
      options.decomposition = mode;
      options.cpi_strategy = strategy;
      EXPECT_EQ(matcher.Match(q, options).embeddings, 3u)
          << "mode " << static_cast<int>(mode) << " strategy "
          << static_cast<int>(strategy);
    }
  }
}

TEST(CflMatchTest, TimeoutReported) {
  // A pathologically symmetric instance: clique query into a larger clique
  // of one label explodes combinatorially; a tiny deadline must trip.
  const uint32_t kQ = 8, kG = 64;
  GraphBuilder qb(kQ);
  for (VertexId a = 0; a < kQ; ++a) {
    for (VertexId b = a + 1; b < kQ; ++b) qb.AddEdge(a, b);
  }
  Graph q = std::move(qb).Build();
  GraphBuilder gb(kG);
  for (VertexId a = 0; a < kG; ++a) {
    for (VertexId b = a + 1; b < kG; ++b) gb.AddEdge(a, b);
  }
  Graph g = std::move(gb).Build();

  CflMatcher matcher(g);
  MatchOptions options;
  options.limits.time_limit_seconds = 0.05;
  MatchResult r = matcher.Match(q, options);
  EXPECT_TRUE(r.timed_out);
}

TEST(CflMatchTest, ResultTimingsArePopulated) {
  Graph g = Figure3Data();
  Graph q = Figure3Query();
  CflMatcher matcher(g);
  MatchResult r = matcher.Match(q);
  EXPECT_GE(r.build_seconds, 0.0);
  EXPECT_GE(r.order_seconds, 0.0);
  EXPECT_GE(r.enumerate_seconds, 0.0);
  EXPECT_GE(r.total_seconds,
            r.build_seconds + r.order_seconds + r.enumerate_seconds - 1e-6);
  EXPECT_GT(r.index_entries, 0u);
}

// Leaf-heavy queries exercise the label-class/NEC counting path; sweep
// random instances against brute force.
class LeafCountingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeafCountingTest, CountMatchesBruteForce) {
  const uint64_t seed = GetParam();
  SyntheticOptions options;
  options.num_vertices = 50;
  options.average_degree = 5.0;
  options.num_labels = 3;  // few labels => NEC groups and class conflicts
  options.seed = seed;
  Graph g = MakeSynthetic(options);

  QueryGenOptions query_options;
  query_options.num_vertices = 7;
  query_options.sparse = true;  // sparse => many leaves
  query_options.seed = seed + 1000;
  Graph q = GenerateQuery(g, query_options);

  CflMatcher matcher(g);
  EXPECT_EQ(matcher.Match(q).embeddings, BruteForceCount(q, g))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LeafCountingTest,
                         ::testing::Range<uint64_t>(0, 25));

// Enumeration mode must produce exactly the same embeddings as brute force.
class EnumerationAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumerationAgreementTest, SetsMatch) {
  const uint64_t seed = GetParam();
  SyntheticOptions options;
  options.num_vertices = 40;
  options.average_degree = 4.0;
  options.num_labels = 3;
  options.seed = seed * 13 + 5;
  Graph g = MakeSynthetic(options);

  QueryGenOptions query_options;
  query_options.num_vertices = 6;
  query_options.sparse = (seed % 2 == 1);
  query_options.seed = seed;
  Graph q = GenerateQuery(g, query_options);

  std::vector<Embedding> truth = testing::BruteForceEmbeddings(q, g);
  std::set<Embedding> expected(truth.begin(), truth.end());

  CflMatcher matcher(g);
  MatchOptions options2;
  std::set<Embedding> seen;
  options2.on_embedding = [&](const Embedding& m) {
    EXPECT_TRUE(seen.insert(m).second) << "duplicate embedding";
    return true;
  };
  MatchResult r = matcher.Match(q, options2);
  EXPECT_EQ(seen, expected) << "seed " << seed;
  EXPECT_EQ(r.embeddings, expected.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnumerationAgreementTest,
                         ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace cfl
