// End-to-end tests of CflMatcher: paper examples, variant agreement,
// enumeration mode, limits, and leaf-match counting against brute force.

#include "match/cfl_match.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "match/count_driver.h"
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
// Two generator families: instances 0-14 on sparser graphs with sparse
// queries at odd seeds, 15-34 on denser graphs with sparse queries at even
// seeds.
struct AgreementInput {
  double average_degree;
  uint64_t graph_seed;
  bool sparse;
  uint64_t query_seed;
};

AgreementInput AgreementInputAt(uint64_t index) {
  if (index < 15) return {4.0, index * 13 + 5, index % 2 == 1, index};
  const uint64_t seed = index - 15;
  return {4.5, seed * 7 + 2, seed % 2 == 0, seed};
}

class EnumerationAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumerationAgreementTest, SetsMatch) {
  const AgreementInput input = AgreementInputAt(GetParam());
  SyntheticOptions options;
  options.num_vertices = 40;
  options.average_degree = input.average_degree;
  options.num_labels = 3;
  options.seed = input.graph_seed;
  Graph g = MakeSynthetic(options);

  QueryGenOptions query_options;
  query_options.num_vertices = 6;
  query_options.sparse = input.sparse;
  query_options.seed = input.query_seed;
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
  const std::string tag = "instance " + std::to_string(GetParam());
  EXPECT_EQ(seen, expected) << tag;
  EXPECT_EQ(r.embeddings, expected.size()) << tag;
  EXPECT_FALSE(r.reached_limit) << tag;
  EXPECT_FALSE(r.timed_out) << tag;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnumerationAgreementTest,
                         ::testing::Range<uint64_t>(0, 35));

// ---- Streaming through on_embedding --------------------------------------

// Collects every embedding Match streams for `q` under `limits`.
MatchResult StreamAll(CflMatcher& matcher, const Graph& q,
                      const MatchLimits& limits, std::set<Embedding>* seen) {
  MatchOptions options;
  options.limits = limits;
  options.on_embedding = [seen](const Embedding& m) {
    EXPECT_TRUE(seen->insert(m).second) << "duplicate embedding";
    return true;
  };
  return matcher.Match(q, options);
}

TEST(CflMatchStreamTest, Figure3YieldsAllThree) {
  Graph g = Figure3Data();
  Graph q = Figure3Query();
  CflMatcher matcher(g);
  std::set<Embedding> seen;
  MatchResult r = StreamAll(matcher, q, {}, &seen);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(r.embeddings, 3u);
  EXPECT_FALSE(r.reached_limit);
  EXPECT_FALSE(r.timed_out);
}

TEST(CflMatchStreamTest, EarlyStopIsCheap) {
  // Many embeddings, but the callback stops after the first: the run must
  // end right there, neither capped nor timed out.
  Graph q = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  GraphBuilder b(21);
  b.SetLabel(0, 0);
  for (VertexId v = 1; v <= 20; ++v) {
    b.SetLabel(v, 1);
    b.AddEdge(0, v);
  }
  Graph g = std::move(b).Build();

  CflMatcher matcher(g);
  MatchOptions options;
  uint64_t calls = 0;
  Embedding first;
  options.on_embedding = [&](const Embedding& m) {
    ++calls;
    first = m;
    return false;
  };
  MatchResult r = matcher.Match(q, options);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(r.embeddings, 1u);
  EXPECT_NE(first[1], first[2]);
  EXPECT_FALSE(r.reached_limit);
  EXPECT_FALSE(r.timed_out);
}

TEST(CflMatchStreamTest, NoEmbeddings) {
  Graph g = Figure3Data();
  Graph q = MakeGraph({9, 9}, {{0, 1}});
  CflMatcher matcher(g);
  std::set<Embedding> seen;
  MatchResult r = StreamAll(matcher, q, {}, &seen);
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(r.embeddings, 0u);
}

TEST(CflMatchStreamTest, HonorsMaxEmbeddings) {
  Graph g = Figure3Data();
  Graph q = Figure3Query();  // 3 embeddings total
  CflMatcher matcher(g);
  MatchLimits limits;
  limits.max_embeddings = 2;
  std::set<Embedding> seen;
  MatchResult r = StreamAll(matcher, q, limits, &seen);
  EXPECT_EQ(seen.size(), 2u);  // capped, not exhausted
  EXPECT_EQ(r.embeddings, 2u);
  EXPECT_TRUE(r.reached_limit);
  EXPECT_FALSE(r.timed_out);

  // Same tie-break as counting: reached_limit iff the cap was hit, so a run
  // that exhausts the space below the cap reports neither flag.
  limits.max_embeddings = 100;
  seen.clear();
  r = StreamAll(matcher, q, limits, &seen);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(r.embeddings, 3u);
  EXPECT_FALSE(r.reached_limit);
  EXPECT_FALSE(r.timed_out);
}

TEST(CflMatchStreamTest, HonorsDeadline) {
  // A heavy workload (dense bipartite blow-up, millions of embeddings) with
  // a deadline that has expired by the time enumeration starts: the driver
  // checks it once up front, so the run ends in timed_out far before the
  // full result set.
  GraphBuilder qb(6);
  for (VertexId v = 0; v < 6; ++v) qb.SetLabel(v, v % 2);
  for (VertexId a = 0; a < 6; a += 2) {
    for (VertexId b = 1; b < 6; b += 2) qb.AddEdge(a, b);
  }
  Graph q = std::move(qb).Build();
  GraphBuilder gb(40);
  for (VertexId v = 0; v < 40; ++v) gb.SetLabel(v, v % 2);
  for (VertexId a = 0; a < 40; a += 2) {
    for (VertexId b = 1; b < 40; b += 2) gb.AddEdge(a, b);
  }
  Graph g = std::move(gb).Build();

  CflMatcher matcher(g);
  MatchLimits limits;
  limits.time_limit_seconds = 1e-9;
  uint64_t calls = 0;
  MatchOptions options;
  options.limits = limits;
  options.on_embedding = [&](const Embedding&) {
    ++calls;
    return true;
  };
  MatchResult r = matcher.Match(q, options);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.embeddings, calls);
  EXPECT_LT(calls, 1u << 20);
}

TEST(CflMatchStreamTest, StreamsFromSharedPreparedQuery) {
  Graph g = Figure3Data();
  Graph q = Figure3Query();
  CflMatcher matcher(g);
  std::set<Embedding> direct;
  StreamAll(matcher, q, {}, &direct);
  const PreparedQuery prepared = matcher.Prepare(q);

  // Two runs off the same plan: both yield the full set independently.
  for (int i = 0; i < 2; ++i) {
    std::set<Embedding> seen;
    MatchResult r =
        EnumerateMatches(g, q, prepared, {}, [&](const Embedding& m) {
          seen.insert(m);
          return true;
        });
    EXPECT_EQ(seen, direct);
    EXPECT_EQ(r.embeddings, direct.size());
  }
}

}  // namespace
}  // namespace cfl
