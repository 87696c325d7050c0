// Execution-stats observability layer (src/obs/): randomized property tests
// of the accounting identities, serial-vs-parallel stats equivalence across
// thread counts, expansion-vs-counting stats equality, deadline/limit edge
// cases, and the CFL_STATS compile gate.
//
// The identities under test (see src/obs/stats.h):
//   * generated[u] - pruned_backward[u] - pruned_bottomup[u] == |C(u)|
//     for every query vertex u,
//   * embeddings_found == MatchResult::embeddings,
//   * sum of phase timers <= total wall time,
//   * sum(|C(u)|) == cpi_candidate_entries,
//   * TotalRootsClaimed() <= root_candidates (== without a cap/deadline).
// CheckStatsInvariants bundles them; the tests here also re-check the
// per-vertex identity explicitly so a violation names the vertex.

#include "obs/stats.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/compress.h"
#include "decomp/bfs_tree.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "match/cfl_match.h"
#include "match/enumerator.h"
#include "parallel/parallel_match.h"
#include "test_util.h"

namespace cfl {
namespace {

using testing::Figure3Data;
using testing::Figure3Query;

// Small synthetic data graph for a given seed; sized so that 100 pairs run
// in seconds but queries still exercise core/forest/leaf structure.
Graph TestData(uint64_t seed) {
  SyntheticOptions options;
  options.num_vertices = 150;
  options.average_degree = 6.0;
  options.num_labels = 6;
  options.seed = seed + 1;
  return MakeSynthetic(options);
}

Graph TestQuery(const Graph& data, uint64_t seed) {
  QueryGenOptions options;
  options.num_vertices = 7;
  options.sparse = (seed % 2 == 0);
  options.seed = seed * 13 + 5;
  return GenerateQuery(data, options);
}

// Asserts every stats identity on `result`, naming `tag` on failure.
void ExpectStatsConsistent(const MatchResult& result, const std::string& tag) {
  if (!obs::kStatsEnabled) return;
  const MatchStats& s = result.stats;
  ASSERT_TRUE(s.recorded) << tag;

  // The bundled checker first (it covers everything below and more)...
  EXPECT_EQ(obs::CheckStatsInvariants(s, result.embeddings,
                                      result.total_seconds),
            "")
      << tag;

  // ...then the load-bearing identities explicitly, naming the vertex.
  EXPECT_EQ(s.embeddings_found, result.embeddings) << tag;
  EXPECT_LE(s.PhaseSecondsSum(), result.total_seconds + 1e-6) << tag;
  const size_t n = s.cpi_candidates_per_vertex.size();
  ASSERT_EQ(s.cpi.generated.size(), n) << tag;
  ASSERT_EQ(s.cpi.pruned_backward.size(), n) << tag;
  ASSERT_EQ(s.cpi.pruned_bottomup.size(), n) << tag;
  uint64_t entries = 0;
  for (size_t u = 0; u < n; ++u) {
    EXPECT_EQ(s.cpi.generated[u] - s.cpi.pruned_backward[u] -
                  s.cpi.pruned_bottomup[u],
              s.cpi_candidates_per_vertex[u])
        << tag << " u=" << u;
    entries += s.cpi_candidates_per_vertex[u];
  }
  if (n > 0) {
    EXPECT_EQ(entries, s.cpi_candidate_entries) << tag;
  }
  EXPECT_LE(s.enumeration.hub_probes, s.enumeration.backward_probes) << tag;
  EXPECT_LE(s.enumeration.backward_rejects, s.enumeration.backward_probes)
      << tag;
  EXPECT_LE(s.enumeration.leaf_sampled_calls, s.enumeration.leaf_calls) << tag;
  EXPECT_LE(s.candidates_bound, s.candidates_tried) << tag;
  EXPECT_LE(s.TotalRootsClaimed(), s.root_candidates) << tag;
}

// ---- Property test: 10 data graphs x 10 queries = 100 seeded pairs ------

class StatsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsPropertyTest, AccountingIdentitiesHoldOnRandomPairs) {
  const uint64_t data_seed = GetParam();
  Graph g = TestData(data_seed);
  CflMatcher matcher(g);
  for (uint64_t query_seed = 0; query_seed < 10; ++query_seed) {
    Graph q = TestQuery(g, data_seed * 10 + query_seed);
    MatchResult result = matcher.Match(q);
    ExpectStatsConsistent(result, "data_seed=" + std::to_string(data_seed) +
                                      " query_seed=" +
                                      std::to_string(query_seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StatsPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

// The CPI ablation strategies and both decomposition ablations must satisfy
// the same identities (the per-vertex accounting is strategy-independent).
TEST(StatsPropertyTest, IdentitiesHoldAcrossAblations) {
  Graph g = TestData(42);
  CflMatcher matcher(g);
  Graph q = TestQuery(g, 7);
  for (CpiStrategy strategy :
       {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
    for (DecompositionMode mode :
         {DecompositionMode::kNone, DecompositionMode::kCoreForest,
          DecompositionMode::kCfl}) {
      MatchOptions options;
      options.cpi_strategy = strategy;
      options.decomposition = mode;
      MatchResult result = matcher.Match(q, options);
      ExpectStatsConsistent(result,
                            "strategy=" + std::to_string(int(strategy)) +
                                " mode=" + std::to_string(int(mode)));
    }
  }
}

// A query with an empty candidate set short-circuits enumeration
// (PreparedQuery::no_results); the stats must still be well-formed.
TEST(StatsPropertyTest, ImpossibleQueryShortCircuitConsistent) {
  Graph g = Figure3Data();
  // Label 9 does not occur in the data graph.
  Graph q = MakeGraph({9, 9}, {{0, 1}});
  CflMatcher matcher(g);
  MatchResult result = matcher.Match(q);
  EXPECT_EQ(result.embeddings, 0u);
  if (obs::kStatsEnabled) {
    EXPECT_EQ(obs::CheckStatsInvariants(result.stats, result.embeddings,
                                        result.total_seconds),
              "");
    EXPECT_EQ(result.stats.embeddings_found, 0u);
  }
}

// Prepare must carry the Prepare-side half on its own (the parallel matcher
// consumes it from PreparedQuery, not MatchResult).
TEST(StatsPropertyTest, PrepareRecordsBuildSideStats) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Graph g = Figure3Data();
  Graph q = Figure3Query();
  CflMatcher matcher(g);
  PreparedQuery prepared = matcher.Prepare(q);
  EXPECT_TRUE(prepared.stats.recorded);
  EXPECT_EQ(prepared.stats.cpi_candidates_per_vertex.size(), q.NumVertices());
  uint64_t entries = std::accumulate(
      prepared.stats.cpi_candidates_per_vertex.begin(),
      prepared.stats.cpi_candidates_per_vertex.end(), uint64_t{0});
  EXPECT_EQ(entries, prepared.stats.cpi_candidate_entries);
  EXPECT_GT(prepared.stats.cpi_candidate_entries, 0u);
  // Enumeration-side fields stay untouched by Prepare.
  EXPECT_EQ(prepared.stats.embeddings_found, 0u);
  EXPECT_EQ(prepared.stats.enumeration.core_visits, 0u);
}

// ---- Parallel equivalence: 1/2/4 threads vs serial ----------------------

// On a complete, uncapped counting run every worker partition explores the
// same search space the serial matcher does, so all order-independent
// counters must be *equal* across thread counts — not merely close.
TEST(ParallelStatsTest, OrderIndependentCountersMatchSerial) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Graph g = TestData(3);
  CflMatcher serial(g);
  for (uint64_t query_seed = 0; query_seed < 5; ++query_seed) {
    Graph q = TestQuery(g, query_seed);
    MatchResult reference = serial.Match(q);
    ExpectStatsConsistent(reference, "serial");
    for (uint32_t threads : {1u, 2u, 4u}) {
      ParallelCflMatcher parallel(g, threads);
      MatchResult result = parallel.Match(q);
      const std::string tag = "threads=" + std::to_string(threads) +
                              " query_seed=" + std::to_string(query_seed);
      ExpectStatsConsistent(result, tag);
      EXPECT_EQ(result.embeddings, reference.embeddings) << tag;

      const EnumStats& a = reference.stats.enumeration;
      const EnumStats& b = result.stats.enumeration;
      EXPECT_EQ(b.backward_probes, a.backward_probes) << tag;
      EXPECT_EQ(b.hub_probes, a.hub_probes) << tag;
      EXPECT_EQ(b.backward_rejects, a.backward_rejects) << tag;
      EXPECT_EQ(b.conflict_rejects, a.conflict_rejects) << tag;
      EXPECT_EQ(b.partials_discarded, a.partials_discarded) << tag;
      EXPECT_EQ(b.max_depth, a.max_depth) << tag;
      EXPECT_EQ(b.core_visits, a.core_visits) << tag;
      EXPECT_EQ(b.leaf_calls, a.leaf_calls) << tag;
      EXPECT_EQ(b.leaf_products, a.leaf_products) << tag;
      EXPECT_EQ(result.stats.candidates_tried,
                reference.stats.candidates_tried)
          << tag;
      EXPECT_EQ(result.stats.candidates_bound,
                reference.stats.candidates_bound)
          << tag;
      EXPECT_EQ(result.stats.embeddings_found,
                reference.stats.embeddings_found)
          << tag;
      EXPECT_EQ(result.stats.root_candidates, reference.stats.root_candidates)
          << tag;

      // Order-dependent shape: per-shard claim counts vary by schedule but
      // are bounded, one per shard the driver ran (the thread count capped
      // at the root count), and sum to the root count exactly.
      const uint64_t shards = std::min<uint64_t>(
          threads, std::max<uint64_t>(result.stats.root_candidates, 1));
      EXPECT_EQ(result.stats.threads, shards) << tag;
      ASSERT_EQ(result.stats.worker_roots_claimed.size(), shards) << tag;
      for (uint64_t claimed : result.stats.worker_roots_claimed) {
        EXPECT_LE(claimed, result.stats.root_candidates) << tag;
      }
      EXPECT_EQ(result.stats.TotalRootsClaimed(),
                result.stats.root_candidates)
          << tag;
    }
  }
}

// Expansion mode (on_embedding) runs the same search as a one-shard count,
// expanding leaf assignments instead of multiplying them: on an uncapped
// plain-graph run every identity holds and the order-independent totals
// equal counting mode's.
TEST(ExpansionStatsTest, MatchCountingModeOnPlainGraphs) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Graph g = TestData(5);
  CflMatcher matcher(g);
  for (uint64_t query_seed = 0; query_seed < 10; ++query_seed) {
    Graph q = TestQuery(g, query_seed);
    const std::string tag = "query_seed=" + std::to_string(query_seed);
    MatchResult counted = matcher.Match(q);
    MatchOptions options;
    options.on_embedding = [](const Embedding&) { return true; };
    MatchResult expanded = matcher.Match(q, options);
    ExpectStatsConsistent(expanded, tag);

    const MatchStats& a = counted.stats;
    const MatchStats& b = expanded.stats;
    EXPECT_EQ(expanded.embeddings, counted.embeddings) << tag;
    EXPECT_EQ(b.embeddings_found, a.embeddings_found) << tag;
    EXPECT_EQ(b.candidates_tried, a.candidates_tried) << tag;
    EXPECT_EQ(b.candidates_bound, a.candidates_bound) << tag;
    EXPECT_EQ(b.threads, a.threads) << tag;
    EXPECT_EQ(b.worker_roots_claimed, a.worker_roots_claimed) << tag;
  }
}

// ---- Deadline / limit edge cases ----------------------------------------

// time_limit_seconds <= 0 means "no deadline" (MatchLimits contract); the
// run must complete, not report a timeout, and satisfy every identity.
TEST(StatsEdgeCaseTest, ZeroTimeBudgetDisablesDeadline) {
  Graph g = TestData(11);
  Graph q = TestQuery(g, 4);
  CflMatcher matcher(g);
  MatchOptions options;
  options.limits.time_limit_seconds = 0.0;
  MatchResult result = matcher.Match(q, options);
  EXPECT_FALSE(result.timed_out);
  ExpectStatsConsistent(result, "zero budget");

  MatchResult uncapped = matcher.Match(q);
  EXPECT_EQ(result.embeddings, uncapped.embeddings);
}

// A vanishingly small positive budget usually expires mid-run; whatever was
// counted so far must still reconcile (stats describe the partial run).
TEST(StatsEdgeCaseTest, TinyTimeBudgetKeepsStatsConsistent) {
  Graph g = TestData(12);
  Graph q = TestQuery(g, 9);
  CflMatcher matcher(g);
  MatchResult uncapped = matcher.Match(q);
  MatchOptions options;
  options.limits.time_limit_seconds = 1e-12;
  MatchResult result = matcher.Match(q, options);
  ExpectStatsConsistent(result, "tiny budget");
  EXPECT_LE(result.embeddings, uncapped.embeddings);
  if (result.timed_out && obs::kStatsEnabled) {
    // A partial run cannot claim the full root partition.
    EXPECT_LE(result.stats.TotalRootsClaimed(), result.stats.root_candidates);
  }
}

TEST(StatsEdgeCaseTest, LimitOneSerialAndParallel) {
  Graph g = TestData(13);
  Graph q = TestQuery(g, 2);
  CflMatcher matcher(g);
  MatchResult uncapped = matcher.Match(q);
  ASSERT_GT(uncapped.embeddings, 1u);

  MatchOptions options;
  options.limits.max_embeddings = 1;
  MatchResult serial = matcher.Match(q, options);
  EXPECT_TRUE(serial.reached_limit);
  ExpectStatsConsistent(serial, "serial limit=1");

  for (uint32_t threads : {2u, 4u}) {
    ParallelCflMatcher parallel(g, threads);
    MatchResult result = parallel.Match(q, options);
    EXPECT_TRUE(result.reached_limit);
    // Workers race toward the cap, so the count may overshoot but never
    // undershoot it (same MatchLimits contract as before this layer).
    EXPECT_GE(result.embeddings, 1u);
    ExpectStatsConsistent(result, "parallel limit=1 threads=" +
                                      std::to_string(threads));
  }
}

// Caps at and around the exact embedding count (the worker-boundary case:
// the last root claimed is the one that crosses the cap).
TEST(StatsEdgeCaseTest, LimitAtWorkerBoundary) {
  Graph g = TestData(14);
  Graph q = TestQuery(g, 6);
  CflMatcher matcher(g);
  MatchResult uncapped = matcher.Match(q);
  ASSERT_GT(uncapped.embeddings, 2u);
  const uint64_t total = uncapped.embeddings;

  for (uint64_t cap : {total - 1, total, total + 1}) {
    MatchOptions options;
    options.limits.max_embeddings = cap;
    for (uint32_t threads : {1u, 2u, 4u}) {
      ParallelCflMatcher parallel(g, threads);
      MatchResult result = parallel.Match(q, options);
      const std::string tag = "cap=" + std::to_string(cap) +
                              " threads=" + std::to_string(threads);
      ExpectStatsConsistent(result, tag);
      if (cap >= total) {
        // The cap never truncates: full count, and with stats on the whole
        // root partition must have been claimed.
        EXPECT_EQ(result.embeddings, total) << tag;
        if (obs::kStatsEnabled) {
          EXPECT_EQ(result.stats.TotalRootsClaimed(),
                    result.stats.root_candidates)
              << tag;
        }
      } else {
        EXPECT_TRUE(result.reached_limit) << tag;
        EXPECT_GE(result.embeddings, cap) << tag;
      }
    }
  }
}

// ---- Compile gate --------------------------------------------------------

// With CFL_STATS=OFF every field stays zero-initialized (the recording
// sites compile away); with ON a non-trivial run populates them. The same
// test compiles both ways — that is the point of keeping the struct
// unconditional. Every match path (serial, 4 threads, streaming, a
// compressed graph) and the enumerator's own shard are checked: with stats
// off each EnumStats / CpiBuildStats equals its value-initialised state,
// so a recording site left outside CFL_STATS_ONLY whose effect reaches a
// result fails here; with stats on each one records.
TEST(StatsGateTest, FieldsMatchCompileTimeGate) {
  Graph g = Figure3Data();
  Graph q = Figure3Query();
  CflMatcher matcher(g);
  MatchResult result = matcher.Match(q);
  ASSERT_EQ(result.embeddings, 3u);  // the paper's Figure 3 ground truth

  const MatchStats& s = result.stats;
  if (obs::kStatsEnabled) {
    EXPECT_TRUE(s.recorded);
    EXPECT_EQ(s.embeddings_found, 3u);
    EXPECT_GT(s.cpi_candidate_entries, 0u);
    EXPECT_GT(s.root_candidates, 0u);
    EXPECT_FALSE(s.cpi_candidates_per_vertex.empty());
    EXPECT_NE(obs::FormatStats(s), "");
  } else {
    EXPECT_FALSE(s.recorded);
    EXPECT_EQ(s.embeddings_found, 0u);
    EXPECT_EQ(s.cpi_candidate_entries, 0u);
    EXPECT_EQ(s.root_candidates, 0u);
    EXPECT_TRUE(s.cpi_candidates_per_vertex.empty());
    EXPECT_EQ(s.PhaseSecondsSum(), 0.0);
    // The checker and the roll-up are no-ops on unrecorded stats.
    EXPECT_EQ(obs::CheckStatsInvariants(s, result.embeddings,
                                        result.total_seconds),
              "");
    obs::StatsTotals totals;
    totals.Add(s);
    EXPECT_EQ(totals.core_visits, 0u);
  }

  ParallelCflMatcher parallel(g, 4);
  MatchOptions streaming;
  streaming.on_embedding = [](const Embedding&) { return true; };
  CompressedGraph compressed = CompressBySE(testing::Figure7Data());
  ASSERT_TRUE(compressed.graph.HasMultiplicities());
  CflMatcher compressed_matcher(compressed.graph);
  const std::pair<const char*, MatchResult> runs[] = {
      {"serial", result},
      {"4 threads", parallel.Match(q)},
      {"streaming", matcher.Match(q, streaming)},
      {"compressed", compressed_matcher.Match(testing::Figure7Query())},
  };
  for (const auto& [name, run] : runs) {
    EXPECT_EQ(run.stats.enumeration == EnumStats{}, !obs::kStatsEnabled)
        << name;
    EXPECT_EQ(run.stats.cpi == CpiBuildStats{}, !obs::kStatsEnabled)
        << name;
  }

  // The shard the enumerator records into, read before anything merges it.
  PreparedQuery prepared = matcher.Prepare(q);
  EnumeratorState state(q.NumVertices(), g.NumVertices());
  Deadline deadline(0.0);
  EnumeratePartial(g, prepared.cpi, prepared.order.steps, state, deadline,
                   [] { return true; });
  EXPECT_EQ(state.stats == EnumStats{}, !obs::kStatsEnabled);
}

// EnumStats::Merge is the parallel aggregation primitive: sums everywhere,
// max for max_depth, and the sampling cursor is shard-local (not merged).
TEST(StatsGateTest, EnumStatsMergeSumsAndMaxes) {
  EnumStats a;
  a.backward_probes = 10;
  a.hub_probes = 4;
  a.max_depth = 3;
  a.leaf_calls = 7;
  a.leaf_sampled_seconds = 0.5;
  EnumStats b;
  b.backward_probes = 5;
  b.hub_probes = 1;
  b.max_depth = 5;
  b.leaf_calls = 2;
  b.leaf_sampled_seconds = 0.25;
  a.Merge(b);
  EXPECT_EQ(a.backward_probes, 15u);
  EXPECT_EQ(a.hub_probes, 5u);
  EXPECT_EQ(a.max_depth, 5u);  // max, not sum
  EXPECT_EQ(a.leaf_calls, 9u);
  EXPECT_DOUBLE_EQ(a.leaf_sampled_seconds, 0.75);
}

// CheckStatsInvariants must actually *catch* violations, not just pass on
// good inputs — corrupt one field per identity and expect a diagnostic.
TEST(StatsGateTest, CheckerCatchesEachViolation) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Graph g = Figure3Data();
  Graph q = Figure3Query();
  CflMatcher matcher(g);
  MatchResult result = matcher.Match(q);
  ASSERT_EQ(obs::CheckStatsInvariants(result.stats, result.embeddings,
                                      result.total_seconds),
            "");

  {
    MatchStats s = result.stats;
    s.embeddings_found += 1;
    EXPECT_NE(obs::CheckStatsInvariants(s, result.embeddings,
                                        result.total_seconds),
              "");
  }
  {
    MatchStats s = result.stats;
    s.cpi.generated[0] += 1;  // breaks the per-vertex accounting identity
    EXPECT_NE(obs::CheckStatsInvariants(s, result.embeddings,
                                        result.total_seconds),
              "");
  }
  {
    MatchStats s = result.stats;
    s.enumerate_seconds = result.total_seconds + 1.0;  // phase sum > total
    EXPECT_NE(obs::CheckStatsInvariants(s, result.embeddings,
                                        result.total_seconds),
              "");
  }
  {
    MatchStats s = result.stats;
    s.enumeration.hub_probes = s.enumeration.backward_probes + 1;
    EXPECT_NE(obs::CheckStatsInvariants(s, result.embeddings,
                                        result.total_seconds),
              "");
  }
  {
    MatchStats s = result.stats;
    s.worker_roots_claimed.assign(1, s.root_candidates + 1);
    EXPECT_NE(obs::CheckStatsInvariants(s, result.embeddings,
                                        result.total_seconds),
              "");
  }
}

}  // namespace
}  // namespace cfl
