// Shared machinery for the figure/table reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper (see
// DESIGN.md §3). All honor:
//   CFL_BENCH_SCALE        graph-size multiplier; "full" = paper scale
//   CFL_BENCH_QUERIES      queries per query set (paper: 100)
//   CFL_BENCH_TIME_LIMIT_S per-query-set budget standing in for the paper's
//                          5-hour limit (exceeding it prints "INF")
//   CFL_BENCH_JSON         path of a JSON-lines file; when set, every
//                          measured query-set result is also appended there
//                          as one machine-readable JSON object
// Defaults keep the whole suite at minutes scale.

#ifndef CFL_BENCH_BENCH_COMMON_H_
#define CFL_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "harness/env.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "match/engine.h"
#include "obs/stats.h"
#include "parallel/parallel_match.h"

namespace cfl::bench {

struct Config {
  double scale = 0.25;
  uint32_t queries_per_set = 8;
  double set_budget_seconds = 5.0;
  uint64_t max_embeddings = 100'000;  // the paper's default #embeddings
  uint32_t threads = 1;               // CFL-Match enumeration threads
};

inline Config LoadConfig() {
  Config c;
  c.scale = BenchScale(c.scale);
  c.queries_per_set = BenchQueries(c.queries_per_set);
  c.set_budget_seconds = BenchTimeLimitSeconds(c.set_budget_seconds);
  c.threads = BenchThreads(c.threads);
  return c;
}

inline RunConfig MakeRunConfig(const Config& c) {
  RunConfig rc;
  rc.per_query.max_embeddings = c.max_embeddings;
  rc.set_budget_seconds = c.set_budget_seconds;
  rc.threads = c.threads;
  return rc;
}

// The engine every bench means by "CFL-Match" under the current config:
// the serial matcher at 1 thread, the root-partitioned parallel matcher
// (identical counts, same MatchLimits contract) when CFL_BENCH_THREADS > 1.
inline std::unique_ptr<SubgraphEngine> MakeDefaultCflEngine(const Graph& g,
                                                            const Config& c) {
  if (c.threads > 1) return MakeParallelCflMatch(g, c.threads);
  return MakeCflMatch(g);
}

// Paper Table 3 query sizes: Human (and the large-graph appendix datasets)
// get small queries; everything else gets 25..200. Sizes that don't fit the
// (possibly scaled-down) data graph are dropped.
inline std::vector<uint32_t> QuerySizes(const std::string& dataset,
                                        const Graph& g) {
  std::vector<uint32_t> sizes;
  if (dataset == "human" || dataset == "wordnet" || dataset == "dblp") {
    sizes = {10, 15, 20, 25};
  } else {
    sizes = {25, 50, 100, 200};
  }
  std::vector<uint32_t> fitting;
  for (uint32_t s : sizes) {
    if (s * 3 <= g.NumVertices()) fitting.push_back(s);
  }
  return fitting;
}

// The paper's default query size for a dataset, clamped to the graph.
inline uint32_t DefaultQuerySize(const std::string& dataset, const Graph& g) {
  uint32_t want = (dataset == "human" || dataset == "wordnet" ||
                   dataset == "dblp")
                      ? 15
                      : 50;
  while (want > 4 && want * 3 > g.NumVertices()) want /= 2;
  return want;
}

inline std::string SetName(uint32_t size, bool sparse) {
  return "q" + std::to_string(size) + (sparse ? "S" : "N");
}

// Deterministic query-set seeds: one stream per (dataset hash, size, S/N).
inline uint64_t SetSeed(const std::string& dataset, uint32_t size,
                        bool sparse) {
  uint64_t h = 1099511628211ull;
  for (char ch : dataset) h = (h ^ static_cast<uint8_t>(ch)) * 16777619ull;
  return h ^ (static_cast<uint64_t>(size) << 20) ^ (sparse ? 1 : 0);
}

inline std::vector<Graph> MakeQuerySet(const Graph& g,
                                       const std::string& dataset,
                                       uint32_t size, bool sparse,
                                       const Config& c) {
  return GenerateQuerySet(g, c.queries_per_set, size, sparse,
                          SetSeed(dataset, size, sparse));
}

// The paper's default synthetic data graph, scaled.
inline Graph MakeDefaultSynthetic(const Config& c, uint64_t seed = 20160626) {
  SyntheticOptions options;
  options.num_vertices =
      std::max<uint32_t>(1000, static_cast<uint32_t>(100'000 * c.scale));
  options.average_degree = 8.0;
  options.num_labels = 50;
  options.seed = seed;
  return MakeSynthetic(options);
}

inline Graph MakeBenchGraph(const std::string& dataset, const Config& c) {
  if (dataset == "synthetic") return MakeDefaultSynthetic(c);
  return MakeDatasetLike(dataset, c.scale);
}

// Appends one JSON object (one line) describing a measured query-set result
// to the CFL_BENCH_JSON file, if that knob is set. The schema is flat on
// purpose so downstream tooling can `jq`/pandas it without schema files:
//   {"artifact":..., "dataset":..., "set":..., "engine":..., "scale":...,
//    "threads":..., "queries_run":..., "inf":..., "avg_total_ms":...,
//    "avg_order_ms":..., "avg_enum_ms":..., "avg_index_entries":...,
//    "total_embeddings":...,
//    "stats_enabled":..., "candidates_generated":..., "candidates_pruned":...,
//    "cpi_candidate_entries":..., "cpi_adjacency_entries":...,
//    "backward_probes":..., "hub_probes":..., "partials_discarded":...,
//    "core_visits":..., "leaf_calls":...}
// The stats_* tail is the QuerySetResult::stats roll-up (obs::StatsTotals,
// summed over the set's first repetition; see src/obs/stats.h).
inline void AppendJsonResult(const std::string& artifact,
                             const std::string& dataset,
                             const std::string& set,
                             const std::string& engine, const Config& c,
                             const QuerySetResult& r) {
  const std::string path = BenchJsonPath();
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::cerr << "warning: cannot append to CFL_BENCH_JSON=" << path << "\n";
    return;
  }
  out << "{\"artifact\":\"" << artifact << "\",\"dataset\":\"" << dataset
      << "\",\"set\":\"" << set << "\",\"engine\":\"" << engine
      << "\",\"scale\":" << c.scale << ",\"threads\":" << c.threads
      << ",\"queries_run\":" << r.queries_run
      << ",\"inf\":" << (r.IsInf() ? "true" : "false")
      << ",\"avg_total_ms\":" << r.avg_total_ms
      << ",\"avg_order_ms\":" << r.avg_order_ms
      << ",\"avg_enum_ms\":" << r.avg_enum_ms
      << ",\"avg_index_entries\":" << r.avg_index_entries
      << ",\"total_embeddings\":" << r.total_embeddings
      // Execution-stats roll-up (src/obs/stats.h). All-zero when the engine
      // records no stats or the build has CFL_STATS=OFF; the fields stay in
      // the schema either way so downstream readers need no presence checks.
      << ",\"stats_enabled\":" << (obs::kStatsEnabled ? "true" : "false")
      << ",\"candidates_generated\":" << r.stats.candidates_generated
      << ",\"candidates_pruned\":" << r.stats.candidates_pruned
      << ",\"cpi_candidate_entries\":" << r.stats.cpi_candidate_entries
      << ",\"cpi_adjacency_entries\":" << r.stats.cpi_adjacency_entries
      << ",\"backward_probes\":" << r.stats.backward_probes
      << ",\"hub_probes\":" << r.stats.hub_probes
      << ",\"partials_discarded\":" << r.stats.partials_discarded
      << ",\"core_visits\":" << r.stats.core_visits
      << ",\"leaf_calls\":" << r.stats.leaf_calls << "}\n";
}

// Runs `engine` over `queries` and, when CFL_BENCH_JSON is set, appends the
// result as one JSON line before returning it for table formatting.
inline QuerySetResult RunAndRecord(const std::string& artifact,
                                   const std::string& dataset,
                                   const std::string& set,
                                   const std::string& engine_name,
                                   SubgraphEngine& engine,
                                   const std::vector<Graph>& queries,
                                   const Config& c) {
  QuerySetResult r = RunQuerySet(engine, queries, MakeRunConfig(c));
  AppendJsonResult(artifact, dataset, set, engine_name, c, r);
  return r;
}

inline void PrintPreamble(const std::string& artifact,
                          const std::string& description, const Config& c) {
  std::cout << "=== " << artifact << ": " << description << " ===\n"
            << "config: scale=" << c.scale
            << " queries/set=" << c.queries_per_set
            << " set-budget=" << c.set_budget_seconds << "s"
            << " #embeddings=" << c.max_embeddings
            << " threads=" << c.threads << "\n"
            << "(times are avg ms per query; 'INF' = query set exceeded its "
               "budget, as in the paper)\n\n";
}

inline void PrintGraphLine(const std::string& dataset, const Graph& g) {
  std::cout << "data graph [" << dataset << "-like] "
            << Describe(ComputeStats(g)) << "\n";
}

}  // namespace cfl::bench

#endif  // CFL_BENCH_BENCH_COMMON_H_
