// Micro-benchmarks (google-benchmark) for the individual components:
// CPI construction strategies, candidate filters, decomposition, ordering,
// and data-graph compression. These complement the figure benches by
// isolating each subsystem's cost.
//
// Honors CFL_BENCH_JSON=<path>: appends one JSON line per benchmark run
// (same JSON-lines file the figure benches append to).

#include <benchmark/benchmark.h>

#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "baseline/compress.h"
#include "cpi/candidate_filter.h"
#include "cpi/cpi_builder.h"
#include "decomp/bfs_tree.h"
#include "decomp/cfl_decomposition.h"
#include "decomp/two_core.h"
#include "dyn/delta.h"
#include "dyn/fold.h"
#include "gen/datasets.h"
#include "gen/query_gen.h"
#include "gen/rng.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "harness/env.h"
#include "match/cfl_match.h"
#include "order/matching_order.h"

namespace cfl {
namespace {

const Graph& BenchData() {
  static const Graph* g = new Graph(MakeYeastLike(1.0));
  return *g;
}

Graph BenchQuery(uint32_t size) {
  QueryGenOptions options;
  options.num_vertices = size;
  options.sparse = false;
  options.seed = 77;
  return GenerateQuery(BenchData(), options);
}

void BM_TwoCore(benchmark::State& state) {
  Graph q = BenchQuery(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwoCoreMembership(q));
  }
}
BENCHMARK(BM_TwoCore)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_CflDecompose(benchmark::State& state) {
  Graph q = BenchQuery(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecomposeCfl(q));
  }
}
BENCHMARK(BM_CflDecompose)->Arg(50)->Arg(200);

void BM_CpiConstruction(benchmark::State& state) {
  const Graph& g = BenchData();
  Graph q = BenchQuery(50);
  BfsTree tree = BuildBfsTree(q, 0);
  CpiBuilder builder(g);
  CpiStrategy strategy = static_cast<CpiStrategy>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(q, tree, strategy));
  }
}
BENCHMARK(BM_CpiConstruction)
    ->Arg(static_cast<int>(CpiStrategy::kNaive))
    ->Arg(static_cast<int>(CpiStrategy::kTopDown))
    ->Arg(static_cast<int>(CpiStrategy::kRefined));

void BM_MatchingOrder(benchmark::State& state) {
  const Graph& g = BenchData();
  Graph q = BenchQuery(static_cast<uint32_t>(state.range(0)));
  CflDecomposition d = DecomposeCfl(q);
  VertexId root = d.core.front();
  BfsTree tree = BuildBfsTree(q, root);
  Cpi cpi = BuildCpi(q, g, tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeMatchingOrder(q, cpi, d, DecompositionMode::kCfl));
  }
}
BENCHMARK(BM_MatchingOrder)->Arg(50)->Arg(200);

void BM_CandVerify(benchmark::State& state) {
  const Graph& g = BenchData();
  Graph q = BenchQuery(50);
  for (auto _ : state) {
    uint64_t passed = 0;
    for (VertexId v : g.VerticesWithLabel(q.label(0))) {
      passed += CandVerify(q, 0, g, v) ? 1 : 0;
    }
    benchmark::DoNotOptimize(passed);
  }
}
BENCHMARK(BM_CandVerify);

void BM_FullMatch(benchmark::State& state) {
  const Graph& g = BenchData();
  Graph q = BenchQuery(static_cast<uint32_t>(state.range(0)));
  CflMatcher matcher(g);
  MatchOptions options;
  options.limits.max_embeddings = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(q, options));
  }
}
BENCHMARK(BM_FullMatch)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_Compression(benchmark::State& state) {
  Graph g = MakeHumanLike(0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompressBySE(g));
  }
}
BENCHMARK(BM_Compression);

void BM_QueryGeneration(benchmark::State& state) {
  const Graph& g = BenchData();
  uint64_t seed = 0;
  for (auto _ : state) {
    QueryGenOptions options;
    options.num_vertices = 50;
    options.seed = ++seed;
    benchmark::DoNotOptimize(GenerateQuery(g, options));
  }
}
BENCHMARK(BM_QueryGeneration);

// Label-diverse data graph: many labels means each vertex's adjacency
// splits into many short label runs, the setting where the label-partitioned
// CSR pays off most for CPI construction (candidate generation / refinement
// scan one run instead of the whole neighbor list).
const Graph& LabelDiverseData() {
  static const Graph* g = [] {
    SyntheticOptions options;
    options.num_vertices = 50'000;
    options.average_degree = 16.0;
    options.num_labels = 40;
    options.seed = 20160626;
    return new Graph(MakeSynthetic(options));
  }();
  return *g;
}

void BM_CpiBuildLabelDiverse(benchmark::State& state) {
  const Graph& g = LabelDiverseData();
  QueryGenOptions qopt;
  qopt.num_vertices = static_cast<uint32_t>(state.range(0));
  qopt.sparse = false;
  qopt.seed = 13;
  Graph q = GenerateQuery(g, qopt);
  BfsTree tree = BuildBfsTree(q, 0);
  CpiBuilder builder(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(q, tree, CpiStrategy::kRefined));
  }
}
BENCHMARK(BM_CpiBuildLabelDiverse)->Arg(25)->Arg(50)->Arg(100);

// Hub-heavy data graph: a handful of very-high-degree vertices over a
// sparse background, the setting where the per-hub bitmaps turn backward
// edge probes from log-degree binary searches into single word loads.
const Graph& HubHeavyData() {
  static const Graph* g = [] {
    const uint32_t n = 20'000;
    GraphBuilder b(n);
    for (VertexId v = 0; v < n; ++v) b.SetLabel(v, v % 8);
    for (VertexId hub = 0; hub < 32; ++hub) {
      for (VertexId w = 32; w < n; w += 4) b.AddEdge(hub, w);
    }
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<uint32_t> pick(0, n - 1);
    for (uint64_t e = 0; e < 4ull * n; ++e) {
      VertexId u = pick(rng), v = pick(rng);
      if (u != v) b.AddEdge(u, v);
    }
    return new Graph(std::move(b).Build());
  }();
  return *g;
}

void BM_HasEdgeHubHeavy(benchmark::State& state) {
  const Graph& g = HubHeavyData();
  std::mt19937 rng(99);
  std::uniform_int_distribution<uint32_t> pick(0, g.NumVertices() - 1);
  std::vector<std::pair<VertexId, VertexId>> probes(1 << 14);
  for (auto& p : probes) p = {pick(rng) % 32, pick(rng)};  // hub on one side
  for (auto _ : state) {
    uint64_t hits = 0;
    for (auto [u, v] : probes) hits += g.HasEdge(u, v) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_HasEdgeHubHeavy);

void BM_EnumerateHubHeavy(benchmark::State& state) {
  const Graph& g = HubHeavyData();
  QueryGenOptions qopt;
  qopt.num_vertices = static_cast<uint32_t>(state.range(0));
  qopt.sparse = false;
  qopt.seed = 5;
  Graph q = GenerateQuery(g, qopt);
  CflMatcher matcher(g);
  MatchOptions options;
  options.limits.max_embeddings = 100'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(q, options));
  }
}
BENCHMARK(BM_EnumerateHubHeavy)->Arg(8)->Arg(12);

// Folding one committed UPDATE batch into the next epoch: 16-op batches
// (eight edge removals, eight insertions, about 32 touched vertices) over
// the 25K-vertex, 50-label synthetic graph the serving benchmarks churn.
// Every batch is sealed against the same base, so each iteration times
// FoldDelta alone.
void BM_FoldDelta(benchmark::State& state) {
  static const Graph* base = [] {
    SyntheticOptions options;
    options.num_vertices = 25'000;
    options.average_degree = 8.0;
    options.num_labels = 50;
    options.seed = 20160626;
    return new Graph(MakeSynthetic(options));
  }();
  const uint32_t n = base->NumVertices();
  Rng rng(11);
  std::vector<dyn::GraphDelta> batches;
  for (uint32_t b = 0; b < 64; ++b) {
    dyn::GraphDelta& delta = batches.emplace_back(*base);
    for (uint32_t removed = 0; removed < 8;) {
      const auto u = static_cast<VertexId>(rng.Below(n));
      std::span<const VertexId> adj = base->Neighbors(u);
      if (adj.empty()) continue;
      removed += delta.RemoveEdge(u, adj[rng.Below(adj.size())]);
    }
    for (uint32_t added = 0; added < 8;) {
      const auto u = static_cast<VertexId>(rng.Below(n));
      const auto v = static_cast<VertexId>(rng.Below(n));
      added += u != v && delta.AddEdge(u, v);
    }
    delta.Seal();
  }
  size_t next = 0;
  for (auto _ : state) {
    dyn::DirtyLabels dirty;
    benchmark::DoNotOptimize(dyn::FoldDelta(*base, batches[next], &dirty));
    next = (next + 1) % batches.size();
  }
}
BENCHMARK(BM_FoldDelta)->Unit(benchmark::kMicrosecond);

// Console reporter that additionally appends one JSON line per finished
// benchmark to CFL_BENCH_JSON — the same flat-schema JSON-lines file the
// figure benches append to. (A display-reporter wrapper rather than a
// google-benchmark "file reporter", which would require --benchmark_out.)
class JsonlTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonlTeeReporter(const std::string& path)
      : out_(path, std::ios::app) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    if (!out_.good()) return;
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      out_ << "{\"artifact\":\"micro\",\"name\":\""
           << run.benchmark_name()
           << "\",\"real_time\":" << run.GetAdjustedRealTime()
           << ",\"cpu_time\":" << run.GetAdjustedCPUTime()
           << ",\"time_unit\":\"" << UnitString(run.time_unit)
           << "\",\"iterations\":" << run.iterations << "}\n";
    }
  }

 private:
  static const char* UnitString(benchmark::TimeUnit unit) {
    switch (unit) {
      case benchmark::kNanosecond: return "ns";
      case benchmark::kMicrosecond: return "us";
      case benchmark::kMillisecond: return "ms";
      case benchmark::kSecond: return "s";
    }
    return "?";
  }

  std::ofstream out_;
};

}  // namespace
}  // namespace cfl

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string json_path = cfl::BenchJsonPath();
  if (!json_path.empty()) {
    cfl::JsonlTeeReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
