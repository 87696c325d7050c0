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
#include "gen/datasets.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "harness/env.h"
#include "kernels/kernels.h"
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

// ---- kernel-layer micro-benchmarks ---------------------------------------
//
// Sweeps over the dispatch layer's primitive, in two flavors: `.../0` pins
// the scalar reference, `.../1` runs whatever the startup dispatch selected
// (AVX2 on x86-64 unless CFL_FORCE_SCALAR). The ratio between the two rows
// is the kernel speedup on the machine at hand.

// Args: {num_backward_edges, pass_biased, use_dispatch}. All-hub plans
// over the hub-heavy graph — the batched word-AND pass against per-edge
// probing. pass_biased=0 probes random vertices (most fail the first
// edge, the early-exit regime); pass_biased=1 probes the hubs' common
// neighborhood (most candidates survive every edge — the regime CPI
// filtering puts the enumerator in, where early exit never helps and
// batching pays off).
void BM_VerifyBackward(benchmark::State& state) {
  const Graph& g = HubHeavyData();
  const uint32_t nedges = static_cast<uint32_t>(state.range(0));
  const bool pass_biased = state.range(1) != 0;
  const bool dispatched = state.range(2) != 0;
  kernels::BackwardPlan plan;
  for (uint32_t k = 0; k < nedges; ++k) plan.Add(g, k % 32);
  std::mt19937 rng(44);
  std::uniform_int_distribution<uint32_t> pick(0, g.NumVertices() - 1);
  std::vector<VertexId> probes(1 << 12);
  for (VertexId& v : probes) {
    // Every hub in HubHeavyData is adjacent to every vertex 32 + 4k.
    v = pass_biased ? 32 + (pick(rng) % ((g.NumVertices() - 32) / 4)) * 4
                    : pick(rng);
  }
  for (auto _ : state) {
    uint64_t passed = 0;
    for (VertexId v : probes) {
      const uint32_t fail =
          dispatched ? kernels::VerifyBackwardEdges(g, plan, v)
                     : kernels::scalar::VerifyBackwardEdges(g, plan, v);
      passed += fail == nedges ? 1 : 0;
    }
    benchmark::DoNotOptimize(passed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_VerifyBackward)
    ->Args({2, 1, 0})
    ->Args({2, 1, 1})
    ->Args({4, 0, 0})
    ->Args({4, 0, 1})
    ->Args({4, 1, 0})
    ->Args({4, 1, 1})
    ->Args({8, 0, 0})
    ->Args({8, 0, 1})
    ->Args({8, 1, 0})
    ->Args({8, 1, 1});

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
      out_ << "{\"artifact\":\"micro\",\"isa\":\""
           << kernels::IsaName(kernels::ActiveIsa()) << "\",\"name\":\""
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
