// cfl_difftest: cross-engine differential testing oracle.
//
// The engines in this repository implement the same semantics — count the
// subgraph-isomorphic embeddings of a query in a data graph — via wildly
// different machinery (CPI-based postponed Cartesian products, CR-based
// exploration, plain backtracking). That makes them near-perfect oracles
// for each other: generate seeded random graph/query pairs, run every
// selected engine, and any disagreement in counts is a bug in at least one
// of them. Tiny pairs are additionally checked against a brute-force
// enumerator, so the whole engine set cannot drift together.
//
// On a mismatch the tool *shrinks* the pair — greedily deleting query and
// data vertices/edges while the disagreement reproduces — and prints the
// minimal pair as a ready-to-paste repro before exiting non-zero.
//
// Examples:
//   cfl_difftest --pairs 200 --seed 1
//   cfl_difftest --pairs 50 --engines cfl,turboiso --query-vertices 14
//   cfl_difftest --pairs 100 --all-engines --max-labels 100  # > 64 labels
//   CFL_VALIDATE=1 cfl_difftest --pairs 200   # also run debug validators
//
// Exit codes: 0 all pairs agree; 1 mismatch found; 2 usage error.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/quicksi.h"
#include "baseline/turboiso.h"
#include "baseline/ullmann.h"
#include "baseline/vf2.h"
#include "gen/query_gen.h"
#include "gen/rng.h"
#include "gen/synthetic.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "match/engine.h"
#include "obs/stats.h"
#include "parallel/parallel_match.h"

namespace cfl {
namespace {

struct Options {
  uint64_t pairs = 200;
  uint64_t seed = 1;
  uint32_t max_data_vertices = 160;
  uint32_t max_query_vertices = 10;
  uint32_t max_labels = 8;
  uint64_t max_embeddings = 100'000;
  double time_limit_seconds = 10.0;
  std::vector<std::string> engines = {"cfl", "cfl-par4", "vf2", "quicksi",
                                      "turboiso"};
  bool brute_force = true;
  bool verbose = false;
};

std::unique_ptr<SubgraphEngine> MakeEngineByName(const std::string& name,
                                                 const Graph& data) {
  if (name == "cfl") return MakeCflMatch(data);
  if (name == "cfl-par2") return MakeParallelCflMatch(data, 2);
  if (name == "cfl-par4") return MakeParallelCflMatch(data, 4);
  if (name == "cfl-td") return MakeCflMatchTd(data);
  if (name == "cfl-naive") return MakeCflMatchNaive(data);
  if (name == "cf") return MakeCfMatch(data);
  if (name == "match") return MakeMatchNoDecomp(data);
  if (name == "bfs-order") return MakeCflMatchBfsOrder(data);
  if (name == "vf2") return MakeVf2(data);
  if (name == "quicksi") return MakeQuickSi(data);
  if (name == "turboiso") return MakeTurboIso(data);
  if (name == "ullmann") return MakeUllmann(data);
  return nullptr;
}

const std::vector<std::string> kAllEngines = {
    "cfl",   "cfl-par2", "cfl-par4", "cfl-td",   "cfl-naive",
    "cf",    "match",    "bfs-order", "vf2",     "quicksi",
    "turboiso"};

// Exponential but obviously correct; only invoked on tiny pairs.
uint64_t BruteForceCount(const Graph& q, const Graph& g, uint64_t limit) {
  const uint32_t n = q.NumVertices();
  std::vector<VertexId> mapping(n, kInvalidVertex);
  std::vector<bool> used(g.NumVertices(), false);
  uint64_t count = 0;
  std::function<void(uint32_t)> rec = [&](uint32_t u) {
    if (count >= limit) return;
    if (u == n) {
      ++count;
      return;
    }
    for (VertexId v : g.VerticesWithLabel(q.label(u))) {
      if (used[v]) continue;
      bool ok = true;
      for (VertexId w : q.Neighbors(u)) {
        if (w < u && !g.HasEdge(mapping[w], v)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      mapping[u] = v;
      used[v] = true;
      rec(u + 1);
      used[v] = false;
      mapping[u] = kInvalidVertex;
    }
  };
  rec(0);
  return count;
}

struct EngineCount {
  std::string engine;
  uint64_t count = 0;
  bool timed_out = false;
  // Complete uncapped run: the engine exhausted the search space, so its
  // order-independent stats are comparable across CFL-family engines.
  bool complete = false;
  MatchStats stats;
};

struct Verdict {
  std::vector<EngineCount> counts;
  bool timed_out = false;   // some engine hit the deadline; not comparable
  bool mismatch = false;
  std::string stats_error;  // non-empty: a stats invariant/equivalence broke
};

bool IsCflFamily(const std::string& name) {
  return name == "cfl" || name.rfind("cfl-par", 0) == 0;
}

// The per-engine invariants plus cross-engine stats equivalence: serial and
// parallel CFL engines share Prepare and explore the same search space, so
// on complete uncapped runs their order-independent counters must agree.
void CheckStats(Verdict* v) {
  if (!obs::kStatsEnabled) return;
  const EngineCount* reference = nullptr;
  for (const EngineCount& ec : v->counts) {
    if (!ec.stats.recorded || !ec.complete || !IsCflFamily(ec.engine)) {
      continue;
    }
    if (reference == nullptr) {
      reference = &ec;
      continue;
    }
    const EnumStats& a = reference->stats.enumeration;
    const EnumStats& b = ec.stats.enumeration;
    auto differs = [&](const char* what, uint64_t x, uint64_t y) {
      v->stats_error = reference->engine + " vs " + ec.engine + ": " + what +
                       " differ (" + std::to_string(x) + " vs " +
                       std::to_string(y) + ")";
      v->mismatch = true;
    };
    if (a.core_visits != b.core_visits) {
      return differs("core_visits", a.core_visits, b.core_visits);
    }
    if (a.leaf_products != b.leaf_products) {
      return differs("leaf_products", a.leaf_products, b.leaf_products);
    }
    if (a.leaf_calls != b.leaf_calls) {
      return differs("leaf_calls", a.leaf_calls, b.leaf_calls);
    }
    if (reference->stats.candidates_tried != ec.stats.candidates_tried) {
      return differs("candidates_tried", reference->stats.candidates_tried,
                     ec.stats.candidates_tried);
    }
    if (reference->stats.root_candidates != ec.stats.root_candidates) {
      return differs("root_candidates", reference->stats.root_candidates,
                     ec.stats.root_candidates);
    }
    // Each root is claimed exactly once on a complete run, at any thread
    // count (the shared cursor hands them out; nobody abandons one).
    if (ec.stats.root_candidates != 0 &&
        ec.stats.TotalRootsClaimed() != ec.stats.root_candidates) {
      return differs("claimed roots vs root candidates",
                     ec.stats.TotalRootsClaimed(), ec.stats.root_candidates);
    }
  }
}

// Runs every engine on (q, data); counts are clamped at the cap so pairs
// where engines legitimately stop early still compare equal.
Verdict RunPair(const Options& opt, const Graph& data, const Graph& q,
                double time_limit) {
  Verdict v;
  MatchLimits limits;
  limits.max_embeddings = opt.max_embeddings;
  limits.time_limit_seconds = time_limit;
  for (const std::string& name : opt.engines) {
    std::unique_ptr<SubgraphEngine> engine = MakeEngineByName(name, data);
    MatchResult r = engine->Run(q, limits);
    // Stop-flag invariant (every engine, every run): reached_limit reports
    // exactly "the cap was hit", independent of timed_out — a cap+deadline
    // photo finish must classify the same way in every engine.
    if (r.reached_limit != (r.embeddings >= limits.max_embeddings) &&
        v.stats_error.empty()) {
      v.stats_error = name + ": reached_limit=" +
                      std::to_string(r.reached_limit) +
                      " disagrees with embeddings=" +
                      std::to_string(r.embeddings) + " vs cap=" +
                      std::to_string(limits.max_embeddings);
      v.mismatch = true;
    }
    // Per-engine stats invariants hold on every run, even partial ones.
    std::string violation = obs::CheckStatsInvariants(r.stats, r.embeddings,
                                                      r.total_seconds);
    if (!violation.empty() && v.stats_error.empty()) {
      v.stats_error = name + ": " + violation;
      v.mismatch = true;
    }
    EngineCount ec;
    ec.engine = name;
    ec.count = std::min(r.embeddings, opt.max_embeddings);
    ec.timed_out = r.timed_out;
    ec.complete = !r.timed_out && !r.reached_limit;
    ec.stats = r.stats;
    v.timed_out = v.timed_out || r.timed_out;
    v.counts.push_back(ec);
  }
  if (!v.timed_out && v.stats_error.empty()) CheckStats(&v);
  if (opt.brute_force && !v.timed_out && data.NumVertices() <= 64 &&
      q.NumVertices() <= 8 && !data.HasMultiplicities()) {
    EngineCount ec;
    ec.engine = "brute-force";
    ec.count = BruteForceCount(q, data, opt.max_embeddings);
    v.counts.push_back(ec);
  }
  if (!v.timed_out) {
    for (const EngineCount& ec : v.counts) {
      if (ec.count != v.counts.front().count) v.mismatch = true;
    }
  }
  return v;
}

// ---- Shrinking ------------------------------------------------------------

struct EdgeList {
  std::vector<Label> labels;
  std::vector<std::pair<VertexId, VertexId>> edges;

  Graph ToGraph() const { return MakeGraph(labels, edges); }
};

EdgeList ToEdgeList(const Graph& g) {
  EdgeList e;
  e.labels.resize(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    e.labels[v] = g.label(v);
    for (VertexId w : g.Neighbors(v)) {
      if (w > v) e.edges.emplace_back(v, w);
    }
  }
  return e;
}

bool IsConnected(const EdgeList& g) {
  const uint32_t n = static_cast<uint32_t>(g.labels.size());
  if (n == 0) return false;
  std::vector<std::vector<VertexId>> adj(n);
  for (const auto& [a, b] : g.edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> seen(n, false);
  std::vector<VertexId> stack = {0};
  seen[0] = true;
  uint32_t reached = 1;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (VertexId w : adj[v]) {
      if (!seen[w]) {
        seen[w] = true;
        ++reached;
        stack.push_back(w);
      }
    }
  }
  return reached == n;
}

EdgeList RemoveVertex(const EdgeList& g, VertexId victim) {
  EdgeList out;
  out.labels.reserve(g.labels.size() - 1);
  std::vector<VertexId> remap(g.labels.size(), kInvalidVertex);
  for (VertexId v = 0; v < g.labels.size(); ++v) {
    if (v == victim) continue;
    remap[v] = static_cast<VertexId>(out.labels.size());
    out.labels.push_back(g.labels[v]);
  }
  for (const auto& [a, b] : g.edges) {
    if (a == victim || b == victim) continue;
    out.edges.emplace_back(remap[a], remap[b]);
  }
  return out;
}

// Greedy minimization: keeps applying the first vertex/edge deletion under
// which the engines still disagree, until none applies. Queries must stay
// connected (GenerateQuery's contract); data graphs may fall apart.
void Shrink(const Options& opt, EdgeList* data, EdgeList* query) {
  auto still_fails = [&](const EdgeList& d, const EdgeList& q) {
    if (q.labels.empty() || d.labels.empty()) return false;
    // A short limit keeps shrinking fast; a timeout counts as "gone".
    return RunPair(opt, d.ToGraph(), q.ToGraph(), /*time_limit=*/2.0)
        .mismatch;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (VertexId v = 0; v < query->labels.size() && query->labels.size() > 1;
         ++v) {
      EdgeList smaller = RemoveVertex(*query, v);
      if (IsConnected(smaller) && still_fails(*data, smaller)) {
        *query = std::move(smaller);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (size_t e = 0; e < query->edges.size(); ++e) {
      EdgeList smaller = *query;
      smaller.edges.erase(smaller.edges.begin() + e);
      if (IsConnected(smaller) && still_fails(*data, smaller)) {
        *query = std::move(smaller);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (VertexId v = 0; v < data->labels.size(); ++v) {
      EdgeList smaller = RemoveVertex(*data, v);
      if (still_fails(smaller, *query)) {
        *data = std::move(smaller);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (size_t e = 0; e < data->edges.size(); ++e) {
      EdgeList smaller = *data;
      smaller.edges.erase(smaller.edges.begin() + e);
      if (still_fails(smaller, *query)) {
        *data = std::move(smaller);
        progress = true;
        break;
      }
    }
  }
}

void PrintEdgeList(const char* name, const EdgeList& g) {
  std::cout << "  " << name << ": " << g.labels.size() << " vertices, labels {";
  for (size_t v = 0; v < g.labels.size(); ++v) {
    std::cout << (v ? ", " : "") << g.labels[v];
  }
  std::cout << "}, edges {";
  for (size_t e = 0; e < g.edges.size(); ++e) {
    std::cout << (e ? ", " : "") << "{" << g.edges[e].first << ","
              << g.edges[e].second << "}";
  }
  std::cout << "}\n";
}

void PrintCounts(const Verdict& v) {
  for (const EngineCount& ec : v.counts) {
    std::cout << "    " << ec.engine << ": " << ec.count
              << (ec.timed_out ? " (timed out)" : "") << "\n";
  }
}

// ---- Driver ---------------------------------------------------------------

int Usage(const char* argv0) {
  std::cerr
      << "Usage: " << argv0 << " [options]\n"
      << "  --pairs N           seeded graph/query pairs to run (200)\n"
      << "  --seed S            base seed; pair i uses seed S+i (1)\n"
      << "  --data-vertices N   max data-graph vertices (160)\n"
      << "  --query-vertices N  max query vertices (10)\n"
      << "  --max-labels N      max data-graph labels, >= 2 (8); above 64,\n"
      << "                      neighbor-label mask bits alias\n"
      << "  --max-embeddings M  per-pair embedding cap (100000)\n"
      << "  --time-limit SEC    per-engine time limit (10)\n"
      << "  --engines LIST      comma list of: cfl cfl-par2 cfl-par4 cfl-td\n"
      << "                      cfl-naive cf match bfs-order vf2 quicksi\n"
      << "                      turboiso ullmann\n"
      << "                      (default: cfl,cfl-par4,vf2,quicksi,turboiso)\n"
      << "  --all-engines       every CFL variant plus all baselines\n"
      << "  --no-brute-force    skip the brute-force oracle on tiny pairs\n"
      << "  --verbose           per-pair progress\n";
  return 2;
}

int Run(const Options& opt) {
  uint64_t ran = 0;
  uint64_t skipped_gen = 0;
  uint64_t skipped_timeout = 0;

  for (uint64_t i = 0; i < opt.pairs; ++i) {
    const uint64_t pair_seed = opt.seed + i;
    Rng rng(pair_seed * 0x9e3779b97f4a7c15ULL + 1);

    SyntheticOptions data_opt;
    data_opt.num_vertices = static_cast<uint32_t>(
        rng.Between(16, std::max<uint32_t>(17, opt.max_data_vertices)));
    data_opt.average_degree = 2.0 + rng.NextDouble() * 4.0;
    data_opt.num_labels =
        static_cast<uint32_t>(rng.Between(2, opt.max_labels));
    data_opt.label_exponent = 0.5 + rng.NextDouble() * 1.5;
    data_opt.seed = pair_seed;
    Graph data = MakeSynthetic(data_opt);

    QueryGenOptions query_opt;
    query_opt.num_vertices = static_cast<uint32_t>(rng.Between(
        4, std::max<uint32_t>(5, std::min<uint32_t>(opt.max_query_vertices,
                                                    data.NumVertices() / 3))));
    query_opt.sparse = rng.Chance(0.5);
    query_opt.seed = pair_seed;
    Graph query;
    try {
      query = GenerateQuery(data, query_opt);
    } catch (const std::exception& e) {
      ++skipped_gen;
      if (opt.verbose) {
        std::cout << "pair " << i << " (seed " << pair_seed
                  << "): query generation failed: " << e.what() << "\n";
      }
      continue;
    }

    Verdict verdict = RunPair(opt, data, query, opt.time_limit_seconds);
    ++ran;
    if (verdict.timed_out) {
      ++skipped_timeout;
      if (opt.verbose) {
        std::cout << "pair " << i << " (seed " << pair_seed
                  << "): timed out, counts not comparable\n";
      }
      continue;
    }
    if (opt.verbose) {
      std::cout << "pair " << i << " (seed " << pair_seed << "): |V(G)|="
                << data.NumVertices() << " |E(G)|=" << data.NumEdges()
                << " |V(q)|=" << query.NumVertices() << " count="
                << verdict.counts.front().count << "\n";
    }
    if (!verdict.mismatch) continue;

    std::cout << "MISMATCH at pair " << i << " (seed " << pair_seed
              << "):\n";
    if (!verdict.stats_error.empty()) {
      std::cout << "  stats check failed: " << verdict.stats_error << "\n";
    }
    PrintCounts(verdict);

    EdgeList data_el = ToEdgeList(data);
    EdgeList query_el = ToEdgeList(query);
    std::cout << "shrinking...\n";
    Shrink(opt, &data_el, &query_el);
    Graph min_data = data_el.ToGraph();
    Graph min_query = query_el.ToGraph();
    Verdict min_verdict =
        RunPair(opt, min_data, min_query, opt.time_limit_seconds);

    std::cout << "minimal failing pair (paste into MakeGraph):\n";
    PrintEdgeList("query", query_el);
    PrintEdgeList("data", data_el);
    std::cout << "  counts on the minimal pair:\n";
    if (!min_verdict.stats_error.empty()) {
      std::cout << "    stats check failed: " << min_verdict.stats_error
                << "\n";
    }
    PrintCounts(min_verdict);
    return 1;
  }

  std::cout << "cfl_difftest: " << ran << " pairs compared across "
            << opt.engines.size() << " engines"
            << (opt.brute_force ? " (+brute-force on tiny pairs)" : "")
            << (obs::kStatsEnabled ? " (stats invariants checked)" : "")
            << ", 0 mismatches";
  if (skipped_gen > 0) std::cout << "; " << skipped_gen << " pairs ungeneratable";
  if (skipped_timeout > 0) {
    std::cout << "; " << skipped_timeout << " pairs timed out";
  }
  std::cout << "\n";
  return 0;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace
}  // namespace cfl

int main(int argc, char** argv) {
  cfl::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(cfl::Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--pairs") {
      opt.pairs = std::stoull(next());
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--data-vertices") {
      opt.max_data_vertices = static_cast<uint32_t>(std::stoul(next()));
    } else if (arg == "--query-vertices") {
      opt.max_query_vertices = static_cast<uint32_t>(std::stoul(next()));
    } else if (arg == "--max-labels") {
      opt.max_labels = static_cast<uint32_t>(std::stoul(next()));
    } else if (arg == "--max-embeddings") {
      opt.max_embeddings = std::stoull(next());
    } else if (arg == "--time-limit") {
      opt.time_limit_seconds = std::stod(next());
    } else if (arg == "--engines") {
      opt.engines = cfl::SplitCsv(next());
    } else if (arg == "--all-engines") {
      opt.engines = cfl::kAllEngines;
    } else if (arg == "--no-brute-force") {
      opt.brute_force = false;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      cfl::Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return cfl::Usage(argv[0]);
    }
  }
  if (opt.max_labels < 2) {
    std::cerr << "--max-labels must be at least 2\n";
    return cfl::Usage(argv[0]);
  }
  if (opt.engines.size() < 2 && opt.brute_force == false) {
    std::cerr << "need at least two engines (or brute force) to compare\n";
    return cfl::Usage(argv[0]);
  }
  for (const std::string& name : opt.engines) {
    cfl::Graph probe = cfl::MakeGraph({0}, {});
    if (cfl::MakeEngineByName(name, probe) == nullptr) {
      std::cerr << "unknown engine: " << name << "\n";
      return cfl::Usage(argv[0]);
    }
  }
  return cfl::Run(opt);
}
