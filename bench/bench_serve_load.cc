// Closed-loop load driver for the resident query server (ISSUE 7).
//
// Self-hosting: the driver starts an in-process QueryServer on a private
// socket, replays a query mix against it from several concurrent clients,
// and reports throughput (qps) plus p50/p95/p99 latency. The mix is R
// rounds over Q distinct query shapes, every repeat a *fresh random
// relabeling* of its shape — the realistic cache workload: clients send
// isomorphic queries under different vertex numberings, and only the
// canonical plan cache can recognize them as repeats.
//
// Every counting reply is equivalence-checked against a serial CflMatcher
// count computed up front (for shapes whose exact count fits under the
// embedding cap), so this doubles as a concurrency correctness harness; the
// process exits non-zero on any mismatch.
//
//   bench_serve_load [--dataset=NAME] [--queries=Q] [--rounds=R]
//                    [--clients=C] [--workers=W] [--query-size=K]
//                    [--max=N] [--no-cache] [--compare] [--smoke]
//
// --compare runs the same mix twice — plan cache ON then OFF — and prints
// the qps ratio (the cache is expected to give >= 2x). Results append to
// CFL_BENCH_JSON as {"artifact":"serve_load", ...} lines.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "gen/rng.h"
#include "graph/graph_builder.h"
#include "obs/clock.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using namespace cfl;

struct DriverConfig {
  std::string dataset = "yeast";
  uint32_t queries = 10;     // distinct query shapes
  uint32_t rounds = 6;       // replays per shape (fresh relabeling each)
  uint32_t clients = 4;      // concurrent closed-loop clients
  uint32_t workers = 4;      // server enumeration workers
  uint32_t query_size = 0;   // 0: dataset default
  uint64_t max_embeddings = 10'000;
  bool cache = true;
  bool compare = false;
  double time_limit_seconds = 30.0;
};

// A random vertex renumbering of `q`: same graph, different ids — what an
// independent client would send for the same logical query.
Graph Relabel(const Graph& q, Rng& rng) {
  const uint32_t n = q.NumVertices();
  std::vector<VertexId> perm(n);
  for (VertexId v = 0; v < n; ++v) perm[v] = v;
  for (uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) builder.SetLabel(perm[v], q.label(v));
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : q.Neighbors(v)) {
      if (u > v) builder.AddEdge(perm[v], perm[u]);
    }
  }
  return std::move(builder).Build();
}

struct Workload {
  std::vector<Graph> requests;         // round-major replay list
  std::vector<uint32_t> shape_of;      // request -> shape index
  std::vector<uint64_t> expected;      // shape -> serial count
  std::vector<bool> exact;             // shape -> count is exact (not capped)
};

Workload BuildWorkload(const Graph& data, const DriverConfig& d,
                       uint32_t query_size) {
  Workload w;
  std::vector<Graph> shapes =
      GenerateQuerySet(data, d.queries, query_size, /*sparse=*/true,
                       /*seed=*/0x5e7feedULL);
  // Ground truth per shape from the serial engine (the difftest-trusted
  // reference); shapes that hit the cap or a timeout are replayed for load
  // but excluded from the equivalence check.
  std::unique_ptr<SubgraphEngine> serial = MakeCflMatch(data);
  MatchLimits limits;
  limits.max_embeddings = d.max_embeddings;
  limits.time_limit_seconds = d.time_limit_seconds;
  for (const Graph& shape : shapes) {
    MatchResult r = serial->Run(shape, limits);
    w.expected.push_back(r.embeddings);
    w.exact.push_back(!r.reached_limit && !r.timed_out);
  }
  Rng rng(0xbe5e11ULL);
  for (uint32_t round = 0; round < d.rounds; ++round) {
    for (uint32_t s = 0; s < shapes.size(); ++s) {
      w.requests.push_back(Relabel(shapes[s], rng));
      w.shape_of.push_back(s);
    }
  }
  return w;
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_ms.size()));
  if (idx >= sorted_ms.size()) idx = sorted_ms.size() - 1;
  return sorted_ms[idx];
}

struct LoadResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t completed = 0;
  uint64_t mismatches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

LoadResult RunLoad(const Graph& data, const Workload& w,
                   const DriverConfig& d, bool cache_on,
                   const std::string& socket_path) {
  serve::ServeOptions options;
  options.socket_path = socket_path;
  options.workers = d.workers;
  options.sessions = d.clients + 2;
  options.cache_bytes = cache_on ? (256ull << 20) : 0;
  options.max_time_limit_seconds = d.time_limit_seconds;
  serve::QueryServer server(data, options);
  std::thread server_thread([&server] { server.Serve(); });

  // The socket appears when Serve reaches listen(); retry briefly.
  {
    serve::ServeClient probe;
    bool up = false;
    for (int attempt = 0; attempt < 200 && !up; ++attempt) {
      up = probe.Connect(socket_path) && probe.Ping();
      if (!up) usleep(10'000);
    }
    if (!up) {
      std::fprintf(stderr, "server did not come up on %s\n",
                   socket_path.c_str());
      server.RequestShutdown();
      server_thread.join();
      return {};
    }
  }

  MatchLimits limits;
  limits.max_embeddings = d.max_embeddings;
  limits.time_limit_seconds = d.time_limit_seconds;

  std::atomic<uint32_t> cursor{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::vector<double>> latencies(d.clients);
  obs::WallTimer wall;

  std::vector<std::thread> clients;
  clients.reserve(d.clients);
  for (uint32_t c = 0; c < d.clients; ++c) {
    clients.emplace_back([&, c] {
      serve::ServeClient client;
      if (!client.Connect(socket_path)) return;
      while (true) {
        const uint32_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= w.requests.size()) break;
        obs::WallTimer request_timer;
        serve::ServeClient::Reply reply = client.Count(w.requests[i], limits);
        latencies[c].push_back(request_timer.Lap() * 1e3);
        const uint32_t shape = w.shape_of[i];
        if (!reply.ok ||
            (w.exact[shape] &&
             reply.outcome.embeddings != w.expected[shape])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_seconds = wall.Lap();

  LoadResult result;
  {
    serve::ServeClient admin;
    if (admin.Connect(socket_path)) {
      std::map<std::string, uint64_t> stats = admin.Stats();
      result.cache_hits = stats["cache_hits"];
      result.cache_misses = stats["cache_misses"];
      admin.Shutdown();
    } else {
      server.RequestShutdown();
    }
  }
  server_thread.join();

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  std::sort(merged.begin(), merged.end());
  result.completed = merged.size();
  result.mismatches = mismatches.load();
  result.qps = wall_seconds > 0.0
                   ? static_cast<double>(merged.size()) / wall_seconds
                   : 0.0;
  result.p50_ms = Percentile(merged, 0.50);
  result.p95_ms = Percentile(merged, 0.95);
  result.p99_ms = Percentile(merged, 0.99);
  return result;
}

void AppendJson(const DriverConfig& d, const std::string& dataset,
                bool cache_on, const LoadResult& r) {
  const std::string path = BenchJsonPath();
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  out << "{\"artifact\":\"serve_load\",\"dataset\":\"" << dataset
      << "\",\"cache\":\"" << (cache_on ? "on" : "off")
      << "\",\"clients\":" << d.clients << ",\"workers\":" << d.workers
      << ",\"queries\":" << r.completed << ",\"qps\":" << r.qps
      << ",\"p50_ms\":" << r.p50_ms << ",\"p95_ms\":" << r.p95_ms
      << ",\"p99_ms\":" << r.p99_ms << ",\"cache_hits\":" << r.cache_hits
      << ",\"cache_misses\":" << r.cache_misses
      << ",\"mismatches\":" << r.mismatches << "}\n";
}

void PrintResult(const char* label, const LoadResult& r) {
  std::printf(
      "%-10s qps=%8.1f  p50=%7.2fms  p95=%7.2fms  p99=%7.2fms  "
      "queries=%llu  hits=%llu  misses=%llu  mismatches=%llu\n",
      label, r.qps, r.p50_ms, r.p95_ms, r.p99_ms,
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.cache_hits),
      static_cast<unsigned long long>(r.cache_misses),
      static_cast<unsigned long long>(r.mismatches));
}

}  // namespace

int main(int argc, char** argv) {
  DriverConfig d;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--dataset=", 0) == 0) {
      d.dataset = arg.substr(10);
    } else if (arg.rfind("--queries=", 0) == 0) {
      d.queries = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--rounds=", 0) == 0) {
      d.rounds = static_cast<uint32_t>(std::stoul(arg.substr(9)));
    } else if (arg.rfind("--clients=", 0) == 0) {
      d.clients = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--workers=", 0) == 0) {
      d.workers = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--query-size=", 0) == 0) {
      d.query_size = static_cast<uint32_t>(std::stoul(arg.substr(13)));
    } else if (arg.rfind("--max=", 0) == 0) {
      d.max_embeddings = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (arg == "--no-cache") {
      d.cache = false;
    } else if (arg == "--compare") {
      d.compare = true;
    } else if (arg == "--smoke") {
      d.queries = 4;
      d.rounds = 3;
      d.clients = 2;
      d.workers = 2;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (d.clients == 0 || d.queries == 0 || d.rounds == 0) {
    std::fprintf(stderr, "clients/queries/rounds must be positive\n");
    return 2;
  }

  bench::Config bc = bench::LoadConfig();
  Graph data = bench::MakeBenchGraph(d.dataset, bc);
  const uint32_t query_size =
      d.query_size != 0 ? d.query_size : bench::DefaultQuerySize(d.dataset,
                                                                 data);
  std::printf("serve load: %s (%u vertices), %u shapes x %u rounds, "
              "size-%u queries, %u clients, %u workers\n",
              d.dataset.c_str(), data.NumVertices(), d.queries, d.rounds,
              query_size, d.clients, d.workers);

  Workload w = BuildWorkload(data, d, query_size);
  uint32_t exact_shapes = 0;
  for (bool e : w.exact) exact_shapes += e ? 1 : 0;
  std::printf("mix: %zu requests, %u/%u shapes equivalence-checked\n",
              w.requests.size(), exact_shapes, d.queries);

  const std::string socket_path =
      "/tmp/cfl_serve_load_" + std::to_string(getpid()) + ".sock";

  bool pass = true;
  if (d.compare) {
    LoadResult on = RunLoad(data, w, d, /*cache_on=*/true, socket_path);
    LoadResult off = RunLoad(data, w, d, /*cache_on=*/false, socket_path);
    PrintResult("cache-on", on);
    PrintResult("cache-off", off);
    AppendJson(d, d.dataset, true, on);
    AppendJson(d, d.dataset, false, off);
    const double ratio = off.qps > 0.0 ? on.qps / off.qps : 0.0;
    std::printf("qps ratio (on/off): %.2fx\n", ratio);
    pass = on.completed > 0 && off.completed > 0 && on.mismatches == 0 &&
           off.mismatches == 0 && on.qps > 0.0;
  } else {
    LoadResult r = RunLoad(data, w, d, d.cache, socket_path);
    PrintResult(d.cache ? "cache-on" : "cache-off", r);
    AppendJson(d, d.dataset, d.cache, r);
    pass = r.completed > 0 && r.mismatches == 0 && r.qps > 0.0;
  }
  if (!pass) {
    std::fprintf(stderr, "FAILED: zero throughput or count mismatches\n");
    return 1;
  }
  return 0;
}
