// Update-throughput and query-latency-under-churn driver for the dynamic
// data graph (ISSUE 10).
//
// Self-hosting like bench_serve_load: the driver starts an in-process
// QueryServer on a private socket, then measures two phases over the same
// relabeled query mix:
//
//   quiet — C closed-loop clients counting embeddings against a static
//           graph: the baseline qps and latency distribution.
//   churn — the same clients keep querying while one updater session
//           commits B UPDATE batches of K edge swaps each (every batch
//           removes existing edges and adds previously-absent ones, tracked
//           in a client-side mirror so no batch is ever rejected).
//
// Reported: committed updates/sec and batch-commit latency on the updater
// side; qps + p50/p95 on the query side for both phases, so the cost of
// epoch folding, plan-cache invalidation and re-preparing invalidated
// plans shows up as the quiet-vs-churn delta. The final STATS line must
// account for every batch (updates == B, epoch == B) or the process exits
// non-zero, so the smoke run doubles as an end-to-end UPDATE liveness
// check. Results append to CFL_BENCH_JSON as {"artifact":"dyn_update", ...}
// lines.
//
//   bench_dyn_update [--dataset=NAME] [--batches=B] [--ops=K] [--clients=C]
//                    [--workers=W] [--queries=Q] [--query-size=S] [--smoke]

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "gen/rng.h"
#include "graph/graph_builder.h"
#include "obs/clock.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace cfl;

struct DriverConfig {
  std::string dataset = "synthetic";
  uint32_t batches = 64;      // UPDATE batches in the churn phase
  uint32_t ops = 16;          // edge swaps per batch
  uint32_t clients = 4;       // concurrent closed-loop query clients
  uint32_t workers = 4;       // server enumeration workers
  uint32_t queries = 8;       // distinct query shapes
  uint32_t query_size = 8;
  uint64_t max_embeddings = 10'000;
  double time_limit_seconds = 10.0;
};

// A random vertex renumbering of `q` (same logical query, new ids).
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

// Client-side mirror of the server's edge set: batches are generated
// against it, so the single-writer updater never sends a rejectable op.
struct EdgeMirror {
  std::vector<std::set<VertexId>> adj;
  std::vector<std::pair<VertexId, VertexId>> edges;  // u < v

  explicit EdgeMirror(const Graph& g) : adj(g.NumVertices()) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (VertexId w : g.Neighbors(v)) {
        adj[v].insert(w);
        if (w > v) edges.emplace_back(v, w);
      }
    }
  }

  // K/2 removals of random present edges + K/2 additions of random absent
  // pairs, applied to the mirror as they are generated.
  std::vector<serve::UpdateOp> NextBatch(Rng& rng, uint32_t k) {
    std::vector<serve::UpdateOp> ops;
    const uint32_t n = static_cast<uint32_t>(adj.size());
    for (uint32_t i = 0; i < k / 2 && !edges.empty(); ++i) {
      const size_t pick = rng.Below(edges.size());
      auto [u, v] = edges[pick];
      edges[pick] = edges.back();
      edges.pop_back();
      adj[u].erase(v);
      adj[v].erase(u);
      ops.push_back({serve::UpdateOp::Kind::kRemoveEdge, u, v});
    }
    while (ops.size() < k) {
      VertexId u = static_cast<VertexId>(rng.Below(n));
      VertexId v = static_cast<VertexId>(rng.Below(n));
      if (u == v || adj[u].count(v) > 0) continue;
      adj[u].insert(v);
      adj[v].insert(u);
      edges.emplace_back(std::min(u, v), std::max(u, v));
      ops.push_back({serve::UpdateOp::Kind::kAddEdge, u, v});
    }
    return ops;
  }
};

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_ms.size()));
  if (idx >= sorted_ms.size()) idx = sorted_ms.size() - 1;
  return sorted_ms[idx];
}

struct QueryPhaseResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  uint64_t completed = 0;
  uint64_t errors = 0;
};

struct ChurnResult {
  QueryPhaseResult queries;
  double updates_per_sec = 0.0;   // committed edge ops per second
  double batch_p50_ms = 0.0;      // UPDATE round-trip latency
  double batch_p95_ms = 0.0;
  uint64_t batches = 0;
  uint64_t failed_batches = 0;
};

// Runs the closed-loop clients over relabeled requests until `stop` flips
// (or a generous request cap is hit, so the quiet phase terminates too).
// Each client counts itself into `started` (when given) once its first
// request is built, or once it gives up before one.
QueryPhaseResult RunQueryClients(const std::string& socket_path,
                                 const std::vector<Graph>& shapes,
                                 const DriverConfig& d,
                                 const MatchLimits& limits, uint64_t cap,
                                 std::atomic<bool>* stop,
                                 std::atomic<uint32_t>* started = nullptr) {
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::vector<double>> latencies(d.clients);
  obs::WallTimer wall;

  std::vector<std::thread> clients;
  clients.reserve(d.clients);
  for (uint32_t c = 0; c < d.clients; ++c) {
    clients.emplace_back([&, c] {
      bool counted = false;
      auto count_started = [&] {
        if (started != nullptr && !counted) started->fetch_add(1);
        counted = true;
      };
      serve::ServeClient client;
      if (!client.Connect(socket_path)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        count_started();
        return;
      }
      Rng rng(0xd15ea5eULL + c);
      while (!stop->load(std::memory_order_relaxed)) {
        const uint64_t i = issued.fetch_add(1, std::memory_order_relaxed);
        if (i >= cap) break;
        Graph request = Relabel(shapes[i % shapes.size()], rng);
        count_started();
        obs::WallTimer request_timer;
        serve::ServeClient::Reply reply = client.Count(request, limits);
        latencies[c].push_back(request_timer.Lap() * 1e3);
        if (!reply.ok) errors.fetch_add(1, std::memory_order_relaxed);
      }
      count_started();
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_seconds = wall.Lap();

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  std::sort(merged.begin(), merged.end());

  QueryPhaseResult r;
  r.completed = merged.size();
  r.errors = errors.load();
  r.qps = wall_seconds > 0.0
              ? static_cast<double>(merged.size()) / wall_seconds
              : 0.0;
  r.p50_ms = Percentile(merged, 0.50);
  r.p95_ms = Percentile(merged, 0.95);
  return r;
}

void AppendJson(const DriverConfig& d, const QueryPhaseResult& quiet,
                const ChurnResult& churn,
                const std::map<std::string, uint64_t>& stats) {
  const std::string path = BenchJsonPath();
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  auto stat = [&stats](const char* key) -> uint64_t {
    auto it = stats.find(key);
    return it == stats.end() ? 0 : it->second;
  };
  out << "{\"artifact\":\"dyn_update\",\"dataset\":\"" << d.dataset
      << "\",\"clients\":" << d.clients << ",\"workers\":" << d.workers
      << ",\"batches\":" << churn.batches << ",\"ops_per_batch\":" << d.ops
      << ",\"updates_per_sec\":" << churn.updates_per_sec
      << ",\"batch_p50_ms\":" << churn.batch_p50_ms
      << ",\"batch_p95_ms\":" << churn.batch_p95_ms
      << ",\"quiet_qps\":" << quiet.qps << ",\"quiet_p50_ms\":" << quiet.p50_ms
      << ",\"quiet_p95_ms\":" << quiet.p95_ms
      << ",\"churn_qps\":" << churn.queries.qps
      << ",\"churn_p50_ms\":" << churn.queries.p50_ms
      << ",\"churn_p95_ms\":" << churn.queries.p95_ms
      << ",\"query_errors\":" << quiet.errors + churn.queries.errors
      << ",\"cache_invalidations\":" << stat("cache_invalidations")
      << ",\"final_epoch\":" << stat("epoch") << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  DriverConfig d;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--dataset=", 0) == 0) {
      d.dataset = arg.substr(10);
    } else if (arg.rfind("--batches=", 0) == 0) {
      d.batches = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--ops=", 0) == 0) {
      d.ops = static_cast<uint32_t>(std::stoul(arg.substr(6)));
    } else if (arg.rfind("--clients=", 0) == 0) {
      d.clients = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--workers=", 0) == 0) {
      d.workers = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--queries=", 0) == 0) {
      d.queries = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--query-size=", 0) == 0) {
      d.query_size = static_cast<uint32_t>(std::stoul(arg.substr(13)));
    } else if (arg == "--smoke") {
      smoke = true;
      d.batches = 8;
      d.ops = 8;
      d.clients = 2;
      d.workers = 2;
      d.queries = 4;
      d.query_size = 5;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (d.batches == 0 || d.ops < 2 || d.clients == 0 || d.queries == 0) {
    std::fprintf(stderr, "batches/ops/clients/queries must be positive\n");
    return 2;
  }

  bench::Config bc = bench::LoadConfig();
  if (smoke) bc.scale = std::min(bc.scale, 0.02);
  Graph data = bench::MakeBenchGraph(d.dataset, bc);
  std::printf("dyn update: %s (%u vertices, %llu edges), %u batches x %u "
              "ops, %u clients, %u workers\n",
              d.dataset.c_str(), data.NumVertices(),
              static_cast<unsigned long long>(data.NumEdges()), d.batches,
              d.ops, d.clients, d.workers);

  std::vector<Graph> shapes = GenerateQuerySet(
      data, d.queries, d.query_size, /*sparse=*/true, /*seed=*/0xd1ffULL);

  MatchLimits limits;
  limits.max_embeddings = d.max_embeddings;
  limits.time_limit_seconds = d.time_limit_seconds;

  const std::string socket_path =
      "/tmp/cfl_dyn_update_" + std::to_string(getpid()) + ".sock";
  serve::ServeOptions options;
  options.socket_path = socket_path;
  options.workers = d.workers;
  options.sessions = d.clients + 3;  // clients + updater + admin
  options.max_time_limit_seconds = d.time_limit_seconds;
  serve::QueryServer server(data, options);
  std::thread server_thread([&server] { server.Serve(); });

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
      return 1;
    }
  }

  // Phase 1: quiet baseline over a fixed request budget.
  const uint64_t quiet_cap = static_cast<uint64_t>(d.clients) * 3 *
                             std::max<uint64_t>(d.queries, 4);
  std::atomic<bool> never{false};
  QueryPhaseResult quiet =
      RunQueryClients(socket_path, shapes, d, limits, quiet_cap, &never);
  std::printf("quiet  qps=%8.1f  p50=%7.2fms  p95=%7.2fms  queries=%llu\n",
              quiet.qps, quiet.p50_ms, quiet.p95_ms,
              static_cast<unsigned long long>(quiet.completed));

  // Phase 2: the same mix under churn. The updater commits its first
  // batch only once every client is querying: a handful of fast batches
  // could otherwise all commit before any client thread has run.
  ChurnResult churn;
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> started{0};
  std::thread updater([&] {
    serve::ServeClient client;
    if (!client.Connect(socket_path)) {
      churn.failed_batches = d.batches;
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    while (started.load() < d.clients) std::this_thread::yield();
    EdgeMirror mirror(data);
    Rng rng(0xc0ffeeULL);
    std::vector<double> batch_ms;
    obs::WallTimer wall;
    for (uint32_t b = 0; b < d.batches; ++b) {
      std::vector<serve::UpdateOp> ops = mirror.NextBatch(rng, d.ops);
      obs::WallTimer batch_timer;
      serve::ServeClient::UpdateReply reply = client.Update(ops);
      batch_ms.push_back(batch_timer.Lap() * 1e3);
      if (!reply.ok) {
        std::fprintf(stderr, "UPDATE failed: %s\n", reply.error.c_str());
        ++churn.failed_batches;
      } else {
        ++churn.batches;
      }
    }
    const double wall_seconds = wall.Lap();
    churn.updates_per_sec =
        wall_seconds > 0.0
            ? static_cast<double>(churn.batches) * d.ops / wall_seconds
            : 0.0;
    std::sort(batch_ms.begin(), batch_ms.end());
    churn.batch_p50_ms = Percentile(batch_ms, 0.50);
    churn.batch_p95_ms = Percentile(batch_ms, 0.95);
    stop.store(true, std::memory_order_relaxed);
  });
  churn.queries = RunQueryClients(socket_path, shapes, d, limits,
                                  /*cap=*/UINT64_MAX, &stop, &started);
  updater.join();
  std::printf("churn  qps=%8.1f  p50=%7.2fms  p95=%7.2fms  queries=%llu\n",
              churn.queries.qps, churn.queries.p50_ms, churn.queries.p95_ms,
              static_cast<unsigned long long>(churn.queries.completed));
  std::printf("update rate=%8.1f ops/s  batch p50=%7.2fms  p95=%7.2fms  "
              "batches=%llu/%u\n",
              churn.updates_per_sec, churn.batch_p50_ms, churn.batch_p95_ms,
              static_cast<unsigned long long>(churn.batches), d.batches);

  std::map<std::string, uint64_t> stats;
  {
    serve::ServeClient admin;
    if (admin.Connect(socket_path)) {
      stats = admin.Stats();
      admin.Shutdown();
    } else {
      server.RequestShutdown();
    }
  }
  server_thread.join();

  std::printf("stats: updates=%llu invalidations=%llu epoch=%llu\n",
              static_cast<unsigned long long>(stats["updates"]),
              static_cast<unsigned long long>(stats["cache_invalidations"]),
              static_cast<unsigned long long>(stats["epoch"]));
  AppendJson(d, quiet, churn, stats);

  const bool pass = churn.failed_batches == 0 &&
                    churn.batches == d.batches &&
                    stats["updates"] == d.batches &&
                    stats["epoch"] == d.batches && quiet.errors == 0 &&
                    churn.queries.errors == 0 && quiet.completed > 0 &&
                    churn.queries.completed > 0;
  if (!pass) {
    std::fprintf(stderr,
                 "FAILED: lost updates, query errors, or zero throughput\n");
    return 1;
  }
  return 0;
}
