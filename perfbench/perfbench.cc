// The repository's benchmark (BENCHMARK.json); run.py builds and runs it.
//
//   cfl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out PATH] [--git-sha SHA]
//
// Workloads. Each one generates its inputs from --seed, hands the program
// only the generated graphs, queries and update batches, and checks every
// reply against a serial CflMatcher reference:
//
//   prepare_bound  in-process, one thread: counting-mode CflMatcher::Match
//                  over q50/q100 S and N queries on a synthetic graph (25,000
//                  vertices, average degree 8, 50 labels). Prepare
//                  (decompose, CPI, order) is nearly all of the query time;
//                  serve, dyn, the plan cache and the parallel engine are not
//                  on the timed path.
//   serve_enum     a resident QueryServer (plan cache on, 2 workers) on the
//                  human-like graph; 2 closed-loop client connections replay
//                  relabeled q15/q20 S and N shapes whose plans were cached
//                  during set-up, so every timed request is a cache hit and
//                  enumeration dominates.
//   serve_churn    the same server on the prepare_bound graph; 2 closed-loop
//                  clients replay relabeled q50 S and N shapes while one
//                  updater connection sends 16-swap UPDATE batches at a fixed
//                  rate (open loop), so every commit invalidates plans and
//                  forces re-Prepare beside the reads, and the churn level
//                  does not depend on how fast the program commits.
//
// The query shapes of each workload are a fixed pool (fixed generator
// seeds), and --seed draws the vertex renumbering of every request, the
// request order and the update batches. Per-query cost is heavy-tailed:
// one shape in a few dozen can cost 100x the median, and a pool holding one
// lets that shape alone set qps and the p99. The class seeds below were
// therefore picked so that no shape takes more than about a twelfth of its
// pool's serial time, and the pool is the same for every --seed, so run-to-run
// spread measures the program rather than the draw. serve_churn's pool is
// large enough that a shape's plan is nearly always invalidated before the
// shape comes round again: a hit ratio that drifts with the relative speed
// of readers and writer would otherwise move the median between the hit and
// the miss latencies.
//
// Every workload also sends UPDATE batches over a server on its graph: beside
// the queries on serve_churn, after the timed query window (no concurrent
// queries, closed loop) on the other two. update_p50_ms and update_p95_ms
// time each batch from its due time.
//
// --trace 1 runs the per-layer measurement instead: half the window without
// spans, half with spans recorded by this file around its calls into each
// layer, then probes that call the layers' public functions on the
// workload's own inputs. Spans are written to --trace-out at exit.
//
// The last line of stdout is the JSON result; the process exits 1 if any
// reference check failed, 2 on bad arguments and 3 if the run outlives its
// time budget.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cpi/candidate_filter.h"
#include "cpi/cpi_builder.h"
#include "cpi/root_select.h"
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
#include "graph/graph_io.h"
#include "kernels/kernels.h"
#include "match/cfl_match.h"
#include "match/enumerator.h"
#include "match/leaf_match.h"
#include "obs/stats.h"
#include "order/matching_order.h"
#include "serve/canonical.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

#ifndef CFL_PERFBENCH_BUILD_TYPE
#define CFL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cfl;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kCap = 100'000;           // embeddings per query
constexpr double kQueryTimeLimitS = 30.0;    // a timed-out reply is a failure
constexpr uint32_t kSetupRepeats = 5;        // setup_s is their median
constexpr uint32_t kClients = 2;             // serve workloads
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kStreamLength = 4096;     // distinct requests per client
constexpr uint32_t kOpsPerBatch = 16;        // 8 removals + 8 additions
constexpr double kChurnBatchesPerS = 20.0;   // serve_churn, beside the queries
constexpr size_t kQuietConnections = 4;      // the update stream elsewhere
constexpr uint32_t kRebindProbes = 10;
constexpr double kWatchdogS = 170.0;
constexpr uint64_t kPoolSeed = 0x5e7feedULL;  // query shapes, per workload

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- Workload definitions -------------------------------------------------

struct ShapeClass {
  uint32_t size;
  bool sparse;
  uint32_t count;
  uint64_t seed;  // GenerateQuerySet seed, offset from kPoolSeed
};

struct WorkloadSpec {
  std::string name;
  bool served;  // the timed window runs over the server
  bool churn;   // updates run beside the timed queries
  bool human;   // human-like graph, else the synthetic graph
  std::vector<ShapeClass> classes;
  // Without churn, the update stream runs after the query window, closed
  // loop (each batch sent when the previous one is answered) and with
  // background compaction off, so its latency is the commit's own: fold,
  // invalidation and reply. Paced sends leave the processors idle between
  // batches, and on a shared host the wake-up from idle then adds
  // milliseconds to a few percent of batches at random, which sets the p95
  // of a one-millisecond commit; a sustained stream with compaction on
  // overlaps compactions from the point where a quarter of the vertices were
  // touched, in a phase that differs from run to run. Its length is about
  // five seconds of commits. serve_churn keeps the paced, compacting stream.
  uint32_t quiet_batches = 0;
};

// The graph of `cfl_generate synthetic 25000 8 50 20160626`.
Graph MakeMeasurementGraph() {
  SyntheticOptions options;
  options.num_vertices = 25'000;
  options.average_degree = 8.0;
  options.num_labels = 50;
  options.seed = 20160626;
  return MakeSynthetic(options);
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "prepare_bound") {
    return WorkloadSpec{name, false, false, false,
                        {{50, true, 24, 300}, {50, false, 24, 900},
                         {100, true, 24, 0}, {100, false, 24, 100}},
                        2000};
  }
  if (name == "serve_enum") {
    return WorkloadSpec{name, true, false, true,
                        {{15, true, 16, 0}, {15, false, 16, 200},
                         {20, true, 16, 1000}, {20, false, 16, 200}},
                        6000};
  }
  if (name == "serve_churn") {
    return WorkloadSpec{name, true, true, false,
                        {{50, true, 48, 300}, {50, false, 48, 900}}};
  }
  return std::nullopt;
}

// --- Generated inputs -----------------------------------------------------

// A random vertex renumbering of `q`: the same logical query with new ids.
Graph Relabel(const Graph& q, Rng& rng) {
  const uint32_t n = q.NumVertices();
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (uint32_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  GraphBuilder out(n);
  for (VertexId v = 0; v < n; ++v) out.SetLabel(perm[v], q.label(v));
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : q.Neighbors(v)) {
      if (u > v) out.AddEdge(perm[v], perm[u]);
    }
  }
  return std::move(out).Build();
}

// Client-side mirror of the server's edge set: batches are generated
// against it, so no batch is ever rejected, and after the run it holds the
// final edge set the server must also hold.
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

  std::vector<serve::UpdateOp> NextBatch(Rng& rng) {
    std::vector<serve::UpdateOp> ops;
    const uint32_t n = static_cast<uint32_t>(adj.size());
    for (uint32_t i = 0; i < kOpsPerBatch / 2 && !edges.empty(); ++i) {
      const size_t pick = rng.Below(edges.size());
      auto [u, v] = edges[pick];
      edges[pick] = edges.back();
      edges.pop_back();
      adj[u].erase(v);
      adj[v].erase(u);
      ops.push_back({serve::UpdateOp::Kind::kRemoveEdge, u, v});
    }
    while (ops.size() < kOpsPerBatch) {
      const auto u = static_cast<VertexId>(rng.Below(n));
      const auto v = static_cast<VertexId>(rng.Below(n));
      if (u == v || adj[u].count(v) > 0) continue;
      adj[u].insert(v);
      adj[v].insert(u);
      edges.emplace_back(std::min(u, v), std::max(u, v));
      ops.push_back({serve::UpdateOp::Kind::kAddEdge, u, v});
    }
    return ops;
  }

  // The batch that undoes `ops`, the one NextBatch returned last, whose
  // added edges are the last ones in `edges`.
  std::vector<serve::UpdateOp> UndoLast(const std::vector<serve::UpdateOp>& ops) {
    std::vector<serve::UpdateOp> undo;
    for (const serve::UpdateOp& op : ops) {
      if (op.kind == serve::UpdateOp::Kind::kAddEdge) {
        adj[op.u].erase(op.v);
        adj[op.v].erase(op.u);
        edges.pop_back();
        undo.push_back({serve::UpdateOp::Kind::kRemoveEdge, op.u, op.v});
      }
    }
    for (const serve::UpdateOp& op : ops) {
      if (op.kind == serve::UpdateOp::Kind::kRemoveEdge) {
        adj[op.u].insert(op.v);
        adj[op.v].insert(op.u);
        edges.emplace_back(op.u, op.v);
        undo.push_back({serve::UpdateOp::Kind::kAddEdge, op.u, op.v});
      }
    }
    return undo;
  }
};

struct Request {
  Graph graph;
  uint32_t shape;
};

struct Reference {
  uint64_t count = 0;
  bool capped = false;
};

struct Inputs {
  Graph graph;  // the data graph as generated
  std::vector<Graph> shapes;
  std::vector<std::vector<Request>> streams;  // one per client
  std::vector<std::vector<serve::UpdateOp>> batches;
  Graph final_graph;  // the data graph after every batch
};

// The data graph as set-up receives it: labels and an edge list.
struct GraphInput {
  std::vector<Label> labels;
  std::vector<std::pair<VertexId, VertexId>> edges;

  explicit GraphInput(const Graph& g) : labels(g.NumVertices()) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      labels[v] = g.label(v);
      for (VertexId w : g.Neighbors(v)) {
        if (w > v) edges.emplace_back(v, w);
      }
    }
  }
  Graph Build() const {
    GraphBuilder out(static_cast<uint32_t>(labels.size()));
    for (VertexId v = 0; v < labels.size(); ++v) out.SetLabel(v, labels[v]);
    for (auto [u, v] : edges) out.AddEdge(u, v);
    return std::move(out).Build();
  }
};

Inputs Generate(const WorkloadSpec& spec, uint64_t seed, uint32_t batches) {
  Inputs in;
  in.graph = spec.human ? MakeHumanLike(1.0) : MakeMeasurementGraph();
  for (const ShapeClass& c : spec.classes) {
    std::vector<Graph> set = GenerateQuerySet(in.graph, c.count, c.size,
                                              c.sparse, kPoolSeed + c.seed);
    for (Graph& g : set) in.shapes.push_back(std::move(g));
  }
  const uint32_t streams = spec.served ? kClients : 1;
  for (uint32_t s = 0; s < streams; ++s) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + s);
    std::vector<Request>& stream = in.streams.emplace_back();
    // Rounds of every shape once, each round in its own order.
    std::vector<uint32_t> order(in.shapes.size());
    while (stream.size() < kStreamLength) {
      std::iota(order.begin(), order.end(), 0);
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Below(i)]);
      }
      for (uint32_t shape : order) {
        stream.push_back({Relabel(in.shapes[shape], rng), shape});
      }
    }
  }
  EdgeMirror mirror(in.graph);
  Rng rng(seed ^ 0xc0ffeeULL);
  // Pairs of a random batch and the batch that undoes it. A random walk
  // would replace the graph's structure with random edges as the run goes
  // on (600 batches cut the serial time of serve_churn's pool by a sixth), so
  // per-query cost would drift within a run and differ between seeds; the
  // pairs keep the graph the workload's own however long the stream.
  for (uint32_t b = 0; b < batches; ++b) {
    in.batches.push_back(b % 2 == 0 ? mirror.NextBatch(rng)
                                    : mirror.UndoLast(in.batches.back()));
  }
  GraphInput final_input(in.graph);
  final_input.edges = std::move(mirror.edges);
  in.final_graph = final_input.Build();
  return in;
}

std::vector<Reference> ComputeReference(const Graph& data,
                                        const std::vector<Graph>& shapes) {
  CflMatcher matcher(data);
  MatchOptions options;
  options.limits.max_embeddings = kCap;
  std::vector<Reference> ref;
  for (const Graph& shape : shapes) {
    MatchResult r = matcher.Match(shape, options);
    ref.push_back({r.embeddings, r.reached_limit});
  }
  return ref;
}

// Uncapped shapes must match the exact count; capped shapes must report the
// cap reached with at least cap embeddings.
bool MatchesReference(const Reference& ref, uint64_t embeddings,
                      bool reached_limit, bool timed_out) {
  if (timed_out) return false;
  if (ref.capped) return reached_limit && embeddings >= kCap;
  return !reached_limit && embeddings == ref.count;
}

// --- Spans ------------------------------------------------------------------

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int32_t parent;  // index in the same log, -1 for a root
  uint64_t request;
};

// One per thread; merged after the threads join.
struct SpanLog {
  std::vector<Span> spans;

  int32_t Open(const char* name, uint64_t request, int32_t parent = -1) {
    const Clock::time_point now = Clock::now();
    spans.push_back({name, now, now, parent, request});
    return static_cast<int32_t>(spans.size() - 1);
  }
  void Close(int32_t span) { spans[static_cast<size_t>(span)].end = Clock::now(); }
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           int32_t parent, uint64_t request) {
    spans.push_back({name, start, end, parent, request});
  }
};

// Self time per span name (duration minus the part covered by children),
// totalled, and the number of distinct requests that recorded the name.
struct LayerTotals {
  double self_ms = 0.0;
  std::set<uint64_t> requests;
};

class Tracer {
 public:
  void Merge(SpanLog log) { logs_.push_back(std::move(log)); }

  std::map<std::string, LayerTotals> Totals() const {
    std::map<std::string, LayerTotals> totals;
    for (const SpanLog& log : logs_) {
      std::vector<double> child_ms(log.spans.size(), 0.0);
      for (const Span& s : log.spans) {
        if (s.parent >= 0) {
          child_ms[static_cast<size_t>(s.parent)] += MsBetween(s.start, s.end);
        }
      }
      for (size_t i = 0; i < log.spans.size(); ++i) {
        const Span& s = log.spans[i];
        LayerTotals& t = totals[s.name];
        t.self_ms += MsBetween(s.start, s.end) - child_ms[i];
        t.requests.insert(s.request);
      }
    }
    return totals;
  }

  // Mean self time of `name` per request that recorded it.
  double SelfMsPerRequest(const std::string& name) const {
    std::map<std::string, LayerTotals> totals = Totals();
    auto it = totals.find(name);
    if (it == totals.end() || it->second.requests.empty()) return 0.0;
    return it->second.self_ms / static_cast<double>(it->second.requests.size());
  }

  size_t NumSpans() const {
    size_t n = 0;
    for (const SpanLog& log : logs_) n += log.spans.size();
    return n;
  }

  bool Write(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path);
    if (!out) return false;
    for (size_t l = 0; l < logs_.size(); ++l) {
      for (const Span& s : logs_[l].spans) {
        out << "{\"log\":" << l << ",\"name\":\"" << s.name
            << "\",\"start_us\":"
            << MsBetween(origin, s.start) * 1e3
            << ",\"end_us\":" << MsBetween(origin, s.end) * 1e3
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<SpanLog> logs_;
};

// --- Sample statistics -------------------------------------------------------

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

// A percentile of a run's samples in time order: the median of its values
// over consecutive chunks of about `chunk` samples, so a burst of
// interference from outside the process moves a chunk or two rather than the
// result. Fewer than three chunks fall back to the whole sample.
double ChunkedPercentile(const std::vector<double>& in_order, double p,
                         size_t chunk) {
  const size_t chunks = in_order.size() / std::max<size_t>(chunk, 1);
  if (chunks < 3) return Percentile(in_order, p);
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    per_chunk.push_back(Percentile(
        {in_order.begin() + static_cast<ptrdiff_t>(c * in_order.size() / chunks),
         in_order.begin() +
             static_cast<ptrdiff_t>((c + 1) * in_order.size() / chunks)},
        p));
  }
  return Percentile(per_chunk, 0.5);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

// Counts every checked operation; `failed` includes ERR replies, timeouts,
// connect failures and reference mismatches.
struct Outcome {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void Record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

// --- Server -----------------------------------------------------------------

serve::ServeOptions ServerOptions(const std::string& socket_path,
                                  bool compaction) {
  serve::ServeOptions options;
  options.socket_path = socket_path;
  options.background_compaction = compaction;
  options.workers = kWorkers;
  // Query clients or quiet-stream updaters, plus the churn updater, admin
  // and probe connections.
  options.sessions = kClients + 4;
  options.max_time_limit_seconds = kQueryTimeLimitS;
  return options;
}

// An in-process QueryServer on its own accept thread.
class ServerRun {
 public:
  ServerRun(const Graph& data, const std::string& socket_path, bool compaction)
      : socket_path_(socket_path),
        server_(data, ServerOptions(socket_path, compaction)),
        thread_([this] { server_.Serve(); }) {}

  ~ServerRun() {
    server_.RequestShutdown();
    thread_.join();
  }

  ServerRun(const ServerRun&) = delete;
  ServerRun& operator=(const ServerRun&) = delete;

  // The socket appears once Serve reaches listen(); retry briefly.
  bool WaitUp() {
    for (int attempt = 0; attempt < 10'000; ++attempt) {
      serve::ServeClient probe;
      if (probe.Connect(socket_path_) && probe.Ping()) return true;
      usleep(500);
    }
    return false;
  }

  std::map<std::string, uint64_t> Stats() {
    serve::ServeClient admin;
    if (!admin.Connect(socket_path_)) return {};
    return admin.Stats();
  }

 private:
  std::string socket_path_;
  serve::QueryServer server_;
  std::thread thread_;  // last: joins before server_ is destroyed
};

MatchLimits QueryLimits() {
  MatchLimits limits;
  limits.max_embeddings = kCap;
  limits.time_limit_seconds = kQueryTimeLimitS;
  return limits;
}

struct QuerySample {
  double latency_ms = 0.0;
  double server_ms = 0.0;
  double prepare_ms = 0.0;  // misses only
  bool miss = false;
  uint32_t quota = 0;
};

// One counting request over `client`, checked against the reference unless
// `ref` is null (mid-churn replies have no fixed reference).
bool SendQuery(serve::ServeClient& client, const Graph& query,
               const Reference* ref, QuerySample* sample, SpanLog* log,
               uint64_t request) {
  const Clock::time_point t0 = Clock::now();
  serve::ServeClient::Reply reply = client.Count(query, QueryLimits());
  const Clock::time_point t1 = Clock::now();
  sample->latency_ms = MsBetween(t0, t1);
  if (!reply.ok) return false;
  const serve::QueryOutcome& o = reply.outcome;
  sample->server_ms = o.total_ms;
  sample->miss = o.cache != serve::QueryOutcome::Cache::kHit;
  sample->prepare_ms = o.prepare_ms;
  sample->quota = o.quota;
  if (log != nullptr) {
    const int32_t root = static_cast<int32_t>(log->spans.size());
    log->Add("serve.request", t0, t1, -1, request);
    // The server's share, placed at the end of the round trip: its own
    // RESULT total_ms. The request span's self time is then the transport.
    const auto server = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(
            std::min(o.total_ms, sample->latency_ms)));
    log->Add("serve.server", t1 - server, t1, root, request);
  }
  if (ref == nullptr) return !o.timed_out;
  return MatchesReference(*ref, o.embeddings, o.reached_limit, o.timed_out);
}

// Queries completed per second: the interquartile mean over the window's
// whole one-second intervals, so a burst of interference from outside the
// process moves an interval or two rather than the result. Windows shorter
// than two seconds fall back to the plain rate.
double IntervalQps(std::vector<double> done_s, double window_s) {
  const auto intervals = static_cast<size_t>(window_s);
  if (intervals < 2) {
    return window_s > 0.0 ? static_cast<double>(done_s.size()) / window_s : 0.0;
  }
  std::vector<double> counts(intervals, 0.0);
  for (double t : done_s) {
    if (t >= 0.0 && t < static_cast<double>(intervals)) {
      counts[static_cast<size_t>(t)] += 1.0;
    }
  }
  std::sort(counts.begin(), counts.end());
  const size_t lo = intervals / 4;
  const size_t hi = intervals - intervals / 4;
  return std::accumulate(counts.begin() + lo, counts.begin() + hi, 0.0) /
         static_cast<double>(hi - lo);
}

struct WindowResult {
  std::vector<QuerySample> samples;
  std::vector<double> done_s;  // completion times from the window's start
  double seconds = 0.0;
  double Qps() const { return IntervalQps(done_s, seconds); }
};

// Closed-loop clients replaying their streams until `duration` has passed.
WindowResult RunServeWindow(const std::string& socket_path, const Inputs& in,
                            const std::vector<Reference>* ref,
                            double duration_s, Tracer* tracer,
                            uint64_t request_base, Outcome* outcome) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  std::vector<std::vector<QuerySample>> per_client(in.streams.size());
  std::vector<std::vector<double>> done_s(in.streams.size());
  std::vector<SpanLog> logs(in.streams.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < in.streams.size(); ++c) {
    threads.emplace_back([&, c] {
      serve::ServeClient client;
      if (!client.Connect(socket_path)) {
        outcome->Record(false);
        return;
      }
      const std::vector<Request>& stream = in.streams[c];
      for (size_t i = 0; Clock::now() < end; ++i) {
        const Request& r = stream[i % stream.size()];
        QuerySample sample;
        const bool ok = SendQuery(
            client, r.graph, ref != nullptr ? &(*ref)[r.shape] : nullptr,
            &sample, tracer != nullptr ? &logs[c] : nullptr,
            request_base + c * 10'000'000 + i);
        outcome->Record(ok);
        per_client[c].push_back(sample);
        done_s[c].push_back(MsBetween(start, Clock::now()) / 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The clients' samples merged in completion order.
  std::vector<std::pair<double, const QuerySample*>> order;
  for (size_t c = 0; c < per_client.size(); ++c) {
    for (size_t i = 0; i < per_client[c].size(); ++i) {
      order.emplace_back(done_s[c][i], &per_client[c][i]);
    }
    if (tracer != nullptr) tracer->Merge(std::move(logs[c]));
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  WindowResult w;
  for (const auto& [done, sample] : order) {
    w.done_s.push_back(done);
    w.samples.push_back(*sample);
  }
  w.seconds = duration_s;
  return w;
}

struct UpdateSample {
  double latency_ms = 0.0;  // from the due time
  double late_ms = 0.0;     // how late the send started
  uint32_t dirty_labels = 0;
  uint64_t invalidated = 0;
};

// Open loop (a rate above 0): batch i is due at start + i / rate and is timed
// from then. The protocol is sequential per connection, so a slow commit
// delays the next send; the delay shows as lateness, not as a lower rate.
// Closed loop (rate 0): each batch is due when the previous reply arrived.
// Batch i goes over connection i % connections, one batch in flight at a
// time.
std::vector<UpdateSample> RunUpdates(const std::string& socket_path,
                                     const Inputs& in, size_t connections,
                                     double batches_per_s, Outcome* outcome) {
  std::vector<UpdateSample> samples;
  std::vector<serve::ServeClient> clients(connections);
  for (serve::ServeClient& client : clients) {
    if (!client.Connect(socket_path)) {
      outcome->Record(false);
      return samples;
    }
  }
  const Clock::time_point start = Clock::now();
  Clock::time_point due = start;
  for (size_t b = 0; b < in.batches.size(); ++b) {
    if (batches_per_s > 0.0) {
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(b) / batches_per_s));
      // Sleep to just short of the due time, then spin: waking from a sleep
      // alone runs late by a noisy tenth of a millisecond.
      std::this_thread::sleep_until(due - std::chrono::microseconds(300));
      while (Clock::now() < due) {
      }
    }
    const Clock::time_point sent = Clock::now();
    serve::ServeClient::UpdateReply reply =
        clients[b % connections].Update(in.batches[b]);
    const Clock::time_point replied = Clock::now();
    outcome->Record(reply.ok);
    if (reply.ok) {
      samples.push_back({MsBetween(due, replied), MsBetween(due, sent),
                         reply.outcome.dirty_labels, reply.outcome.invalidated});
    } else {
      std::fprintf(stderr, "UPDATE %zu failed: %s\n", b, reply.error.c_str());
    }
    if (batches_per_s <= 0.0) due = replied;
  }
  return samples;
}

uint64_t StatOf(const std::map<std::string, uint64_t>& stats,
                const std::string& key) {
  auto it = stats.find(key);
  return it == stats.end() ? 0 : it->second;
}

// --- Layer probes -------------------------------------------------------------

struct StagedTotals {
  uint64_t queries = 0;
  uint64_t candidate_entries = 0;
  uint64_t generated = 0;
  uint64_t tried = 0;
  uint64_t bound = 0;
};

// CflMatcher::Match in counting mode, stage by stage through each layer's
// public entry point, with a span around every call.
struct StagedMatcher {
  const Graph& data;
  LabelDegreeIndex index;
  CpiBuilder cpi_maker;

  explicit StagedMatcher(const Graph& g) : data(g), index(g), cpi_maker(g) {}

  std::pair<uint64_t, bool> Run(const Graph& q, SpanLog& log, uint64_t request,
                                StagedTotals* totals) {
    const int32_t root = log.Open("query", request);
    auto span = [&](const char* name, auto&& fn) {
      const int32_t s = log.Open(name, request, root);
      fn();
      log.Close(s);
    };
    std::vector<VertexId> choices;
    span("decomp", [&] { choices = TwoCoreVertices(q); });
    if (choices.empty()) {
      choices.resize(q.NumVertices());
      std::iota(choices.begin(), choices.end(), 0);
    }
    VertexId tree_root = kInvalidVertex;
    span("cpi.root_select",
         [&] { tree_root = SelectRoot(q, data, index, choices); });
    CflDecomposition decomposition;
    BfsTree tree;
    span("decomp", [&] {
      decomposition = DecomposeCfl(q, tree_root);
      tree = BuildBfsTree(q, tree_root);
    });
    Cpi cpi;
    CpiBuildStats stats;
    span("cpi.build", [&] {
      cpi = cpi_maker.Build(q, tree, CpiStrategy::kRefined, &stats);
    });
    ++totals->queries;
    totals->candidate_entries += cpi.NumCandidateEntries();
    totals->generated += stats.TotalGenerated();
    uint64_t embeddings = 0;
    if (!cpi.HasEmptyCandidateSet()) {
      MatchingOrder order;
      span("order", [&] {
        order = ComputeMatchingOrder(q, cpi, decomposition,
                                     DecompositionMode::kCfl);
      });
      span("match.enumerate", [&] {
        Deadline deadline(0.0);
        EnumeratorState state(q.NumVertices(), data.NumVertices());
        LeafMatcher leaves(q, cpi, order.leaves);
        EnumeratePartial(data, cpi, order.steps, state, deadline, [&] {
          uint64_t count = 1;
          if (leaves.HasLeaves()) count = leaves.CountEmbeddings(data, state);
          embeddings = SaturatingAdd(embeddings, count);
          return embeddings < kCap;
        });
        totals->tried += state.candidates_tried;
        totals->bound += state.candidates_bound;
      });
    }
    log.Close(root);
    return {embeddings, embeddings >= kCap};
  }
};

// Spans around the serve-path helpers on the workload's own requests, the
// matcher rebind over its graph, and the fold of its batch sequence.
SpanLog ProbeLayers(const Inputs& in, uint64_t request_base, Outcome* outcome) {
  SpanLog log;
  uint64_t request = request_base;
  for (const Request& r : in.streams[0]) {
    const Graph& shape = in.shapes[r.shape];
    int32_t s = log.Open("serve.canonical_hash", ++request);
    const uint64_t a = serve::CanonicalQueryHash(r.graph);
    log.Close(s);
    outcome->Record(a == serve::CanonicalQueryHash(shape));
    s = log.Open("serve.isomorphism", ++request);
    const bool iso = serve::FindIsomorphism(r.graph, shape).has_value();
    log.Close(s);
    outcome->Record(iso);
    std::ostringstream wire;
    WriteGraph(r.graph, wire);
    std::istringstream body(wire.str());
    s = log.Open("graph.read_graph", ++request);
    const Graph parsed = ReadGraph(body);
    log.Close(s);
    outcome->Record(parsed.NumEdges() == r.graph.NumEdges());
  }
  for (uint32_t i = 0; i < kRebindProbes; ++i) {
    const int32_t s = log.Open("serve.rebind", ++request);
    CflMatcher matcher(in.graph);
    log.Close(s);
  }
  Graph base = in.graph;
  for (const std::vector<serve::UpdateOp>& batch : in.batches) {
    dyn::GraphDelta delta(base);
    bool ok = true;
    for (const serve::UpdateOp& op : batch) {
      ok = ok && (op.kind == serve::UpdateOp::Kind::kAddEdge
                      ? delta.AddEdge(op.u, op.v)
                      : delta.RemoveEdge(op.u, op.v));
    }
    outcome->Record(ok);
    const int32_t s = log.Open("dyn.fold", ++request);
    delta.Seal();
    Graph next = dyn::FoldDelta(base, delta);
    log.Close(s);
    base = std::move(next);
  }
  outcome->Record(base.NumEdges() == in.final_graph.NumEdges());
  return log;
}

// --- Watchdog -----------------------------------------------------------------

// Ends the process with a failure if a run outlives its time budget (a hung
// server would otherwise hold the benchmark past its limit).
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(kWatchdogS),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %.0f s\n",
                         kWatchdogS);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// --- Run ----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  // Relative to the working directory, which keeps it under the AF_UNIX
  // path limit.
  std::string socket = "perfbench-" + std::to_string(getpid()) + ".sock";
  std::string git_sha = "unknown";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return std::nullopt;
  }
  return a;
}

class Run {
 public:
  Run(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), origin_(Clock::now()) {}

  int Execute();

 private:
  void Emit(const std::string& name, double value, const std::string& unit,
            uint64_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  void EmitLatency(const std::string& prefix, const std::vector<double>& ms,
                   double high, const char* high_name);
  void EmitServeLayers(const std::vector<QuerySample>& samples,
                       const std::map<std::string, uint64_t>& before,
                       const std::map<std::string, uint64_t>& after);
  void EmitUpdateLayers(const std::vector<UpdateSample>& updates,
                        const std::map<std::string, uint64_t>& before,
                        const std::map<std::string, uint64_t>& after);
  void EmitStagedLayers(const Tracer& tracer, const StagedTotals& t);

  double SetupPrepareBound();
  double SetupServer(std::unique_ptr<ServerRun>* keep);
  void TimedPrepareBound();
  void TimedServe();
  void QuietUpdates(ServerRun& server);
  void CheckFinalGraph();
  void Probe();
  int Finish();

  const Args& args_;
  const WorkloadSpec& spec_;
  const Clock::time_point origin_;
  Inputs in_;
  std::vector<Reference> ref_;
  std::unique_ptr<GraphInput> graph_input_;
  Outcome outcome_;
  Tracer tracer_;
  std::vector<Metric> metrics_;
  std::vector<double> setup_s_;
  std::vector<double> query_ms_;
  double qps_ = 0.0;
  std::vector<UpdateSample> updates_;
  std::vector<QuerySample> warmup_;  // the last set-up's warm-up replies
  // prepare_bound's set-up products, used by its timed window.
  std::unique_ptr<Graph> data_;
  std::unique_ptr<CflMatcher> matcher_;
};

void Run::EmitLatency(const std::string& prefix, const std::vector<double>& ms,
                      double high, const char* high_name) {
  // The highest percentile reported needs ten samples beyond it, in every
  // chunk.
  const auto chunk = static_cast<size_t>(std::ceil(10.0 / (1.0 - high) - 1e-6));
  if (ms.size() < chunk) {
    std::fprintf(stderr, "perfbench: %zu samples are too few for %s\n",
                 ms.size(), high_name);
  }
  Emit(prefix + "_p50_ms", ChunkedPercentile(ms, 0.5, chunk), "ms", ms.size());
  Emit(prefix + "_" + high_name + "_ms", ChunkedPercentile(ms, high, chunk),
       "ms", ms.size());
}

double Run::SetupPrepareBound() {
  const Clock::time_point t0 = Clock::now();
  auto data = std::make_unique<Graph>(graph_input_->Build());
  auto matcher = std::make_unique<CflMatcher>(*data);
  MatchOptions options;
  options.limits.max_embeddings = kCap;
  for (size_t s = 0; s < in_.shapes.size(); ++s) {
    MatchResult r = matcher->Match(in_.shapes[s], options);
    outcome_.Record(MatchesReference(ref_[s], r.embeddings, r.reached_limit,
                                     r.timed_out));
  }
  const double seconds = MsBetween(t0, Clock::now()) / 1e3;
  matcher_ = std::move(matcher);
  data_ = std::move(data);
  return seconds;
}

double Run::SetupServer(std::unique_ptr<ServerRun>* keep) {
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<ServerRun>(graph_input_->Build(), args_.socket,
                                            spec_.churn);
  // A server that never came up fails every request of the run.
  outcome_.Record(server->WaitUp());
  // Warm-up pass: every shape once, which fills the plan cache.
  serve::ServeClient client;
  const bool connected = client.Connect(args_.socket);
  warmup_.assign(connected ? in_.shapes.size() : 0, QuerySample{});
  for (size_t s = 0; s < warmup_.size(); ++s) {
    outcome_.Record(
        SendQuery(client, in_.shapes[s], &ref_[s], &warmup_[s], nullptr, 0));
  }
  if (!connected) outcome_.Record(false);
  const double seconds = MsBetween(t0, Clock::now()) / 1e3;
  *keep = std::move(server);
  return seconds;
}

void Run::TimedPrepareBound() {
  MatchOptions options;
  options.limits.max_embeddings = kCap;
  const std::vector<Request>& stream = in_.streams[0];
  auto window = [&](double duration_s, bool traced) {
    SpanLog log;
    StagedMatcher staged(*data_);
    StagedTotals totals;
    std::vector<double> ms, done_s;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(duration_s));
    size_t i = 0;
    for (; Clock::now() < end; ++i) {
      const Request& r = stream[i % stream.size()];
      const Clock::time_point t0 = Clock::now();
      uint64_t embeddings = 0;
      bool reached = false, timed_out = false;
      if (traced) {
        std::tie(embeddings, reached) = staged.Run(r.graph, log, i, &totals);
      } else {
        MatchResult m = matcher_->Match(r.graph, options);
        embeddings = m.embeddings;
        reached = m.reached_limit;
        timed_out = m.timed_out;
      }
      const Clock::time_point t1 = Clock::now();
      ms.push_back(MsBetween(t0, t1));
      done_s.push_back(MsBetween(start, t1) / 1e3);
      outcome_.Record(
          MatchesReference(ref_[r.shape], embeddings, reached, timed_out));
    }
    const double qps = IntervalQps(std::move(done_s), duration_s);
    if (traced) {
      tracer_.Merge(std::move(log));
      EmitStagedLayers(tracer_, totals);
      Emit("trace.qps_delta", qps - qps_, "1/s", i);
    } else {
      qps_ = qps;
      query_ms_ = std::move(ms);
    }
  };
  window(args_.trace ? args_.seconds / 2 : args_.seconds, false);
  if (args_.trace) window(args_.seconds / 2, true);
}

void Run::EmitStagedLayers(const Tracer& tracer, const StagedTotals& t) {
  const double query_ms = tracer.SelfMsPerRequest("query");
  const double decomp = tracer.SelfMsPerRequest("decomp");
  const double root = tracer.SelfMsPerRequest("cpi.root_select");
  const double build = tracer.SelfMsPerRequest("cpi.build");
  const double order = tracer.SelfMsPerRequest("order");
  const double enumerate = tracer.SelfMsPerRequest("match.enumerate");
  const double total = query_ms + decomp + root + build + order + enumerate;
  Emit("decomp.ms", decomp, "ms", t.queries);
  Emit("cpi.root_select_ms", root, "ms", t.queries);
  Emit("cpi.build_ms", build, "ms", t.queries);
  Emit("cpi.candidates",
       static_cast<double>(t.candidate_entries) /
           static_cast<double>(std::max<uint64_t>(t.queries, 1)),
       "count", t.queries);
  Emit("cpi.survivor_ratio",
       t.generated > 0 ? static_cast<double>(t.candidate_entries) /
                             static_cast<double>(t.generated)
                       : 0.0,
       "ratio", t.queries);
  Emit("order.ms", order, "ms", t.queries);
  Emit("match.enumerate_ms", enumerate, "ms", t.queries);
  Emit("match.bound_ratio",
       t.tried > 0 ? static_cast<double>(t.bound) / static_cast<double>(t.tried)
                   : 0.0,
       "ratio", t.queries);
  Emit("prepare.share", total > 0.0 ? (decomp + root + build + order) / total
                                    : 0.0,
       "ratio", t.queries);
}

void Run::EmitServeLayers(const std::vector<QuerySample>& samples,
                          const std::map<std::string, uint64_t>& before,
                          const std::map<std::string, uint64_t>& after) {
  std::vector<double> server, transport, prepare, quota;
  for (const QuerySample& s : samples) {
    server.push_back(s.server_ms);
    transport.push_back(s.latency_ms - s.server_ms);
    if (s.miss) prepare.push_back(s.prepare_ms);
    quota.push_back(s.quota);
  }
  // Misses of the set-up warm-up count too: on serve_enum they are the only
  // prepares of the run.
  for (const QuerySample& s : warmup_) {
    if (s.miss) prepare.push_back(s.prepare_ms);
  }
  Emit("serve.server_ms", Mean(server), "ms", server.size());
  Emit("serve.transport_ms", Mean(transport), "ms", transport.size());
  Emit("serve.prepare_ms", Mean(prepare), "ms", prepare.size());
  Emit("parallel.quota", Mean(quota), "count", quota.size());
  const double hits = static_cast<double>(StatOf(after, "cache_hits") -
                                          StatOf(before, "cache_hits"));
  const double misses = static_cast<double>(StatOf(after, "cache_misses") -
                                            StatOf(before, "cache_misses"));
  Emit("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
       "ratio", static_cast<uint64_t>(hits + misses));
}

void Run::EmitUpdateLayers(const std::vector<UpdateSample>& updates,
                           const std::map<std::string, uint64_t>& before,
                           const std::map<std::string, uint64_t>& after) {
  std::vector<double> invalidated, dirty, late;
  for (const UpdateSample& u : updates) {
    invalidated.push_back(static_cast<double>(u.invalidated));
    dirty.push_back(u.dirty_labels);
    late.push_back(u.late_ms);
  }
  Emit("serve.invalidated_per_batch", Mean(invalidated), "count",
       updates.size());
  Emit("dyn.dirty_labels_per_batch", Mean(dirty), "count", updates.size());
  Emit("dyn.compactions",
       static_cast<double>(StatOf(after, "compactions") -
                           StatOf(before, "compactions")),
       "count", updates.size());
  Emit("loadgen.update_late_ms", Mean(late), "ms", updates.size());
}

void Run::TimedServe() {
  std::unique_ptr<ServerRun> server;
  for (uint32_t k = 0; k < (args_.trace ? 1u : kSetupRepeats); ++k) {
    server.reset();
    setup_s_.push_back(SetupServer(&server));
  }
  const std::map<std::string, uint64_t> start_stats = server->Stats();
  // serve_churn: the updater runs beside both query windows.
  std::thread updater;
  if (spec_.churn) {
    updater = std::thread([&] {
      updates_ = RunUpdates(args_.socket, in_, 1, kChurnBatchesPerS, &outcome_);
    });
  }
  const std::vector<Reference>* ref = spec_.churn ? nullptr : &ref_;
  WindowResult untraced =
      RunServeWindow(args_.socket, in_, ref,
                     args_.trace ? args_.seconds / 2 : args_.seconds, nullptr,
                     0, &outcome_);
  qps_ = untraced.Qps();
  for (const QuerySample& s : untraced.samples) query_ms_.push_back(s.latency_ms);
  if (args_.trace) {
    const std::map<std::string, uint64_t> before = server->Stats();
    WindowResult traced = RunServeWindow(args_.socket, in_, ref,
                                         args_.seconds / 2, &tracer_,
                                         1'000'000'000, &outcome_);
    const std::map<std::string, uint64_t> after = server->Stats();
    EmitServeLayers(traced.samples, before, after);
    Emit("trace.qps_delta", traced.Qps() - qps_, "1/s", traced.samples.size());
  }
  if (spec_.churn) {
    updater.join();
    const std::map<std::string, uint64_t> end_stats = server->Stats();
    outcome_.Record(StatOf(end_stats, "updates") == in_.batches.size());
    if (args_.trace) EmitUpdateLayers(updates_, start_stats, end_stats);
    CheckFinalGraph();
  } else {
    QuietUpdates(*server);
  }
}

// After the window (no concurrent queries): the update stream, closed loop,
// round robin over kQuietConnections connections. A connection's commits run
// on the server session thread that picked it up, and where that thread runs
// moves a one-millisecond commit by a tenth of a millisecond for as long as
// the connection lasts; several connections at once average that out. On
// prepare_bound this is the only server of the run.
void Run::QuietUpdates(ServerRun& server) {
  const std::map<std::string, uint64_t> before = server.Stats();
  updates_ = RunUpdates(args_.socket, in_, kQuietConnections, 0.0, &outcome_);
  const std::map<std::string, uint64_t> after = server.Stats();
  outcome_.Record(StatOf(after, "updates") - StatOf(before, "updates") ==
                  in_.batches.size());
  if (args_.trace) EmitUpdateLayers(updates_, before, after);
  CheckFinalGraph();
}

// Every shape against the reference on the benchmark's mirror of the final
// edge set.
void Run::CheckFinalGraph() {
  std::vector<Reference> final_ref = ComputeReference(in_.final_graph, in_.shapes);
  serve::ServeClient client;
  if (!client.Connect(args_.socket)) {
    outcome_.Record(false);
    return;
  }
  for (size_t s = 0; s < in_.shapes.size(); ++s) {
    QuerySample sample;
    const bool ok =
        SendQuery(client, in_.shapes[s], &final_ref[s], &sample, nullptr, 0);
    if (!ok) std::fprintf(stderr, "final check: shape %zu mismatched\n", s);
    outcome_.Record(ok);
  }
}

// Traced runs only: the staged pipeline on the served workloads' shapes, a
// miss-then-hit serve pass on prepare_bound, and the layer probes.
void Run::Probe() {
  if (spec_.served) {
    StagedMatcher staged(in_.graph);
    StagedTotals totals;
    SpanLog log;
    for (size_t s = 0; s < in_.shapes.size(); ++s) {
      auto [embeddings, reached] =
          staged.Run(in_.shapes[s], log, 2'000'000'000 + s, &totals);
      outcome_.Record(MatchesReference(ref_[s], embeddings, reached, false));
    }
    tracer_.Merge(std::move(log));
    EmitStagedLayers(tracer_, totals);
  }
  tracer_.Merge(ProbeLayers(in_, 3'000'000'000ULL, &outcome_));
  const uint64_t requests = in_.streams[0].size();
  Emit("serve.canonical_hash_us",
       tracer_.SelfMsPerRequest("serve.canonical_hash") * 1e3, "us", requests);
  Emit("serve.isomorphism_us",
       tracer_.SelfMsPerRequest("serve.isomorphism") * 1e3, "us", requests);
  Emit("graph.read_graph_us",
       tracer_.SelfMsPerRequest("graph.read_graph") * 1e3, "us", requests);
  Emit("serve.rebind_ms", tracer_.SelfMsPerRequest("serve.rebind"), "ms",
       kRebindProbes);
  Emit("dyn.fold_ms", tracer_.SelfMsPerRequest("dyn.fold"), "ms",
       in_.batches.size());
}

int Run::Execute() {
  const uint32_t batches =
      spec_.churn ? static_cast<uint32_t>(args_.seconds * kChurnBatchesPerS)
                  : spec_.quiet_batches;
  in_ = Generate(spec_, args_.seed, batches);
  ref_ = ComputeReference(in_.graph, in_.shapes);
  graph_input_ = std::make_unique<GraphInput>(in_.graph);

  if (spec_.served) {
    TimedServe();
  } else {
    for (uint32_t k = 0; k < (args_.trace ? 1u : kSetupRepeats); ++k) {
      setup_s_.push_back(SetupPrepareBound());
    }
    TimedPrepareBound();
    // The update stream, and on traced runs a miss-then-hit serve pass,
    // over a server on the same graph.
    ServerRun server(*data_, args_.socket, false);
    outcome_.Record(server.WaitUp());
    if (args_.trace) {
      // The stream's first two rounds hold every shape twice: a miss, then
      // a hit under another numbering.
      const std::map<std::string, uint64_t> before = server.Stats();
      std::vector<QuerySample> samples(2 * in_.shapes.size());
      serve::ServeClient client;
      outcome_.Record(client.Connect(args_.socket));
      for (size_t i = 0; i < samples.size(); ++i) {
        const Request& r = in_.streams[0][i];
        outcome_.Record(SendQuery(client, r.graph, &ref_[r.shape], &samples[i],
                                  nullptr, 0));
      }
      EmitServeLayers(samples, before, server.Stats());
    }
    QuietUpdates(server);
  }
  if (args_.trace) Probe();
  return Finish();
}

int Run::Finish() {
  if (!args_.trace) {
    Emit("setup_s", Percentile(setup_s_, 0.5), "s", setup_s_.size());
    Emit("qps", qps_, "1/s", query_ms_.size());
    EmitLatency("query", query_ms_, 0.99, "p99");
    std::vector<double> update_ms;
    for (const UpdateSample& u : updates_) update_ms.push_back(u.latency_ms);
    EmitLatency("update", update_ms, 0.95, "p95");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    Emit("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", 1);
  } else if (!args_.trace_out.empty()) {
    if (!tracer_.Write(args_.trace_out, origin_)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args_.trace_out.c_str());
    }
    std::printf("trace %zu spans written to %s\n", tracer_.NumSpans(),
                args_.trace_out.c_str());
  }

  const uint64_t attempted = outcome_.attempted.load();
  const uint64_t failed = outcome_.failed.load();
  const bool correct = failed == 0 && attempted > 0;
  std::printf("fail_ratio %.6g (%llu of %llu operations failed)\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics_) {
    std::printf("metric %-28s %14.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void PrintEnvironment(const Args& args, const WorkloadSpec& spec) {
  std::printf(
      "{\"env\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"isa\": \"%s\", \"cfl_stats\": %d, "
      "\"nproc\": %u, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"pool_seed\": %llu}}\n",
      args.git_sha.c_str(), CFL_PERFBENCH_BUILD_TYPE, __VERSION__,
      kernels::IsaName(kernels::ActiveIsa()), obs::kStatsEnabled ? 1 : 0,
      std::thread::hardware_concurrency(), spec.name.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, static_cast<unsigned long long>(kPoolSeed));
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = ParseArgs(argc, argv);
  std::optional<WorkloadSpec> spec =
      args.has_value() ? FindWorkload(args->workload) : std::nullopt;
  if (!spec.has_value()) {
    std::fprintf(stderr,
                 "usage: cfl_perfbench --workload "
                 "prepare_bound|serve_enum|serve_churn --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--git-sha SHA]\n");
    return 2;
  }
  Watchdog watchdog;
  PrintEnvironment(*args, *spec);
  Run run(*args, *spec);
  return run.Execute();
}
