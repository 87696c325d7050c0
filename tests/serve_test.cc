// Tests for the serving stack (ISSUE 7): canonical query hashing, the
// plan/CPI cache, the shared-pool scheduler, the wire protocol, and the
// socket server end to end.

#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dyn/delta.h"
#include "gen/query_gen.h"
#include "gen/rng.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "match/cfl_match.h"
#include "match/count_driver.h"
#include "serve/canonical.h"
#include "serve/client.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "test_util.h"

namespace cfl {
namespace {

using serve::CanonicalQueryHash;
using serve::FindIsomorphism;
using serve::PlanCache;
using testing::Figure3Data;
using testing::Figure3Query;

// A plan cache entry shares its representative query graph.
std::shared_ptr<const Graph> Share(const Graph& q) {
  return std::make_shared<const Graph>(q);
}

// Random vertex renumbering of `q` — the workload the canonical hash must
// collapse.
Graph Relabel(const Graph& q, Rng& rng) {
  const uint32_t n = q.NumVertices();
  std::vector<VertexId> perm(n);
  for (VertexId v = 0; v < n; ++v) perm[v] = v;
  for (uint32_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) builder.SetLabel(perm[v], q.label(v));
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : q.Neighbors(v)) {
      if (u > v) builder.AddEdge(perm[v], perm[u]);
    }
  }
  return std::move(builder).Build();
}

// on_embedding callback collecting every embedding into `out`, translated
// to the caller's numbering through `remap` (caller vertex -> plan vertex,
// as in PlanCache::Hit) when one is given: the reference sets that streamed
// replies are checked against.
EmbeddingCallback CollectInto(std::set<Embedding>* out,
                              std::vector<VertexId> remap = {}) {
  return [out, remap = std::move(remap)](const Embedding& m) {
    Embedding translated = m;
    for (VertexId u = 0; u < remap.size(); ++u) translated[u] = m[remap[u]];
    out->insert(std::move(translated));
    return true;
  };
}

Graph TestData() {
  SyntheticOptions options;
  options.num_vertices = 120;
  options.average_degree = 5.0;
  options.num_labels = 4;
  options.seed = 99;
  return MakeSynthetic(options);
}

std::vector<Graph> TestQueries(const Graph& data, uint32_t count,
                               uint32_t size, uint64_t seed) {
  return GenerateQuerySet(data, count, size, /*sparse=*/true, seed);
}

// ---- canonical hash -----------------------------------------------------

TEST(CanonicalTest, HashInvariantUnderRelabeling) {
  Graph data = TestData();
  Rng rng(7);
  // Property sweep: every relabeling of every generated query shares the
  // original's hash, and FindIsomorphism recovers a certified mapping.
  for (const Graph& q : TestQueries(data, 12, 8, 3)) {
    const uint64_t hash = CanonicalQueryHash(q);
    for (int rep = 0; rep < 4; ++rep) {
      Graph relabeled = Relabel(q, rng);
      EXPECT_EQ(CanonicalQueryHash(relabeled), hash);
      auto iso = FindIsomorphism(relabeled, q);
      ASSERT_TRUE(iso.has_value());
      // Certify: bijective, label-preserving, edge-preserving.
      std::set<VertexId> image(iso->begin(), iso->end());
      EXPECT_EQ(image.size(), q.NumVertices());
      for (VertexId v = 0; v < relabeled.NumVertices(); ++v) {
        EXPECT_EQ(relabeled.label(v), q.label((*iso)[v]));
        for (VertexId u : relabeled.Neighbors(v)) {
          EXPECT_TRUE(q.HasEdge((*iso)[v], (*iso)[u]));
        }
      }
    }
  }
}

TEST(CanonicalTest, HashSeparatesDifferentQueries) {
  Graph data = TestData();
  std::vector<Graph> queries = TestQueries(data, 16, 8, 11);
  std::map<uint64_t, const Graph*> by_hash;
  for (const Graph& q : queries) {
    auto [it, fresh] = by_hash.emplace(CanonicalQueryHash(q), &q);
    // Equal hashes are only acceptable for actually-isomorphic queries.
    if (!fresh) {
      EXPECT_TRUE(FindIsomorphism(q, *it->second).has_value());
    }
  }
  // The sweep must not degenerate into one bucket.
  EXPECT_GT(by_hash.size(), 8u);
}

TEST(CanonicalTest, RejectsNonIsomorphic) {
  // Same degree sequence and labels, different structure: path vs triangle
  // plus isolated-ish tail. P4 (path on 4) vs K3+K1 have different degree
  // multisets; use C4 vs P4 with uniform labels instead — C4 is 2-regular,
  // P4 is not, WL separates them; also test same-WL-seed label mismatch.
  Graph c4 = MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Graph p4 = MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_FALSE(FindIsomorphism(c4, p4).has_value());
  EXPECT_NE(CanonicalQueryHash(c4), CanonicalQueryHash(p4));

  Graph labeled = MakeGraph({0, 1, 0, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_FALSE(FindIsomorphism(c4, labeled).has_value());
  EXPECT_NE(CanonicalQueryHash(c4), CanonicalQueryHash(labeled));
}

// ---- plan cache ---------------------------------------------------------

TEST(PlanCacheTest, IsomorphicRelabelsShareOneEntry) {
  Graph data = TestData();
  CflMatcher matcher(data);
  PlanCache cache(64ull << 20);
  Graph q = TestQueries(data, 1, 8, 21)[0];

  EXPECT_EQ(cache.Find(q).plan, nullptr);  // cold
  auto plan = cache.Insert(Share(q), matcher.Prepare(q));
  ASSERT_NE(plan, nullptr);

  Rng rng(5);
  for (int rep = 0; rep < 3; ++rep) {
    Graph relabeled = Relabel(q, rng);
    PlanCache::Hit hit = cache.Find(relabeled);
    ASSERT_NE(hit.plan, nullptr);
    EXPECT_EQ(hit.plan.get(), plan.get());  // the same shared entry
    EXPECT_EQ(hit.remap.size(), q.NumVertices());
  }
  serve::PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PlanCacheTest, CacheHitResultsAreBitIdenticalToColdPrepare) {
  Graph data = TestData();
  CflMatcher matcher(data);
  PlanCache cache(64ull << 20);
  Rng rng(31);

  for (const Graph& q : TestQueries(data, 6, 8, 41)) {
    auto inserted = cache.Insert(Share(q), matcher.Prepare(q));
    ASSERT_NE(inserted, nullptr);
    Graph relabeled = Relabel(q, rng);
    PlanCache::Hit hit = cache.Find(relabeled);
    ASSERT_NE(hit.plan, nullptr);

    // Cold path: prepare `relabeled` from scratch and stream everything.
    std::set<Embedding> cold;
    MatchOptions options;
    options.on_embedding = CollectInto(&cold);
    matcher.Match(relabeled, options);
    // Cached path: stream from the shared plan (the *representative*'s
    // numbering) and translate through the hit's remap.
    std::set<Embedding> cached;
    EnumerateMatches(data, *hit.representative, *hit.plan, {},
                     CollectInto(&cached, hit.remap));
    EXPECT_EQ(cached, cold);
  }
}

TEST(PlanCacheTest, EvictsLruUnderTinyByteBudget) {
  Graph data = TestData();
  CflMatcher matcher(data);
  std::vector<Graph> queries = TestQueries(data, 6, 8, 61);

  // Size one plan, then budget for roughly two of them.
  PlanCache probe(1ull << 30);
  probe.Insert(Share(queries[0]), matcher.Prepare(queries[0]));
  const uint64_t one_plan = probe.Stats().bytes;
  ASSERT_GT(one_plan, 0u);

  PlanCache cache(one_plan * 2 + one_plan / 2);
  for (const Graph& q : queries) {
    cache.Insert(Share(q), matcher.Prepare(q));
  }
  serve::PlanCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, cache.max_bytes());
  EXPECT_LT(stats.entries, queries.size());
  // LRU: the most recently inserted query must still be resident.
  EXPECT_NE(cache.Find(queries.back()).plan, nullptr);

  // A plan bigger than the whole budget is served uncached.
  PlanCache tiny(1);
  EXPECT_NE(tiny.Insert(Share(queries[0]), matcher.Prepare(queries[0])),
            nullptr);
  EXPECT_EQ(tiny.Stats().entries, 0u);
}

TEST(PlanCacheTest, InvalidateLabelsDropsOnlyIntersectingEntries) {
  Graph data = TestData();
  CflMatcher matcher(data);
  PlanCache cache(64ull << 20);

  // Two cached plans with disjoint label signatures.
  Graph q01 = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  Graph q23 = MakeGraph({2, 3, 2}, {{0, 1}, {1, 2}});
  ASSERT_NE(cache.Insert(Share(q01), matcher.Prepare(q01)), nullptr);
  ASSERT_NE(cache.Insert(Share(q23), matcher.Prepare(q23)), nullptr);
  ASSERT_EQ(cache.Stats().entries, 2u);

  // A batch that dirtied label 3 must drop exactly the {2,3} plan.
  dyn::DirtyLabels dirty;
  dirty.labels = {3};
  EXPECT_EQ(cache.InvalidateLabels(dirty, 1), 1u);
  EXPECT_NE(cache.Find(q01).plan, nullptr);
  EXPECT_EQ(cache.Find(q23).plan, nullptr);
  serve::PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.evictions, 0u);  // invalidation is not LRU pressure

  // A clean batch drops nothing.
  dyn::DirtyLabels clean;
  clean.labels = {7};
  EXPECT_EQ(cache.InvalidateLabels(clean, 2), 0u);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

// A plan prepared against an epoch that a commit has since superseded is
// handed back uncached, whatever its labels: that commit's invalidation
// pass ran before the plan existed, so it may describe dirtied labels.
TEST(PlanCacheTest, InsertOlderThanLastCommitIsNotCached) {
  Graph data = TestData();
  CflMatcher matcher(data);
  PlanCache cache(64ull << 20);
  Graph q01 = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  Graph q23 = MakeGraph({2, 3, 2}, {{0, 1}, {1, 2}});

  dyn::DirtyLabels dirty;
  dirty.labels = {7};  // disjoint from both queries
  EXPECT_EQ(cache.InvalidateLabels(dirty, 3), 0u);

  std::shared_ptr<const PreparedQuery> stale =
      cache.Insert(Share(q01), matcher.Prepare(q01), 2);
  ASSERT_NE(stale, nullptr);  // still returned for its own query
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Find(q01).plan, nullptr);

  // Plans prepared at (or after) the committed epoch are cached.
  ASSERT_NE(cache.Insert(Share(q23), matcher.Prepare(q23), 3), nullptr);
  PlanCache::Hit hit = cache.Find(q23);
  ASSERT_NE(hit.plan, nullptr);
  EXPECT_EQ(hit.epoch, 3u);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(PlanCacheTest, ZeroBudgetDisablesCaching) {
  Graph data = TestData();
  CflMatcher matcher(data);
  PlanCache cache(0);
  EXPECT_FALSE(cache.enabled());
  Graph q = TestQueries(data, 1, 8, 71)[0];
  auto plan = cache.Insert(Share(q), matcher.Prepare(q));
  ASSERT_NE(plan, nullptr);  // pass-through still returns the plan
  EXPECT_EQ(cache.Find(q).plan, nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

// ---- scheduler ----------------------------------------------------------

TEST(SchedulerTest, ClampsLimitsToServerBudgets) {
  // The scheduler holds no graph; limits clamping is pure options logic.
  serve::SchedulerOptions options;
  options.workers = 2;
  options.max_time_limit_seconds = 5.0;
  options.max_embeddings = 1000;
  serve::QueryScheduler scheduler(options);

  MatchLimits unlimited;  // the dangerous request: no limits at all
  MatchLimits clamped = scheduler.ClampLimits(unlimited);
  EXPECT_DOUBLE_EQ(clamped.time_limit_seconds, 5.0);
  EXPECT_EQ(clamped.max_embeddings, 1000u);

  MatchLimits tighter;
  tighter.time_limit_seconds = 0.5;
  tighter.max_embeddings = 10;
  clamped = scheduler.ClampLimits(tighter);
  EXPECT_DOUBLE_EQ(clamped.time_limit_seconds, 0.5);  // tighter wins
  EXPECT_EQ(clamped.max_embeddings, 10u);
}

TEST(SchedulerTest, CountsMatchSerialEngine) {
  Graph data = TestData();
  CflMatcher matcher(data);
  serve::SchedulerOptions options;
  options.workers = 3;
  serve::QueryScheduler scheduler(options);

  for (const Graph& q : TestQueries(data, 8, 8, 81)) {
    MatchResult serial = matcher.Match(q);
    PreparedQuery prepared = matcher.Prepare(q);
    uint32_t quota = 0;
    MatchResult served =
        scheduler.Execute(data, q, prepared, MatchLimits{}, &quota);
    EXPECT_EQ(served.embeddings, serial.embeddings);
    EXPECT_FALSE(served.reached_limit);
    EXPECT_FALSE(served.timed_out);
    EXPECT_GE(quota, 1u);
    EXPECT_LE(quota, options.workers);
  }
}

TEST(SchedulerTest, ConcurrentQueriesInterleaveCorrectly) {
  Graph data = TestData();
  CflMatcher matcher(data);
  std::vector<Graph> queries = TestQueries(data, 6, 8, 91);
  std::vector<uint64_t> expected;
  std::vector<PreparedQuery> prepared;
  for (const Graph& q : queries) {
    expected.push_back(matcher.Match(q).embeddings);
    prepared.push_back(matcher.Prepare(q));
  }

  serve::SchedulerOptions options;
  options.workers = 4;
  options.max_concurrent_queries = 3;  // force admission waits
  serve::QueryScheduler scheduler(options);

  std::atomic<uint32_t> failures{0};
  std::vector<std::thread> sessions;
  sessions.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    sessions.emplace_back([&, i] {
      for (int rep = 0; rep < 3; ++rep) {
        MatchResult r =
            scheduler.Execute(data, queries[i], prepared[i], MatchLimits{});
        if (r.embeddings != expected[i]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(scheduler.ActiveQueries(), 0u);
}

// The server path reports the same MatchStats as the serial matcher: the
// Prepare-side half from the plan, the enumeration half from the driver.
TEST(SchedulerTest, StatsMatchSerialEngine) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Graph data = TestData();
  CflMatcher matcher(data);
  serve::SchedulerOptions options;
  options.workers = 3;
  serve::QueryScheduler scheduler(options);

  uint64_t total_embeddings = 0;
  for (const Graph& q : TestQueries(data, 8, 8, 83)) {
    MatchResult serial = matcher.Match(q);
    PreparedQuery prepared = matcher.Prepare(q);
    MatchResult served = scheduler.Execute(data, q, prepared, MatchLimits{});
    const MatchStats& a = serial.stats;
    const MatchStats& b = served.stats;
    ASSERT_TRUE(b.recorded);
    EXPECT_EQ(obs::CheckStatsInvariants(b, served.embeddings,
                                        served.total_seconds),
              "");
    EXPECT_EQ(b.embeddings_found, a.embeddings_found);
    EXPECT_EQ(b.candidates_tried, a.candidates_tried);
    EXPECT_EQ(b.candidates_bound, a.candidates_bound);
    EXPECT_EQ(b.cpi_candidate_entries, a.cpi_candidate_entries);
    EXPECT_EQ(b.cpi_adjacency_entries, a.cpi_adjacency_entries);
    EXPECT_EQ(b.cpi_candidates_per_vertex, a.cpi_candidates_per_vertex);
    total_embeddings += served.embeddings;
  }
  EXPECT_GT(total_embeddings, 0u) << "fixture finds nothing to count";
}

// The time limit counts from arrival: a query that waits for admission
// longer than its limit times out, even though its own enumeration would
// finish long before the limit.
TEST(SchedulerTest, DeadlineCoversAdmissionWait) {
  Graph data = TestData();
  CflMatcher matcher(data);
  Graph q = TestQueries(data, 1, 8, 81)[0];
  PreparedQuery prepared = matcher.Prepare(q);
  ASSERT_FALSE(prepared.no_results);

  serve::SchedulerOptions options;
  options.workers = 2;
  options.max_concurrent_queries = 1;
  serve::QueryScheduler scheduler(options);

  std::atomic<bool> holding{false};
  std::thread holder([&] {
    serve::AdmissionTicket ticket(scheduler);  // the only slot
    holding.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  while (!holding.load()) std::this_thread::yield();

  MatchResult result;
  std::thread waiter([&] {
    MatchLimits limits;
    limits.time_limit_seconds = 0.05;
    result = scheduler.Execute(data, q, prepared, limits);
  });
  waiter.join();
  holder.join();
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(scheduler.ActiveQueries(), 0u);
}

// ---- protocol -----------------------------------------------------------

TEST(ProtocolTest, RequestHeaderRoundTrip) {
  serve::RequestHeader header;
  header.kind = serve::RequestKind::kQuery;
  header.mode = serve::QueryMode::kStream;
  header.limits.max_embeddings = 500;
  header.limits.time_limit_seconds = 2.5;

  std::string error;
  auto parsed =
      serve::ParseRequestHeader(serve::FormatRequestHeader(header), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->kind, serve::RequestKind::kQuery);
  EXPECT_EQ(parsed->mode, serve::QueryMode::kStream);
  EXPECT_EQ(parsed->limits.max_embeddings, 500u);
  EXPECT_DOUBLE_EQ(parsed->limits.time_limit_seconds, 2.5);

  EXPECT_FALSE(serve::ParseRequestHeader("FROB", &error).has_value());
  EXPECT_FALSE(serve::ParseRequestHeader("QUERY mode=banana", &error)
                   .has_value());
  EXPECT_FALSE(serve::ParseRequestHeader("QUERY max=0", &error).has_value());
}

TEST(ProtocolTest, OversizeRequestLineIsRejectedBeforeParsing) {
  std::string line = "QUERY mode=count ";
  line.append(serve::kMaxRequestLineBytes, 'x');
  std::string error;
  EXPECT_FALSE(serve::ParseRequestHeader(line, &error).has_value());
  EXPECT_NE(error.find("request line exceeds"), std::string::npos) << error;
  // Exactly at the cap is still legal input (it fails on content, with a
  // content error, proving the size gate let it through).
  std::string at_cap(serve::kMaxRequestLineBytes, 'y');
  EXPECT_FALSE(serve::ParseRequestHeader(at_cap, &error).has_value());
  EXPECT_EQ(error.find("request line exceeds"), std::string::npos) << error;
}

TEST(ProtocolTest, ResultLineRoundTrip) {
  serve::QueryOutcome outcome;
  outcome.embeddings = 42;
  outcome.reached_limit = true;
  outcome.timed_out = false;
  outcome.cache = serve::QueryOutcome::Cache::kHit;
  outcome.prepare_ms = 1.5;
  outcome.enum_ms = 2.25;
  outcome.total_ms = 4.0;
  outcome.quota = 3;

  std::string error;
  auto parsed =
      serve::ParseResultLine(serve::FormatResultLine(outcome), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->embeddings, 42u);
  EXPECT_TRUE(parsed->reached_limit);
  EXPECT_FALSE(parsed->timed_out);
  EXPECT_EQ(parsed->cache, serve::QueryOutcome::Cache::kHit);
  EXPECT_EQ(parsed->quota, 3u);

  Embedding emb = {4, 0, 7};
  auto round = serve::ParseEmbeddingLine(serve::FormatEmbeddingLine(emb));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, emb);
}

TEST(ProtocolTest, UpdateOpAndUpdatedLineRoundTrip) {
  using serve::UpdateOp;
  const UpdateOp ops[] = {
      {UpdateOp::Kind::kAddVertex, 3, 0},
      {UpdateOp::Kind::kRemoveVertex, 17, 0},
      {UpdateOp::Kind::kAddEdge, 4, 9},
      {UpdateOp::Kind::kRemoveEdge, 9, 4},
  };
  for (const UpdateOp& op : ops) {
    std::string error;
    auto parsed = serve::ParseUpdateOp(serve::FormatUpdateOp(op), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->kind, op.kind);
    EXPECT_EQ(parsed->u, op.u);
    EXPECT_EQ(parsed->v, op.v);
  }
  std::string error;
  EXPECT_FALSE(serve::ParseUpdateOp("xy 1 2", &error).has_value());
  EXPECT_FALSE(serve::ParseUpdateOp("ae 1", &error).has_value());
  EXPECT_FALSE(serve::ParseUpdateOp("av 1 2", &error).has_value());
  EXPECT_FALSE(serve::ParseUpdateOp("ae 1 99999999999", &error).has_value());

  serve::UpdateOutcome outcome;
  outcome.epoch = 7;
  outcome.added_vertices = 1;
  outcome.removed_vertices = 2;
  outcome.added_edges = 3;
  outcome.removed_edges = 4;
  outcome.dirty_labels = 5;
  outcome.invalidated = 6;
  outcome.retained = 8;
  auto parsed =
      serve::ParseUpdatedLine(serve::FormatUpdatedLine(outcome), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->epoch, 7u);
  EXPECT_EQ(parsed->added_vertices, 1u);
  EXPECT_EQ(parsed->removed_vertices, 2u);
  EXPECT_EQ(parsed->added_edges, 3u);
  EXPECT_EQ(parsed->removed_edges, 4u);
  EXPECT_EQ(parsed->dirty_labels, 5u);
  EXPECT_EQ(parsed->invalidated, 6u);
  EXPECT_EQ(parsed->retained, 8u);
}

// ---- server end to end --------------------------------------------------

std::string TestSocketPath(const char* tag) {
  return "/tmp/cfl_serve_test_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

class ServerFixture {
 public:
  explicit ServerFixture(const Graph& data, serve::ServeOptions options)
      : options_(std::move(options)), server_(data, options_) {
    thread_ = std::thread([this] { server_.Serve(); });
    serve::ServeClient probe;
    for (int attempt = 0; attempt < 300; ++attempt) {
      if (probe.Connect(options_.socket_path) && probe.Ping()) return;
      usleep(10'000);
    }
    ADD_FAILURE() << "server did not come up";
  }

  ~ServerFixture() {
    server_.RequestShutdown();
    thread_.join();
    unlink(options_.socket_path.c_str());
  }

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  serve::ServeOptions options_;
  serve::QueryServer server_;
  std::thread thread_;
};

TEST(QueryServerTest, CountStreamStatsShutdown) {
  Graph data = Figure3Data();
  Graph q = Figure3Query();
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("basic");
  options.workers = 2;
  options.sessions = 2;
  {
    ServerFixture fixture(data, options);
    serve::ServeClient client;
    ASSERT_TRUE(client.Connect(fixture.socket_path()));
    ASSERT_TRUE(client.Ping());

    serve::ServeClient::Reply count = client.Count(q);
    ASSERT_TRUE(count.ok) << count.error;
    EXPECT_EQ(count.outcome.embeddings, 3u);
    EXPECT_EQ(count.outcome.cache, serve::QueryOutcome::Cache::kMiss);

    // Second time around: served from the plan cache.
    count = client.Count(q);
    ASSERT_TRUE(count.ok) << count.error;
    EXPECT_EQ(count.outcome.embeddings, 3u);
    EXPECT_EQ(count.outcome.cache, serve::QueryOutcome::Cache::kHit);

    serve::ServeClient::Reply stream = client.Stream(q);
    ASSERT_TRUE(stream.ok) << stream.error;
    EXPECT_EQ(stream.embeddings.size(), 3u);
    std::set<Embedding> streamed(stream.embeddings.begin(),
                                 stream.embeddings.end());
    std::set<Embedding> direct;
    MatchOptions direct_options;
    direct_options.on_embedding = CollectInto(&direct);
    CflMatcher(data).Match(q, direct_options);
    EXPECT_EQ(streamed, direct);

    std::map<std::string, uint64_t> stats = client.Stats();
    EXPECT_EQ(stats["queries"], 3u);
    EXPECT_EQ(stats["cache_hits"], 2u);  // count #2 and the stream
    EXPECT_EQ(stats["cache_misses"], 1u);

    // The connection stays usable after a whole exchange.
    ASSERT_TRUE(client.Ping());
    EXPECT_TRUE(client.Shutdown());
  }
}

TEST(QueryServerTest, StreamedRelabeledQueryIsRemappedToClientNumbering) {
  Graph data = TestData();
  Graph q = TestQueries(data, 1, 6, 17)[0];
  Rng rng(23);
  Graph relabeled = Relabel(q, rng);

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("remap");
  options.workers = 2;
  ServerFixture fixture(data, options);
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(fixture.socket_path()));

  // Warm the cache with q, then stream the relabeled twin: the EMB lines
  // must be valid embeddings of *relabeled*, not of q.
  ASSERT_TRUE(client.Count(q).ok);
  serve::ServeClient::Reply reply = client.Stream(relabeled);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.outcome.cache, serve::QueryOutcome::Cache::kHit);

  std::set<Embedding> expected;
  MatchOptions expected_options;
  expected_options.on_embedding = CollectInto(&expected);
  CflMatcher(data).Match(relabeled, expected_options);
  std::set<Embedding> streamed(reply.embeddings.begin(),
                               reply.embeddings.end());
  EXPECT_EQ(streamed, expected);
}

// Raw byte-level connection for driving the protocol off the happy path —
// the ServeClient only speaks well-formed exchanges.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

TEST(QueryServerTest, MalformedRequestsGetErrAndConnectionStaysUsable) {
  Graph data = Figure3Data();
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("err");
  options.workers = 2;
  ServerFixture fixture(data, options);
  RawConn conn(fixture.socket_path());
  ASSERT_TRUE(conn.ok());

  // Every ERR names the problem, and none of them poisons the connection.
  std::string line;
  ASSERT_TRUE(conn.Send("FROB\n"));
  ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_EQ(line, "ERR unknown request 'FROB'");

  ASSERT_TRUE(conn.Send("QUERY mode=banana\n"));
  ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_EQ(line, "ERR bad mode 'banana'");

  ASSERT_TRUE(conn.Send("QUERY max=0\n"));
  ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_EQ(line, "ERR bad max '0'");

  ASSERT_TRUE(conn.Send("QUERY mode=count frob=1\n"));
  ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_EQ(line, "ERR unknown QUERY option 'frob'");

  // A well-formed header with a garbage graph body: the body is drained to
  // END first, so the ERR leaves the stream aligned on request boundaries.
  ASSERT_TRUE(conn.Send("QUERY mode=count\nnot a graph line\nEND\n"));
  ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR bad query graph:", 0), 0u) << line;

  ASSERT_TRUE(conn.Send("PING\n"));
  ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_EQ(line, "PONG");

  // The errors counter saw all five.
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(fixture.socket_path()));
  EXPECT_EQ(client.Stats()["errors"], 5u);
}

TEST(QueryServerTest, OversizeRequestLineGetsErrNotUnboundedBuffering) {
  Graph data = Figure3Data();
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("oversize");
  ServerFixture fixture(data, options);
  RawConn conn(fixture.socket_path());
  ASSERT_TRUE(conn.ok());

  std::string big = "QUERY mode=count ";
  big.append(2 * serve::kMaxRequestLineBytes, 'x');
  big += '\n';
  ASSERT_TRUE(conn.Send(big));
  std::string line;
  ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_EQ(line.rfind("ERR request line exceeds", 0), 0u) << line;

  ASSERT_TRUE(conn.Send("PING\n"));
  ASSERT_TRUE(conn.ReadLine(&line));
  EXPECT_EQ(line, "PONG");
}

TEST(QueryServerTest, UnterminatedByteFloodDropsOnlyThatConnection) {
  Graph data = Figure3Data();
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("flood");
  ServerFixture fixture(data, options);
  RawConn hostile(fixture.socket_path());
  ASSERT_TRUE(hostile.ok());

  // > 1 MiB with no newline: the session's read buffer cap kicks in and the
  // server hangs up on this peer. The send itself may fail part-way with
  // EPIPE once the server closes — that is the expected outcome, not an
  // error, so its return value is deliberately unchecked.
  std::string flood(64 * 1024, 'z');
  for (int i = 0; i < 40; ++i) {
    if (!hostile.Send(flood)) break;
  }
  std::string line;
  EXPECT_FALSE(hostile.ReadLine(&line));  // EOF: dropped without a reply

  // The server itself is unharmed and keeps serving everyone else.
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(fixture.socket_path()));
  EXPECT_TRUE(client.Ping());
}

TEST(QueryServerTest, MidRequestDisconnectLeavesServerServing) {
  Graph data = Figure3Data();
  Graph q = Figure3Query();
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("disco");
  options.workers = 2;
  options.sessions = 2;
  ServerFixture fixture(data, options);

  {
    // Vanish mid-QUERY, after the header but before END.
    RawConn conn(fixture.socket_path());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.Send("QUERY mode=count\nt 2 1\nv 0 0\n"));
  }  // destructor closes the socket

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(fixture.socket_path()));
  ASSERT_TRUE(client.Ping());
  serve::ServeClient::Reply count = client.Count(q);
  ASSERT_TRUE(count.ok) << count.error;
  EXPECT_EQ(count.outcome.embeddings, 3u);
}

TEST(QueryServerTest, ConcurrentMixedQueriesMatchSerialEngine) {
  Graph data = TestData();
  std::vector<Graph> queries = TestQueries(data, 6, 8, 101);
  CflMatcher matcher(data);
  std::vector<uint64_t> expected;
  for (const Graph& q : queries) expected.push_back(matcher.Match(q).embeddings);

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("mixed");
  options.workers = 4;
  options.sessions = 4;
  ServerFixture fixture(data, options);

  std::atomic<uint32_t> failures{0};
  std::vector<std::thread> clients;
  Rng seed_rng(3);
  for (uint32_t c = 0; c < 4; ++c) {
    uint64_t client_seed = seed_rng.Next64();
    clients.emplace_back([&, client_seed] {
      Rng rng(client_seed);
      serve::ServeClient client;
      if (!client.Connect(fixture.socket_path())) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          // Every client sends its own relabeling: same logical query,
          // different numbering — the cache's bread and butter.
          Graph relabeled = Relabel(queries[i], rng);
          serve::ServeClient::Reply reply = client.Count(relabeled);
          if (!reply.ok || reply.outcome.embeddings != expected[i]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

// ---- dynamic updates over the wire --------------------------------------

// Two label-disjoint clusters: A = labels {0,1} (vertices 0..3, a path),
// B = labels {2,3} (vertices 4..7, a path). Updates confined to B can
// never dirty a plan whose query labels live in A.
Graph TwoClusterData() {
  return MakeGraph({0, 1, 0, 1, 2, 3, 2, 3},
                   {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}});
}

Graph EdgeQuery(Label a, Label b) {
  return MakeGraph({a, b}, {{0, 1}});
}

TEST(QueryServerTest, UpdateInvalidatesExactlyAffectedPlans) {
  Graph data = TwoClusterData();
  Graph qa = EdgeQuery(0, 1);  // 3 embeddings: edges (0,1) (1,2) (2,3)
  Graph qb = EdgeQuery(2, 3);  // 3 embeddings: edges (4,5) (5,6) (6,7)

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("update");
  options.workers = 2;
  ServerFixture fixture(data, options);
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(fixture.socket_path()));

  // Warm both plans.
  serve::ServeClient::Reply reply = client.Count(qa);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.outcome.embeddings, 3u);
  reply = client.Count(qb);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.outcome.embeddings, 3u);
  EXPECT_EQ(client.Stats()["cache_entries"], 2u);

  // One new edge inside cluster B: only qb's plan may die.
  serve::ServeClient::UpdateReply update = client.Update(
      {{serve::UpdateOp::Kind::kAddEdge, 4, 7}});
  ASSERT_TRUE(update.ok) << update.error;
  EXPECT_EQ(update.outcome.epoch, 1u);
  EXPECT_EQ(update.outcome.added_edges, 1u);
  EXPECT_EQ(update.outcome.invalidated, 1u);
  EXPECT_EQ(update.outcome.retained, 1u);
  EXPECT_LE(update.outcome.dirty_labels, 2u);  // subset of {2,3}

  // The surviving {0,1} plan is served from cache AND still answers
  // correctly on the new epoch — the invalidation-soundness claim.
  reply = client.Count(qa);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.outcome.cache, serve::QueryOutcome::Cache::kHit);
  EXPECT_EQ(reply.outcome.embeddings, 3u);

  // The dirtied plan was dropped: re-prepared, and sees the new edge.
  reply = client.Count(qb);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.outcome.cache, serve::QueryOutcome::Cache::kMiss);
  EXPECT_EQ(reply.outcome.embeddings, 4u);

  std::map<std::string, uint64_t> stats = client.Stats();
  EXPECT_EQ(stats["updates"], 1u);
  EXPECT_EQ(stats["cache_invalidations"], 1u);
  EXPECT_EQ(stats["epoch"], 1u);
}

TEST(QueryServerTest, RejectedUpdateBatchAppliesNothing) {
  Graph data = TwoClusterData();
  Graph qb = EdgeQuery(2, 3);

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("reject");
  options.workers = 2;
  ServerFixture fixture(data, options);
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(fixture.socket_path()));

  // Valid op followed by an invalid one (edge (4,5) already exists): the
  // whole batch must be rejected atomically.
  serve::ServeClient::UpdateReply update = client.Update(
      {{serve::UpdateOp::Kind::kAddEdge, 4, 7},
       {serve::UpdateOp::Kind::kAddEdge, 4, 5}});
  EXPECT_FALSE(update.ok);
  EXPECT_NE(update.error.find("update rejected"), std::string::npos)
      << update.error;

  serve::ServeClient::Reply reply = client.Count(qb);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.outcome.embeddings, 3u);  // the valid op did not land
  EXPECT_EQ(client.Stats()["epoch"], 0u);

  // The connection is still usable and a well-formed batch still commits.
  update = client.Update({{serve::UpdateOp::Kind::kAddEdge, 4, 7}});
  ASSERT_TRUE(update.ok) << update.error;
  EXPECT_EQ(update.outcome.epoch, 1u);
}

TEST(QueryServerTest, ConcurrentQueriesAndUpdatesKeepInvariants) {
  // Churn cluster B with edge-swap batches whose *net* embedding count is
  // constant: {ae 4 7, re 5 6} and its inverse both leave exactly three
  // (l2,l3) edges. Any torn (non-atomic) view would count 2 or 4; any
  // wrongly surviving stale plan on cluster A would miscount A. Queries
  // run concurrently with the updates the whole time.
  Graph data = TwoClusterData();
  Graph qa = EdgeQuery(0, 1);
  Graph qb = EdgeQuery(2, 3);

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("churn");
  options.workers = 4;
  options.sessions = 4;
  ServerFixture fixture(data, options);

  constexpr int kBatches = 30;
  std::atomic<bool> done{false};
  std::atomic<uint32_t> failures{0};

  std::thread updater([&] {
    serve::ServeClient client;
    if (!client.Connect(fixture.socket_path())) {
      failures.fetch_add(1);
      done.store(true);
      return;
    }
    for (int i = 0; i < kBatches; ++i) {
      std::vector<serve::UpdateOp> batch;
      if (i % 2 == 0) {
        batch = {{serve::UpdateOp::Kind::kAddEdge, 4, 7},
                 {serve::UpdateOp::Kind::kRemoveEdge, 5, 6}};
      } else {
        batch = {{serve::UpdateOp::Kind::kRemoveEdge, 4, 7},
                 {serve::UpdateOp::Kind::kAddEdge, 5, 6}};
      }
      serve::ServeClient::UpdateReply reply = client.Update(batch);
      if (!reply.ok) failures.fetch_add(1);
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      serve::ServeClient client;
      if (!client.Connect(fixture.socket_path())) {
        failures.fetch_add(1);
        return;
      }
      const Graph& q = (r == 0) ? qa : qb;
      while (!done.load(std::memory_order_relaxed)) {
        serve::ServeClient::Reply reply = client.Count(q);
        // Both clusters always hold exactly three matching edges — for A
        // because updates never touch it, for B because every batch is
        // count-preserving and must be observed atomically.
        if (!reply.ok || reply.outcome.embeddings != 3u) {
          failures.fetch_add(1);
        }
      }
    });
  }
  updater.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(fixture.socket_path()));
  std::map<std::string, uint64_t> stats = client.Stats();
  EXPECT_EQ(stats["updates"], static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats["epoch"], static_cast<uint64_t>(kBatches));
}

TEST(QueryServerTest, ConcurrentUpdatersAllCommit) {
  // Two UPDATE sessions churn disjoint clusters at once. Each acquires the
  // snapshot and builds its delta inside the commit lock, so neither can
  // build on an epoch the other is about to supersede, and every batch
  // commits first time. Every batch is a count-preserving swap (A:
  // {ae 0 3, re 1 2} and its inverse; B: as in the test above), so a
  // reader counting both clusters meanwhile must see exactly three
  // matching edges in each, every time. Isolated label-4 padding leaves
  // every count alone but makes each fold O(|V|) under the commit lock, so
  // the two sessions really contend for it.
  const Graph clusters = TwoClusterData();
  const VertexId n = clusters.NumVertices();
  GraphBuilder builder(n + 100000);
  for (VertexId v = 0; v < n + 100000; ++v) builder.SetLabel(v, 4);
  for (VertexId v = 0; v < n; ++v) {
    builder.SetLabel(v, clusters.label(v));
    for (VertexId w : clusters.Neighbors(v)) {
      if (w > v) builder.AddEdge(v, w);
    }
  }
  Graph data = std::move(builder).Build();
  Graph qa = EdgeQuery(0, 1);
  Graph qb = EdgeQuery(2, 3);

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("updaters");
  options.workers = 2;
  options.sessions = 4;
  ServerFixture fixture(data, options);

  constexpr int kBatches = 20;  // per updater
  std::atomic<int> updaters_done{0};
  std::atomic<uint32_t> failures{0};

  using Kind = serve::UpdateOp::Kind;
  auto churn = [&](VertexId a, VertexId b, VertexId c, VertexId d) {
    serve::ServeClient client;
    if (client.Connect(fixture.socket_path())) {
      for (int i = 0; i < kBatches; ++i) {
        std::vector<serve::UpdateOp> batch;
        if (i % 2 == 0) {
          batch = {{Kind::kAddEdge, a, d}, {Kind::kRemoveEdge, b, c}};
        } else {
          batch = {{Kind::kRemoveEdge, a, d}, {Kind::kAddEdge, b, c}};
        }
        serve::ServeClient::UpdateReply reply = client.Update(batch);
        if (!reply.ok) failures.fetch_add(1);
      }
    } else {
      failures.fetch_add(1);
    }
    updaters_done.fetch_add(1);
  };
  std::thread updater_a(churn, 0, 1, 2, 3);
  std::thread updater_b(churn, 4, 5, 6, 7);

  std::thread reader([&] {
    serve::ServeClient client;
    if (!client.Connect(fixture.socket_path())) {
      failures.fetch_add(1);
      return;
    }
    while (updaters_done.load(std::memory_order_relaxed) < 2) {
      for (const Graph* q : {&qa, &qb}) {
        serve::ServeClient::Reply reply = client.Count(*q);
        if (!reply.ok || reply.outcome.embeddings != 3u) {
          failures.fetch_add(1);
        }
      }
    }
  });
  updater_a.join();
  updater_b.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0u);

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(fixture.socket_path()));
  std::map<std::string, uint64_t> stats = client.Stats();
  EXPECT_EQ(stats["updates"], static_cast<uint64_t>(2 * kBatches));
  EXPECT_EQ(stats["epoch"], static_cast<uint64_t>(2 * kBatches));
}

// A cache miss prepares on its own session thread under no server lock:
// while one session prepares a slow query, an UPDATE and another session's
// miss both complete. The data graph is TwoClusterData plus a random
// label-5 padding component; the slow query is a label-5 cycle with a
// chord, whose CPI spans most of the padding, while the update and the
// quick miss stay in the clusters. The plan cache is off so every query
// prepares: the slow query is timed alone first, and the concurrent pair
// starts a quarter of that time into its second run.
TEST(QueryServerTest, SlowMissDelaysNeitherUpdateNorOtherMiss) {
  constexpr VertexId kPad = 20000;
  const Graph clusters = TwoClusterData();
  const VertexId n = clusters.NumVertices();
  GraphBuilder builder(n + kPad);
  for (VertexId v = 0; v < n; ++v) {
    builder.SetLabel(v, clusters.label(v));
    for (VertexId w : clusters.Neighbors(v)) {
      if (w > v) builder.AddEdge(v, w);
    }
  }
  Rng rng(77);
  for (VertexId v = n; v < n + kPad; ++v) {
    builder.SetLabel(v, 5);
    for (int e = 0; e < 8; ++e) {
      const VertexId w = n + static_cast<VertexId>(rng.Below(kPad));
      if (w != v) builder.AddEdge(v, w);
    }
  }
  Graph data = std::move(builder).Build();
  Graph slow = MakeGraph({5, 5, 5, 5, 5, 5, 5, 5},
                         {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                          {6, 7}, {7, 0}, {0, 4}});
  MatchLimits first;
  first.max_embeddings = 1;

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("slowmiss");
  options.workers = 2;
  options.sessions = 4;
  options.cache_bytes = 0;
  ServerFixture fixture(data, options);

  serve::ServeClient slow_client;
  ASSERT_TRUE(slow_client.Connect(fixture.socket_path()));
  const auto start = std::chrono::steady_clock::now();
  serve::ServeClient::Reply alone = slow_client.Count(slow, first);
  ASSERT_TRUE(alone.ok) << alone.error;
  const auto slow_alone = std::chrono::steady_clock::now() - start;

  std::atomic<bool> slow_done{false};
  std::thread slow_thread([&] {
    serve::ServeClient::Reply reply = slow_client.Count(slow, first);
    EXPECT_TRUE(reply.ok) << reply.error;
    slow_done.store(true);
  });
  std::this_thread::sleep_for(slow_alone / 4);
  bool update_beat_slow = false;
  bool miss_beat_slow = false;
  std::thread updater([&] {
    serve::ServeClient client;
    ASSERT_TRUE(client.Connect(fixture.socket_path()));
    serve::ServeClient::UpdateReply reply =
        client.Update({{serve::UpdateOp::Kind::kAddEdge, 4, 7}});
    update_beat_slow = !slow_done.load();
    EXPECT_TRUE(reply.ok) << reply.error;
  });
  std::thread other_miss([&] {
    serve::ServeClient client;
    ASSERT_TRUE(client.Connect(fixture.socket_path()));
    serve::ServeClient::Reply reply = client.Count(EdgeQuery(0, 1));
    miss_beat_slow = !slow_done.load();
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.outcome.embeddings, 3u);
  });
  updater.join();
  other_miss.join();
  slow_thread.join();
  EXPECT_TRUE(update_beat_slow);
  EXPECT_TRUE(miss_beat_slow);
}

// A stream's deadline counts from arrival, like a count's: time queued
// behind another query is charged to it. And a streamer that vanishes
// mid-stream frees its admission slot: the failed write stops its run.
TEST(QueryServerTest, StreamDeadlineCoversAdmissionAndVanishedStreamFreesSlot) {
  constexpr VertexId kLeaves = 40;
  GraphBuilder builder(kLeaves + 1);
  builder.SetLabel(0, 0);
  for (VertexId v = 1; v <= kLeaves; ++v) {
    builder.SetLabel(v, 1);
    builder.AddEdge(0, v);
  }
  Graph data = std::move(builder).Build();

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("streamslot");
  options.workers = 2;
  options.max_concurrent_queries = 1;
  ServerFixture fixture(data, options);
  serve::ServeClient observer;
  ASSERT_TRUE(observer.Connect(fixture.socket_path()));

  // A streams hub + 4 leaves (40*39*38*37 embeddings) and never reads, so
  // its session blocks writing EMB lines while holding the only slot.
  auto hog = std::make_unique<RawConn>(fixture.socket_path());
  ASSERT_TRUE(hog->ok());
  ASSERT_TRUE(hog->Send(
      "QUERY mode=stream\nt 5 4\nv 0 0\nv 1 1\nv 2 1\nv 3 1\nv 4 1\n"
      "e 0 1\ne 0 2\ne 0 3\ne 0 4\nEND\n"));
  for (int attempt = 0; attempt < 500 && observer.Stats()["active"] != 1;
       ++attempt) {
    usleep(1'000);
  }
  ASSERT_EQ(observer.Stats()["active"], 1u);

  // B queues behind A with a 50 ms limit on a query that would otherwise
  // finish at once.
  serve::ServeClient::Reply reply;
  std::thread streamer([&] {
    serve::ServeClient client;
    if (!client.Connect(fixture.socket_path())) return;
    MatchLimits limits;
    limits.time_limit_seconds = 0.05;
    reply = client.Stream(EdgeQuery(0, 1), limits);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  hog.reset();  // A vanishes; its blocked write fails and frees the slot
  streamer.join();

  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_TRUE(reply.outcome.timed_out);
  EXPECT_TRUE(reply.embeddings.empty());
  EXPECT_EQ(reply.outcome.embeddings, 0u);

  serve::ServeClient::Reply count = observer.Count(EdgeQuery(0, 1));
  ASSERT_TRUE(count.ok) << count.error;
  EXPECT_EQ(count.outcome.embeddings, kLeaves);
  EXPECT_FALSE(count.outcome.timed_out);
}

}  // namespace
}  // namespace cfl
