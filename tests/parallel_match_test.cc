// Parallel enumeration layer: task-pool semantics and serial-vs-parallel
// equivalence of the root-partitioned matcher across thread counts, with
// and without embedding caps, deadlines, and compressed data graphs.

#include "parallel/parallel_match.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/compress.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "match/cfl_match.h"
#include "parallel/task_pool.h"
#include "test_util.h"

namespace cfl {
namespace {

const uint32_t kThreadCounts[] = {1, 2, 4, 8};

// ---- TaskPool + ForkJoin -----------------------------------------------

TEST(TaskPoolTest, RunsEverySubmittedTask) {
  TaskPool pool(4);
  constexpr uint32_t kTasks = 100;
  std::atomic<uint32_t> ran{0};
  TaskLatch latch(kTasks);
  for (uint32_t i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      ran.fetch_add(1, std::memory_order_relaxed);
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(TaskPoolTest, DrainsQueueOnDestruction) {
  std::atomic<uint32_t> ran{0};
  {
    TaskPool pool(1);  // single worker: tasks queue up
    for (uint32_t i = 0; i < 50; ++i) {
      pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor must run all 50, not drop the queue
  EXPECT_EQ(ran.load(), 50u);
}

TEST(TaskPoolTest, ForkJoinIsABarrierAndReusable) {
  TaskPool pool(4);
  for (uint32_t n : {1u, 3u, 4u, 9u}) {
    std::vector<std::atomic<uint32_t>> hits(n);
    for (auto& h : hits) h = 0;
    std::atomic<uint64_t> sum{0};
    ForkJoin(pool, n, [&](uint32_t i) {
      ASSERT_LT(i, n);
      ++hits[i];
      sum.fetch_add(1);
    });
    // Every index ran exactly once, and all of it is visible on return.
    EXPECT_EQ(sum.load(), n);
    for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1u) << "i=" << i;
  }
}

// A throwing task must fail fast with its message, never unwind into the
// worker loop or strand a ForkJoin caller on its latch.
TEST(TaskPoolDeathTest, ThrowingTaskFailsFastWithMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TaskPool pool(4);
        ForkJoin(pool, 4, [](uint32_t i) {
          if (i == 2) throw std::runtime_error("shard boom");
        });
      },
      "TaskPool task threw.*shard boom");
}

// ---- Serial vs parallel equivalence -------------------------------------

uint64_t SerialCount(const Graph& data, const Graph& q,
                     const MatchLimits& limits = {}) {
  CflMatcher matcher(data);
  MatchOptions options;
  options.limits = limits;
  return matcher.Match(q, options).embeddings;
}

TEST(ParallelMatchTest, Figure3CountsAtAllThreadCounts) {
  Graph g = testing::Figure3Data();
  Graph q = testing::Figure3Query();
  for (uint32_t threads : kThreadCounts) {
    ParallelCflMatcher matcher(g, threads);
    MatchResult r = matcher.Match(q);
    EXPECT_EQ(r.embeddings, 3u) << "threads=" << threads;
    EXPECT_FALSE(r.timed_out);
    EXPECT_FALSE(r.reached_limit);
  }
}

TEST(ParallelMatchTest, SyntheticCountsMatchSerial) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SyntheticOptions data_opt;
    data_opt.num_vertices = 300;
    data_opt.average_degree = 5.0;
    data_opt.num_labels = 4;
    data_opt.seed = seed;
    Graph g = MakeSynthetic(data_opt);

    QueryGenOptions query_opt;
    query_opt.num_vertices = 8;
    query_opt.sparse = (seed % 2 == 0);
    query_opt.seed = seed;
    Graph q = GenerateQuery(g, query_opt);

    const uint64_t expected = SerialCount(g, q);
    for (uint32_t threads : kThreadCounts) {
      ParallelCflMatcher matcher(g, threads);
      MatchResult r = matcher.Match(q);
      EXPECT_EQ(r.embeddings, expected)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_FALSE(r.timed_out);
    }
  }
}

TEST(ParallelMatchTest, EmbeddingCapClampedCountsMatchSerial) {
  SyntheticOptions data_opt;
  data_opt.num_vertices = 300;
  data_opt.average_degree = 6.0;
  data_opt.num_labels = 3;
  data_opt.seed = 11;
  Graph g = MakeSynthetic(data_opt);

  QueryGenOptions query_opt;
  query_opt.num_vertices = 6;
  query_opt.seed = 11;
  Graph q = GenerateQuery(g, query_opt);

  // A cap well below the full count: both engines must stop at it. Counts
  // may overshoot by the last leaf product, so compare clamped values —
  // exactly how the difftest oracle compares engines.
  const uint64_t full = SerialCount(g, q);
  ASSERT_GT(full, 50u) << "fixture too small for a meaningful cap";
  MatchLimits limits;
  limits.max_embeddings = 50;
  const uint64_t serial = std::min(SerialCount(g, q, limits), limits.max_embeddings);

  for (uint32_t threads : kThreadCounts) {
    ParallelCflMatcher matcher(g, threads);
    MatchOptions options;
    options.limits = limits;
    MatchResult r = matcher.Match(q, options);
    EXPECT_EQ(std::min(r.embeddings, limits.max_embeddings), serial)
        << "threads=" << threads;
    EXPECT_TRUE(r.reached_limit) << "threads=" << threads;
  }
}

TEST(ParallelMatchTest, ExpiringDeadlineReportsTimeout) {
  // Clique-on-clique: far too much work for a microsecond deadline; every
  // thread count must cut off and report timed_out without corrupting
  // state or deadlocking at the barrier.
  GraphBuilder qb(8);
  for (VertexId a = 0; a < 8; ++a) {
    for (VertexId b = a + 1; b < 8; ++b) qb.AddEdge(a, b);
  }
  Graph q = std::move(qb).Build();
  GraphBuilder gb(64);
  for (VertexId a = 0; a < 64; ++a) {
    for (VertexId b = a + 1; b < 64; ++b) gb.AddEdge(a, b);
  }
  Graph g = std::move(gb).Build();

  MatchLimits limits;
  limits.time_limit_seconds = 1e-6;
  for (uint32_t threads : kThreadCounts) {
    ParallelCflMatcher matcher(g, threads);
    MatchOptions options;
    options.limits = limits;
    MatchResult r = matcher.Match(q, options);
    EXPECT_TRUE(r.timed_out) << "threads=" << threads;
    EXPECT_FALSE(r.reached_limit);
  }
}

TEST(ParallelMatchTest, CompressedGraphCountsMatchSerial) {
  // Compression introduces multiplicities, exercising the ExpansionFactor
  // path of the parallel visitor.
  Graph plain = testing::Figure7Data();
  Graph q = testing::Figure7Query();
  CompressedGraph compressed = CompressBySE(plain);
  const uint64_t expected = SerialCount(compressed.graph, q);
  EXPECT_EQ(expected, SerialCount(plain, q));  // compression is exact
  for (uint32_t threads : kThreadCounts) {
    ParallelCflMatcher matcher(compressed.graph, threads);
    EXPECT_EQ(matcher.Match(q).embeddings, expected) << "threads=" << threads;
  }
}

TEST(ParallelMatchTest, EnumerationCallbackFallsBackToSerial) {
  Graph g = testing::Figure3Data();
  Graph q = testing::Figure3Query();
  ParallelCflMatcher matcher(g, 4);
  std::vector<Embedding> seen;
  MatchOptions options;
  options.on_embedding = [&](const Embedding& m) {
    seen.push_back(m);
    return true;
  };
  MatchResult r = matcher.Match(q, options);
  EXPECT_EQ(r.embeddings, 3u);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ParallelMatchTest, EngineWrapperNameAndLimits) {
  Graph g = testing::Figure3Data();
  std::unique_ptr<SubgraphEngine> engine = MakeParallelCflMatch(g, 2);
  EXPECT_EQ(engine->name(), "CFL-Match-P2");
  MatchLimits limits;
  limits.max_embeddings = 1;
  MatchResult r = engine->Run(testing::Figure3Query(), limits);
  EXPECT_GE(r.embeddings, 1u);
  EXPECT_TRUE(r.reached_limit);
}

}  // namespace
}  // namespace cfl
