#include "match/count_driver.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <utility>
#include <vector>

#include "check/check.h"
#include "check/narrow.h"
#include "check/thread_annotations.h"
#include "check/validate.h"
#include "match/enumerator.h"
#include "match/leaf_match.h"

namespace cfl {

namespace {

using obs::WallTimer;

// Saturating accumulate on the shared embedding budget: leaf-match products
// can individually saturate at kNoLimit, so a plain fetch_add could wrap.
// Returns the post-add value.
uint64_t AtomicSaturatingAdd(std::atomic<uint64_t>& total,
                             uint64_t delta) noexcept {
  uint64_t current = total.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = SaturatingAdd(current, delta);
  } while (!total.compare_exchange_weak(current, next,
                                        std::memory_order_relaxed));
  return next;
}

// The Prepare-side half of a result, shared by both drivers: plan timings,
// index size and stats copied from `prepared`. Returns false, with
// total_seconds final, when the plan has nothing to enumerate.
bool StartResult(const PreparedQuery& prepared, MatchResult& result) {
  result.build_seconds = prepared.build_seconds;
  result.order_seconds = prepared.order_seconds;
  result.index_entries = prepared.cpi.SizeInEntries();
  CFL_STATS_ONLY(result.stats = prepared.stats;)
  if (prepared.no_results || prepared.order.steps.empty()) {
    result.total_seconds = result.OrderingSeconds();
    return false;
  }
  return true;
}

uint32_t RootCount(const PreparedQuery& prepared) {
  return CheckedCandidateCount(
      prepared.cpi.Candidates(prepared.order.steps[0].u).size());
}

// The enumeration half of a result, once every shard has joined: per-shard
// counters summed and stats shards merged in shard order, and the tie-break
// every engine shares — reached_limit iff the cap was hit, independent of a
// simultaneous deadline expiry (both flags may be set).
void FinishResult(uint64_t embeddings, bool timed_out, uint64_t cap,
                  [[maybe_unused]] uint32_t root_count,
                  std::span<const uint64_t> tried,
                  std::span<const uint64_t> bound,
                  [[maybe_unused]] std::span<const EnumStats> shard_stats,
                  [[maybe_unused]] std::vector<uint64_t> roots_claimed,
                  double enumerate_seconds, MatchResult& result) {
  result.embeddings = embeddings;
  result.timed_out = timed_out;
  result.reached_limit = embeddings >= cap;
  for (size_t shard = 0; shard < tried.size(); ++shard) {
    result.candidates_tried += tried[shard];
    result.candidates_bound += bound[shard];
  }
  result.enumerate_seconds = enumerate_seconds;
  result.total_seconds = result.OrderingSeconds() + enumerate_seconds;
  CFL_STATS_ONLY({
    MatchStats& s = result.stats;
    s.enumerate_seconds = enumerate_seconds;
    for (const EnumStats& shard : shard_stats) s.enumeration.Merge(shard);
    s.candidates_tried = result.candidates_tried;
    s.candidates_bound = result.candidates_bound;
    s.embeddings_found = embeddings;
    s.threads = CheckedU32(tried.size());
    s.root_candidates = root_count;
    s.worker_roots_claimed = std::move(roots_claimed);
  })
}

}  // namespace

MatchResult CountMatches(const Graph& data, const Graph& query,
                         const PreparedQuery& prepared,
                         const MatchLimits& limits, uint32_t shards,
                         const ForkJoinFn& fork_join, obs::TimePoint start) {
  MatchResult result;
  if (!StartResult(prepared, result)) return result;
  const Cpi& cpi = prepared.cpi;
  const std::span<const MatchStep> steps(prepared.order.steps);

  WallTimer phase_timer;
  const uint32_t root_count = RootCount(prepared);
  shards = std::min(std::max(shards, 1u), std::max(root_count, 1u));
  // One shard takes the whole root range in one claim (and one
  // EnumeratePartial call); several claim one root at a time.
  const uint32_t chunk = shards == 1 ? root_count : 1;
  const uint64_t cap = limits.max_embeddings;
  const bool compressed = data.HasMultiplicities();

  // Shared across shards: atomics or const only (DESIGN.md §7). `total` is
  // the embedding budget, `stop` fans a cap hit out to every shard,
  // `next_root` is the work-stealing cursor.
  const Deadline shared_deadline(limits.time_limit_seconds, start);
  const bool expired = shared_deadline.Expired();
  std::atomic<uint32_t> next_root CFL_ATOMIC_INTENT(counter){0};
  std::atomic<uint64_t> total CFL_ATOMIC_INTENT(counter){0};
  std::atomic<bool> stop CFL_ATOMIC_INTENT(flag){expired};
  std::atomic<bool> timed_out CFL_ATOMIC_INTENT(flag){expired};

  // Per-shard slots: each shard writes only its own, the caller reads them
  // after the join.
  std::vector<uint64_t> tried(shards, 0);
  std::vector<uint64_t> bound(shards, 0);
  std::vector<EnumStats> shard_stats(shards);
  std::vector<uint64_t> roots_claimed(shards, 0);

  const std::function<void(uint32_t)> body = [&](uint32_t shard) {
    EnumeratorState state(query.NumVertices(), data.NumVertices());
    const LeafMatcher leaf_matcher(query, cpi, prepared.order.leaves);
    Deadline deadline = shared_deadline;

    auto visit = [&]() {
      uint64_t count = 1;
      if (compressed) {
        // Unmatched leaf entries are kInvalidVertex and skipped; the leaf
        // count below already accounts for leaf expansions.
        count = ExpansionFactor(data, state.mapping);
      }
      if (leaf_matcher.HasLeaves()) {
        // Leaf time is sampled (1 in kLeafSampleStride calls), not measured
        // per call: CountEmbeddings is the hottest call site and two clock
        // reads per visit would dominate it.
        CFL_STATS_ONLY(++state.stats.leaf_calls;
                       obs::TimePoint leaf_t0;
                       const bool sample = state.stats.ShouldSampleLeaf();
                       if (sample) leaf_t0 = obs::Now();)
        const uint64_t leaf_count = leaf_matcher.CountEmbeddings(data, state);
        CFL_STATS_ONLY(if (sample) {
          ++state.stats.leaf_sampled_calls;
          state.stats.leaf_sampled_seconds += obs::SecondsSince(leaf_t0);
        } state.stats.leaf_products =
              SaturatingAdd(state.stats.leaf_products, leaf_count);)
        count = SaturatingMul(count, leaf_count);
      }
      if (AtomicSaturatingAdd(total, count) >= cap) {
        stop.store(true, std::memory_order_relaxed);
        return false;
      }
      return !stop.load(std::memory_order_relaxed);
    };

    while (!stop.load(std::memory_order_relaxed)) {
      const uint32_t r = next_root.fetch_add(chunk, std::memory_order_relaxed);
      if (r >= root_count) break;
      CFL_STATS_ONLY(roots_claimed[shard] += std::min(chunk, root_count - r);)
      const EnumerateStatus status = EnumeratePartial(
          data, cpi, steps, state, deadline, visit, r, r + chunk);
      if (status == EnumerateStatus::kTimedOut) {
        timed_out.store(true, std::memory_order_relaxed);
        break;
      }
      if (status == EnumerateStatus::kStopped) break;
    }
    tried[shard] = state.candidates_tried;
    bound[shard] = state.candidates_bound;
    CFL_STATS_ONLY(shard_stats[shard] = state.stats;)
  };
  if (fork_join) {
    fork_join(shards, body);
  } else {
    for (uint32_t shard = 0; shard < shards; ++shard) body(shard);
  }

  FinishResult(total.load(std::memory_order_relaxed),
               timed_out.load(std::memory_order_relaxed), cap, root_count,
               tried, bound, shard_stats, std::move(roots_claimed),
               phase_timer.Lap(), result);
  return result;
}

MatchResult EnumerateMatches(const Graph& data, const Graph& query,
                             const PreparedQuery& prepared,
                             const MatchLimits& limits,
                             const EmbeddingCallback& on_embedding,
                             obs::TimePoint start) {
  MatchResult result;
  if (!StartResult(prepared, result)) return result;
  const Cpi& cpi = prepared.cpi;

  WallTimer phase_timer;
  const uint32_t root_count = RootCount(prepared);
  const uint64_t cap = limits.max_embeddings;
  const bool validate_embeddings = check::DebugValidationEnabled();
  Deadline deadline(limits.time_limit_seconds, start);
  EnumeratorState state(query.NumVertices(), data.NumVertices());
  const LeafMatcher leaf_matcher(query, cpi, prepared.order.leaves);
  uint64_t embeddings = 0;
  bool timed_out = deadline.Expired();
  // Like a lone counting shard, the run claims the whole root range at once
  // unless the deadline expired before it started.
  std::vector<uint64_t> roots_claimed(1, timed_out ? 0 : root_count);

  if (!timed_out) {
    auto emit = [&]() {
      ++embeddings;
      if (validate_embeddings) {
        ValidationResult r = ValidateEmbedding(query, data, state.mapping);
        CFL_CHECK(r.ok) << " — emitted embedding invalid: " << r.error;
      }
      return on_embedding(state.mapping) && embeddings < cap;
    };
    const EnumerateStatus status = EnumeratePartial(
        data, cpi, prepared.order.steps, state, deadline, [&]() {
          CFL_STATS_ONLY(
              if (leaf_matcher.HasLeaves()) ++state.stats.leaf_calls;)
          const EnumerateStatus leaf_status =
              leaf_matcher.EnumerateEmbeddings(data, state, deadline, emit);
          if (leaf_status == EnumerateStatus::kTimedOut) timed_out = true;
          return leaf_status == EnumerateStatus::kDone;
        });
    if (status == EnumerateStatus::kTimedOut) timed_out = true;
  }

  FinishResult(embeddings, timed_out, cap, root_count,
               {&state.candidates_tried, 1}, {&state.candidates_bound, 1},
               {&state.stats, 1}, std::move(roots_claimed), phase_timer.Lap(),
               result);
  return result;
}

}  // namespace cfl
