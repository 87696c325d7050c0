// The enumeration drivers: the one counting loop behind every counting
// engine — CflMatcher::Match (one shard, inline), ParallelCflMatcher and
// the server's QueryScheduler (several shards on a shared TaskPool) — and
// the one expansion loop behind every on_embedding caller (CflMatcher::Match
// with a callback, the server's STREAM mode through the scheduler).
//
// CountMatches runs Core-Match + Forest-Match (Algorithm 5) over a
// PreparedQuery and counts leaf completions on the fly as Cartesian
// products (Section 4.4).
// The PreparedQuery, the data graph and the query are shared *immutably*
// by reference; everything enumeration mutates (EnumeratorState, LeafMatcher
// scratch, the Deadline's tick cache) is private to a shard.
//
// Work partition: the search spaces of distinct root candidates are
// independent (Algorithm 5 backtracks to the root between them), so shards
// claim root positions from a shared atomic cursor — work stealing, so a
// skewed root pins only the shard that claimed it. A single shard claims the
// whole root range at once and enumerates it in one EnumeratePartial call.
//
// Early-stop semantics (the MatchLimits contract every engine shares):
//   * max_embeddings — one shared saturating running count; the shard whose
//     visit crosses the cap raises a stop flag every shard polls. The final
//     count may overshoot the cap by the last visit's leaf product; counts
//     are exact whenever the cap is not hit.
//   * time_limit_seconds — one deadline instant fixed before the fork and
//     checked once there (ExpiredCoarse reads the clock only every few
//     thousand ticks, so a run whose time was spent before the fork would
//     otherwise not notice); each shard polls a private copy.
//   * reached_limit iff the cap was hit, independent of a simultaneous
//     deadline expiry (both flags may be set) — cfl_difftest asserts every
//     engine classifies the photo finish the same way.
//
// Per-shard effort counters and stats shards are merged in shard order after
// the join. Without a cap or deadline hit the count and every
// order-independent counter are identical at any shard count.
//
// Expansion (EnumerateMatches) is the same search run as one shard on the
// calling thread, with leaf assignments expanded one at a time instead of
// counted: the paper's Algorithm 1 remark ("only one embedding is generated
// each time") met by a push callback — nothing beyond the O(|V(q)|) search
// state is ever materialized, and the callback stops the run by returning
// false. It shares the deadline rule, the result fields and the cap/deadline
// tie-break above, and its stats equal a one-shard count of the same query
// on plain graphs (on compressed graphs it emits compressed embeddings).

#ifndef CFL_MATCH_COUNT_DRIVER_H_
#define CFL_MATCH_COUNT_DRIVER_H_

#include <cstdint>
#include <functional>

#include "graph/graph.h"
#include "match/cfl_match.h"
#include "match/embedding.h"
#include "obs/clock.h"

namespace cfl {

// Runs body(shard) for every shard in [0, shards) and returns once all have
// returned. An empty ForkJoinFn runs the shards inline on the caller.
using ForkJoinFn = std::function<void(
    uint32_t shards, const std::function<void(uint32_t)>& body)>;

// Counts the embeddings of `prepared` (built from `query`) in `data` under
// `limits`, as min(shards, max(|C(root)|, 1)) shards forked through
// `fork_join`. The deadline counts from `start`, so a caller that queued the
// request first can charge the wait to it. Returns the Prepare-side fields
// and stats copied from `prepared` plus the enumeration half; total_seconds
// is the plan's build + order time plus this run's enumeration (callers that
// time the whole request overwrite it).
MatchResult CountMatches(const Graph& data, const Graph& query,
                         const PreparedQuery& prepared,
                         const MatchLimits& limits, uint32_t shards,
                         const ForkJoinFn& fork_join,
                         obs::TimePoint start = obs::Now());

// Expands every embedding of `prepared` (built from `query`) in `data` under
// `limits` into `on_embedding`, on the calling thread; the run stops once
// the callback returns false, max_embeddings callbacks have run, or the
// deadline (counting from `start`) expires. Returns the same fields and
// stats as CountMatches with one shard.
MatchResult EnumerateMatches(const Graph& data, const Graph& query,
                             const PreparedQuery& prepared,
                             const MatchLimits& limits,
                             const EmbeddingCallback& on_embedding,
                             obs::TimePoint start = obs::Now());

}  // namespace cfl

#endif  // CFL_MATCH_COUNT_DRIVER_H_
