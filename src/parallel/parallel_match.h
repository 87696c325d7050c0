// Parallel CFL-Match: the counting driver (match/count_driver.h) forked
// onto a private TaskPool.
//
// Prepare runs once; the driver then splits enumeration by root candidate
// into min(threads, |C(root)|) shards that claim roots from a shared atomic
// cursor. Counts are identical to the serial matcher at any thread count
// unless a cap or deadline cuts the run short. The shared structures
// (Graph, Cpi, PreparedQuery) carry CFL_IMMUTABLE_AFTER_BUILD and
// everything shared and mutable during a run is a std::atomic; Clang Thread
// Safety Analysis plus tools/cfl_analyze enforce both.

#ifndef CFL_PARALLEL_PARALLEL_MATCH_H_
#define CFL_PARALLEL_PARALLEL_MATCH_H_

#include <cstdint>
#include <memory>

#include "graph/graph.h"
#include "match/cfl_match.h"
#include "match/engine.h"
#include "parallel/task_pool.h"

namespace cfl {

class ParallelCflMatcher {
 public:
  // `threads` == 0 is clamped to 1; 1 is the serial matcher (no pool, no
  // worker threads).
  ParallelCflMatcher(const Graph& data, uint32_t threads);

  ParallelCflMatcher(const ParallelCflMatcher&) = delete;
  ParallelCflMatcher& operator=(const ParallelCflMatcher&) = delete;

  const Graph& data() const { return serial_.data(); }
  uint32_t threads() const { return threads_; }

  // Same contract as CflMatcher::Match. Counting mode (no on_embedding
  // callback) is parallelized; enumeration mode falls back to the serial
  // matcher, because the callback contract (sequential invocation, stop
  // semantics exact at the cap) cannot be honored from several workers.
  MatchResult Match(const Graph& q, const MatchOptions& options = {});

 private:
  CflMatcher serial_;  // Prepare pipeline + enumeration-mode fallback
  const uint32_t threads_;
  std::unique_ptr<TaskPool> pool_;  // null when threads_ == 1
};

// Engine wrapper for the benches, the difftest oracle, and the equivalence
// tests; named "CFL-Match-P<threads>".
std::unique_ptr<SubgraphEngine> MakeParallelCflMatch(const Graph& data,
                                                     uint32_t threads);

}  // namespace cfl

#endif  // CFL_PARALLEL_PARALLEL_MATCH_H_
