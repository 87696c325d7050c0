// CFL-Match: the paper's algorithm (Algorithm 1) and its ablation variants.
//
// Pipeline per query:
//   1. CFL-Decompose: 2-core peeling -> (V_C, V_T, V_I); root selection from
//      the core-set (A.6); BFS tree construction.
//   2. CPI-Construct: top-down construction + bottom-up refinement
//      (Algorithms 3-4), or the Naive / TD-only strategies for the
//      CFL-Match-Naive / CFL-Match-TD variants.
//   3. Matching order: greedy path ordering from the CPI cost model
//      (Algorithm 2), macro order (V_C, V_T, V_I).
//   4. Core-match + forest-match by CPI-based backtracking (Algorithm 5);
//      leaf-match by label-class/NEC counting (Section 4.4).
//
// `CflMatcher` holds only the CPI builder's scratch (Lemma 5.1's |V|-sized
// count array) beside the data graph, whose own indexes serve everything
// else, so it is cheap to build per graph snapshot and then serves any
// number of queries. It accepts compressed data graphs (vertex
// multiplicities, the [14] boost): counting mode is exact on them;
// enumeration mode emits compressed embeddings (each distinct expansion is
// counted, not emitted).

#ifndef CFL_MATCH_CFL_MATCH_H_
#define CFL_MATCH_CFL_MATCH_H_

#include <memory>

#include "check/thread_annotations.h"
#include "cpi/cpi_builder.h"
#include "decomp/cfl_decomposition.h"
#include "graph/graph.h"
#include "match/embedding.h"
#include "order/matching_order.h"

namespace cfl {

struct MatchOptions {
  MatchLimits limits;

  // Ablations (paper Section 6): kCfl = CFL-Match, kCoreForest = CF-Match,
  // kNone = Match.
  DecompositionMode decomposition = DecompositionMode::kCfl;

  // kRefined = CFL-Match, kTopDown = CFL-Match-TD, kNaive = CFL-Match-Naive.
  CpiStrategy cpi_strategy = CpiStrategy::kRefined;

  // Ordering ablation: Algorithm 2 (default) vs plain BFS path order.
  PathOrderingStrategy ordering = PathOrderingStrategy::kGreedyCost;

  // Optional: invoked per embedding. Forces full enumeration of leaf
  // assignments (instead of the on-the-fly Cartesian-product counting), so
  // it is slower when leaves dominate; leave unset for counting workloads.
  EmbeddingCallback on_embedding;
};

// Everything `Match` computes before enumeration starts: decomposition,
// BFS tree, CPI, and matching order (steps 1-3 of the pipeline above).
// Once built, a PreparedQuery is immutable and reads only const state of
// the data graph, so one instance can be shared by reference across any
// number of concurrent enumeration shards (see match/count_driver.h).
// The marker makes tools/cfl_analyze reject mutations sneaking in as methods,
// mutable members, or const_cast (rule `immutable-class`); workers must
// treat the public fields as read-only after Prepare returns.
struct PreparedQuery {
  CFL_IMMUTABLE_AFTER_BUILD(PreparedQuery);

  CflDecomposition decomposition;
  BfsTree tree;
  Cpi cpi;
  MatchingOrder order;  // empty when `no_results` is set

  // Some candidate set is empty: the query has no embeddings and the
  // ordering/enumeration stages were skipped.
  bool no_results = false;

  double build_seconds = 0.0;  // CPI construction time
  double order_seconds = 0.0;  // matching-order computation time

  // Prepare-side half of the execution stats (obs/stats.h): decomposition /
  // CPI / ordering phase timers and per-vertex candidate accounting. Match
  // copies this into MatchResult::stats and adds the enumeration half.
  MatchStats stats;
};

class CflMatcher {
 public:
  explicit CflMatcher(const Graph& data);

  CflMatcher(const CflMatcher&) = delete;
  CflMatcher& operator=(const CflMatcher&) = delete;

  const Graph& data() const { return data_; }

  // Extracts (counts, or enumerates via options.on_embedding) all subgraph
  // isomorphic embeddings of `q` in the data graph, subject to limits.
  MatchResult Match(const Graph& q, const MatchOptions& options = {});

  // Runs the pre-enumeration pipeline only (decomposition, root selection,
  // CPI construction, matching order). `Match` is exactly Prepare followed
  // by enumeration; the parallel matcher and the server call Prepare once
  // and count over the shared result from several shards. Not thread-safe:
  // the CPI builder's scratch is reused across calls.
  PreparedQuery Prepare(const Graph& q, const MatchOptions& options = {});

 private:
  const Graph& data_;
  CpiBuilder cpi_builder_;
};

}  // namespace cfl

#endif  // CFL_MATCH_CFL_MATCH_H_
