// Execution statistics: phase timers and pruning/search counters.
//
// The paper's evaluation (Section 6) reasons in internal quantities —
// candidate-set sizes, CPI space, pruning power of the bottom-up refinement,
// the split between ordering and enumeration time — that end-to-end wall
// time cannot expose. MatchStats records them per Match call:
//
//   * Phase timers: consecutive laps of one monotonic WallTimer
//     (decomposition, CPI top-down / bottom-up / adjacency build, ordering,
//     enumeration), so their sum is <= total wall time by construction.
//   * Prepare-side counters: candidates generated and pruned per query
//     vertex and filter round (top-down backward pass vs bottom-up
//     refinement), final CPI candidate/adjacency arena sizes. These obey
//     the accounting identity
//         generated[u] - pruned_backward[u] - pruned_bottomup[u]
//             == |C(u)|
//     which tests/stats_test.cc checks on randomized inputs.
//   * Enumeration-side counters (EnumStats): backward-edge probes and how
//     many were answered by a hub bitmap, injectivity/backward rejects,
//     partial embeddings discarded, deepest bound prefix, core+forest
//     embeddings visited, leaf-match calls and counted leaf products.
//     Recorded into the worker-private EnumeratorState (the thread-local
//     shard) and merged into MatchStats at the join barrier, so recording
//     itself is never contended.
//   * Per-shard root-claim counts of the counting driver: without a cap or
//     deadline their sum equals the root candidate count exactly (each root
//     is claimed once), at any shard count.
//
// Compile-time gate: configure with -DCFL_STATS=OFF and every recording
// site (all wrapped in CFL_STATS_ONLY) compiles to nothing — the hot path
// is bit-identical to a build without the subsystem. The struct fields
// remain so MatchResult consumers need no #ifdefs; they just stay zero.
// With stats ON the recording is plain private-field increments; measured
// enumeration overhead on bench_micro is within the 5% budget DESIGN.md §8
// documents.
//
// Exception: leaf-match timing. CountEmbeddings runs once per core+forest
// embedding — the hottest call in the matcher — so timing every call would
// blow the overhead budget on leaf-light queries. It is instead *sampled*
// (every 64th call is timed) and `LeafSecondsEstimate` extrapolates; the
// estimate is explicitly not part of the phase-sum identity.

#ifndef CFL_OBS_STATS_H_
#define CFL_OBS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.h"

// Compile-time gate, set to 0 by -DCFL_STATS=OFF (see the top-level
// CMakeLists). Default ON.
#ifndef CFL_STATS_ENABLED
#define CFL_STATS_ENABLED 1
#endif

// Wraps every recording statement; expands to nothing when stats are
// compiled out, so disabled builds carry no stats code at all.
#if CFL_STATS_ENABLED
#define CFL_STATS_ONLY(...) __VA_ARGS__
#else
#define CFL_STATS_ONLY(...)
#endif

namespace cfl {

namespace obs {
inline constexpr bool kStatsEnabled = CFL_STATS_ENABLED != 0;

// Leaf-match timing sample stride (power of two): one in kLeafSampleStride
// CountEmbeddings calls is timed.
inline constexpr uint32_t kLeafSampleStride = 64;
}  // namespace obs

// Enumeration-side counters. One instance lives in each EnumeratorState, so
// in parallel runs every worker records into its own shard; MatchStats
// merges the shards after the join barrier (no torn counters: nothing reads
// a shard while its worker still runs).
struct EnumStats {
  uint64_t backward_probes = 0;   // HasEdge probes for backward non-tree edges
  uint64_t hub_probes = 0;        // of those, answered by a hub bitmap row
  uint64_t backward_rejects = 0;  // candidates rejected by a backward edge
  uint64_t conflict_rejects = 0;  // rejected by injectivity / capacity
  uint64_t partials_discarded = 0;  // dead-end backtracks of non-empty prefixes
  uint64_t max_depth = 0;           // deepest bound prefix (matched vertices)
  uint64_t core_visits = 0;       // complete core+forest embeddings visited
  uint64_t leaf_calls = 0;        // leaf-match invocations (count or enumerate)
  uint64_t leaf_products = 0;     // embeddings contributed via leaf counting
  uint64_t leaf_sampled_calls = 0;
  double leaf_sampled_seconds = 0.0;

  // Sampling cursor for the leaf timers (not merged; shard-local state).
  uint32_t leaf_tick = 0;

  bool ShouldSampleLeaf() {
    return (leaf_tick++ & (obs::kLeafSampleStride - 1)) == 0;
  }

  // Accumulates `other` into this shard-sum (max for max_depth).
  void Merge(const EnumStats& other);

  bool operator==(const EnumStats&) const = default;
};

// Prepare-side counters recorded by CpiBuilder::Build. All vectors are
// indexed by query vertex; empty when stats are compiled out or the builder
// was invoked without a stats sink.
struct CpiBuildStats {
  std::vector<uint64_t> generated;        // candidates at generation time
  std::vector<uint64_t> pruned_backward;  // top-down same-level backward pass
  std::vector<uint64_t> pruned_bottomup;  // bottom-up refinement (Algorithm 4)

  double top_down_seconds = 0.0;
  double bottom_up_seconds = 0.0;
  double adjacency_seconds = 0.0;

  uint64_t TotalGenerated() const;
  uint64_t TotalPruned() const;

  bool operator==(const CpiBuildStats&) const = default;
};

// Everything one Match call recorded. Attached to MatchResult; also carried
// by PreparedQuery for the Prepare-side half.
struct MatchStats {
  // True iff the engine that produced the result records stats at all
  // (the CFL family and instrumented baselines); lets consumers distinguish
  // "zero because nothing happened" from "zero because not recorded".
  bool recorded = false;

  // --- Phase timers (seconds; consecutive monotonic laps) ---------------
  double decompose_seconds = 0.0;  // decomposition + root select + BFS tree
  double cpi_top_down_seconds = 0.0;
  double cpi_bottom_up_seconds = 0.0;
  double cpi_adjacency_seconds = 0.0;
  double order_seconds = 0.0;
  double enumerate_seconds = 0.0;

  // Sum of the (non-overlapping) phase timers above; <= total wall time.
  double PhaseSecondsSum() const {
    return decompose_seconds + cpi_top_down_seconds + cpi_bottom_up_seconds +
           cpi_adjacency_seconds + order_seconds + enumerate_seconds;
  }

  // --- Prepare side ------------------------------------------------------
  CpiBuildStats cpi;
  std::vector<uint64_t> cpi_candidates_per_vertex;  // |C(u)| per query vertex
  uint64_t cpi_candidate_entries = 0;   // candidate arena size
  uint64_t cpi_adjacency_entries = 0;   // adjacency arena size

  // --- Enumeration side ---------------------------------------------------
  EnumStats enumeration;  // merged over all workers
  uint64_t candidates_tried = 0;  // mirrors MatchResult counters
  uint64_t candidates_bound = 0;
  uint64_t embeddings_found = 0;  // == MatchResult::embeddings

  // Extrapolated leaf-match time (sampled; see header comment). Zero when
  // no leaf call was sampled.
  double LeafSecondsEstimate() const;

  // --- Parallel run shape -------------------------------------------------
  uint32_t threads = 1;  // shards the counting driver ran
  uint64_t root_candidates = 0;  // |C(root)| — the parallel work units
  // Roots claimed per shard (size == threads). Without a cap or deadline
  // the entries sum to root_candidates.
  std::vector<uint64_t> worker_roots_claimed;

  uint64_t TotalRootsClaimed() const;
};

namespace obs {

// Checks the accounting identities a well-formed MatchStats must satisfy
// against the enclosing result's embedding count and total wall time.
// Returns an empty string if everything holds (or stats were not recorded /
// compiled out), else a description of the first violated identity. Used by
// tools/cfl_difftest and the randomized property tests.
std::string CheckStatsInvariants(const MatchStats& stats, uint64_t embeddings,
                                 double total_seconds);

// Human-readable multi-line rendering for cfl_query --stats.
std::string FormatStats(const MatchStats& stats);

// Scalar roll-up of many MatchStats (per query set / bench run); the JSONL
// emitter in bench/bench_common.h reports these fields.
struct StatsTotals {
  uint64_t candidates_generated = 0;
  uint64_t candidates_pruned = 0;
  uint64_t cpi_candidate_entries = 0;
  uint64_t cpi_adjacency_entries = 0;
  uint64_t backward_probes = 0;
  uint64_t hub_probes = 0;
  uint64_t partials_discarded = 0;
  uint64_t core_visits = 0;
  uint64_t leaf_calls = 0;

  void Add(const MatchStats& stats);
};

}  // namespace obs

}  // namespace cfl

#endif  // CFL_OBS_STATS_H_
