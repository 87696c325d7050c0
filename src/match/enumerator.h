// CPI-based backtracking enumeration (paper Algorithm 5, Core-Match, in the
// non-recursive form the authors also use).
//
// Walks the matching order's steps, drawing the candidates of each query
// vertex u from the CPI adjacency list N_u^{u.p}(M(u.p)) of its BFS-tree
// parent's current mapping; the data graph is probed only to validate
// backward non-tree edges (Theorem 4.1). Forest steps simply have no
// backward edges, so the same loop serves core-match and forest-match.
//
// Injectivity is capacity-based: `used[v] < data.multiplicity(v)` — on plain
// graphs this is the ordinary visited check, on compressed data graphs
// (the [14] boost) it lets several query vertices share a hypervertex.

#ifndef CFL_MATCH_ENUMERATOR_H_
#define CFL_MATCH_ENUMERATOR_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "check/check.h"
#include "check/narrow.h"
#include "cpi/cpi.h"
#include "graph/graph.h"
#include "match/embedding.h"
#include "order/matching_order.h"

namespace cfl {

// Candidate/adjacency cursors are uint32_t; a size that does not fit would
// silently truncate and skip candidates, so fail loudly instead (a >4B-entry
// candidate set is far beyond anything the CPI can hold today, but the
// enumerator must not be the place that quietly caps it).
inline uint32_t CheckedCandidateCount(size_t size) {
  return CheckedU32(size);
}

// One step's backward non-tree edges, resolved against the current partial
// mapping: per edge the mapped data vertex and, when that vertex is a hub,
// the base of its bitmap row (graph.h; nullptr otherwise). The shallower
// bindings are fixed for a depth's whole candidate sweep, so the enumerator
// rebuilds a depth's plan once per descent; per candidate the check is then
// one bit-test or HasEdge per edge with no hub-index or mapping loads.
struct BackwardPlan {
  struct Edge {
    const uint64_t* row;  // hub bitmap row of `mapped`, or nullptr
    VertexId mapped;      // M(w) for backward endpoint w
  };
  std::vector<Edge> edges;

  void Reset() { edges.clear(); }
  void Add(const Graph& data, VertexId mapped) {
    edges.push_back({data.HubRowWords(mapped), mapped});
  }

  // Probes candidate `v` against every mapped endpoint in plan order and
  // returns the index of the first non-adjacent one, or edges.size() when
  // all pass. Callers derive both the accept/reject decision and the exact
  // probe count (stats) from it.
  uint32_t FirstFailure(const Graph& data, VertexId v) const {
    const size_t n = edges.size();
    for (size_t k = 0; k < n; ++k) {
      const Edge& e = edges[k];
      const bool adjacent = e.row != nullptr
                                ? ((e.row[v >> 6] >> (v & 63)) & 1u) != 0
                                : data.HasEdge(e.mapped, v);
      if (!adjacent) return static_cast<uint32_t>(k);
    }
    return static_cast<uint32_t>(n);
  }
};

enum class EnumerateStatus {
  kDone,      // search space exhausted
  kStopped,   // visitor returned false (limit reached)
  kTimedOut,  // deadline expired
};

// State shared with the visitor. `mapping[u]` / `position[u]` are the data
// vertex / candidate position assigned to query vertex u (valid for all
// step vertices when the visitor runs); `used[v]` counts how many query
// vertices currently occupy data vertex v.
struct EnumeratorState {
  Embedding mapping;
  std::vector<uint32_t> position;
  std::vector<uint32_t> used;

  // Search-effort counters (candidates examined / successfully bound).
  uint64_t candidates_tried = 0;
  uint64_t candidates_bound = 0;

  // Detailed stats shard (obs/stats.h). Worker-private like the rest of the
  // state: the counting driver merges shards only after the join.
  EnumStats stats;

  EnumeratorState(uint32_t query_vertices, uint32_t data_vertices)
      : mapping(query_vertices, kInvalidVertex),
        position(query_vertices, 0),
        used(data_vertices, 0) {}
};

// Enumerates all embeddings of the step-covered query vertices; calls
// `visit()` once per embedding (state holds the mapping); visit returns
// false to stop. Steps must be non-empty and connected (each step's parent
// already matched).
//
// `root_begin` / `root_end` restrict the first step to the half-open range
// of root candidate positions [root_begin, min(root_end, |C(root)|)). The
// search spaces of disjoint root ranges are disjoint and their union (over a
// partition of the full range) is exactly the full search space — this is
// the partitioning axis of the counting driver (see match/count_driver.h).
// The defaults cover the whole candidate set.
template <typename Visitor>
EnumerateStatus EnumeratePartial(
    const Graph& data, const Cpi& cpi, std::span<const MatchStep> steps,
    EnumeratorState& state, Deadline& deadline, Visitor&& visit,
    uint32_t root_begin = 0,
    uint32_t root_end = std::numeric_limits<uint32_t>::max()) {
  const size_t depth_count = steps.size();
  // Per-depth cursor into the candidate source.
  std::vector<uint32_t> cursor(depth_count, 0);

  // Backward-edge plans, one per depth; rebuilt exactly where hub_prefix
  // is.
  std::vector<BackwardPlan> plans(depth_count);
  auto rebuild_plan = [&](size_t d) {
    BackwardPlan& plan = plans[d];
    plan.Reset();
    for (VertexId w : steps[d].backward) plan.Add(data, state.mapping[w]);
  };
  rebuild_plan(0);

  // Stats builds classify each backward probe as hub-answered or not
  // (HasEdge is O(1) when either endpoint is a hub). Doing that inside the
  // probe loop costs two hub-index reads per probe — measurable against an
  // O(1) bit-test HasEdge — so instead `hub_prefix[d][i]` holds how many of
  // the first i backward endpoints of steps[d] are currently mapped to
  // hubs. The shallower bindings are fixed for a depth's whole candidate
  // sweep, so the prefix is rebuilt only on descent (where the sweep
  // restarts) and the per-candidate count reduces to a table lookup plus at
  // most one IsHub(v).
  CFL_STATS_ONLY(
      std::vector<std::vector<uint32_t>> hub_prefix(depth_count);
      auto rebuild_hub_prefix = [&](size_t d) {
        const std::vector<VertexId>& backward = steps[d].backward;
        std::vector<uint32_t>& pre = hub_prefix[d];
        pre.resize(backward.size() + 1);
        pre[0] = 0;
        for (size_t i = 0; i < backward.size(); ++i) {
          pre[i + 1] =
              pre[i] + (data.IsHub(state.mapping[backward[i]]) ? 1 : 0);
        }
      };
      rebuild_hub_prefix(0);)

  auto unbind = [&](size_t d) {
    VertexId u = steps[d].u;
    --state.used[state.mapping[u]];
    state.mapping[u] = kInvalidVertex;
  };

  size_t depth = 0;
  cursor[0] = root_begin;
  while (true) {
    if (deadline.ExpiredCoarse()) {
      CFL_STATS_ONLY(state.stats.max_depth =
                         std::max<uint64_t>(state.stats.max_depth, depth);)
      // Unwind bindings so `state.used` is clean for the caller.
      for (size_t d = 0; d < depth; ++d) unbind(d);
      return EnumerateStatus::kTimedOut;
    }

    const MatchStep& step = steps[depth];
    // Candidate source: root iterates its whole candidate set; everyone
    // else follows the CPI adjacency list under the parent's mapping.
    std::span<const uint32_t> adjacent;
    uint32_t root_count = 0;
    const bool is_root = (depth == 0 && step.parent == kInvalidVertex);
    if (is_root) {
      root_count = std::min(
          CheckedCandidateCount(cpi.Candidates(step.u).size()), root_end);
    } else {
      adjacent = cpi.AdjacentPositions(step.u, state.position[step.parent]);
    }
    const uint32_t limit =
        is_root ? root_count : CheckedCandidateCount(adjacent.size());

    bool bound = false;
    while (cursor[depth] < limit) {
      uint32_t pos = is_root ? cursor[depth] : adjacent[cursor[depth]];
      ++cursor[depth];
      ++state.candidates_tried;
      VertexId v = cpi.CandidateAt(step.u, pos);
      if (state.used[v] >= data.multiplicity(v)) {
        CFL_STATS_ONLY(++state.stats.conflict_rejects;)
        continue;
      }
      // Backward non-tree edges (Theorem 4.1), one probe each against the
      // plan: fail index + 1 probes on a reject, all of them on a pass.
      const uint32_t nback = CheckedU32(plans[depth].edges.size());
      const uint32_t fail = plans[depth].FirstFailure(data, v);
      const bool ok = fail == nback;
      CFL_STATS_ONLY(const uint32_t probed = ok ? nback : fail + 1;)
      // Probe accounting once per candidate: the prefix table counts the
      // probed endpoints mapped to hubs; a hub v makes the rest of the
      // probes hub-answered too. IsHub(v) is consulted only when the prefix
      // alone doesn't already prove every probe hub-answered.
      CFL_STATS_ONLY(if (probed != 0) {
        state.stats.backward_probes += probed;
        uint32_t hubbed = hub_prefix[depth][probed];
        if (hubbed != probed && data.IsHub(v)) hubbed = probed;
        state.stats.hub_probes += hubbed;
      })
      if (!ok) {
        CFL_STATS_ONLY(++state.stats.backward_rejects;)
        continue;
      }
      state.mapping[step.u] = v;
      state.position[step.u] = pos;
      ++state.used[v];
      ++state.candidates_bound;
      bound = true;
      break;
    }

    if (!bound) {
      if (depth == 0) return EnumerateStatus::kDone;
      // The deepest bound prefix is maintained here (and at the visit /
      // timeout sites) instead of on every successful bind: every descent
      // that reached depth d stops by discarding at d, visiting, or timing
      // out, so recording at the stops sees the same maximum for a fraction
      // of the bind path's cost.
      CFL_STATS_ONLY(++state.stats.partials_discarded;
                     state.stats.max_depth =
                         std::max<uint64_t>(state.stats.max_depth, depth);)
      --depth;
      unbind(depth);
      continue;
    }

    if (depth + 1 == depth_count) {
      CFL_STATS_ONLY(++state.stats.core_visits;
                     state.stats.max_depth = depth_count;)
      bool keep_going = visit();
      unbind(depth);  // retry next candidate at this depth
      if (!keep_going) {
        for (size_t d = 0; d < depth; ++d) unbind(d);
        return EnumerateStatus::kStopped;
      }
      continue;
    }

    ++depth;
    cursor[depth] = 0;
    rebuild_plan(depth);
    CFL_STATS_ONLY(rebuild_hub_prefix(depth);)
  }
}

}  // namespace cfl

#endif  // CFL_MATCH_ENUMERATOR_H_
