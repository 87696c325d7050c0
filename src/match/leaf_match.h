// Leaf-Match (paper Section 4.4).
//
// Given an embedding of V_C (core) and V_T (forest), the remaining leaf
// vertices V_I are degree-one, so each leaf u's candidates are simply
// C(u) = N_u^{u.p}(M(u.p)) minus already-used data vertices. Leaves with
// different labels can never conflict (Lemma 4.3), so V_I splits into label
// classes whose embedding sets combine by Cartesian product — which
// CFL-Match never materializes: class counts are multiplied ("compress the
// mappings of leaf vertices on the fly").
//
// Within a label class, leaves sharing a parent form NEC groups with
// identical candidate sets; a group of size k maps to a *combination* of k
// candidates, contributing ordered assignments by a multinomial/falling-
// factorial expansion (exactly the paper's combination-then-permute
// counting, generalized to capacity > 1 for compressed data graphs).
//
// Two modes:
//   * CountEmbeddings: exact number of leaf completions (saturating).
//   * EnumerateEmbeddings: backtracks over individual leaves and invokes a
//     visitor per full leaf assignment (the expansion driver,
//     match/count_driver.h's EnumerateMatches).

#ifndef CFL_MATCH_LEAF_MATCH_H_
#define CFL_MATCH_LEAF_MATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cpi/cpi.h"
#include "graph/graph.h"
#include "match/embedding.h"
#include "match/enumerator.h"

namespace cfl {

class LeafMatcher {
 public:
  // `leaves` = V_I of the query. Grouping (label classes, NEC groups) is
  // precomputed once per query; per-embedding calls only read the CPI.
  LeafMatcher(const Graph& q, const Cpi& cpi, std::vector<VertexId> leaves);

  bool HasLeaves() const { return !leaves_.empty(); }

  // Exact number of ways to extend the partial embedding in `state` (which
  // must cover every leaf parent) to all of V_I. Saturates at kNoLimit.
  // Accounts for remaining capacity on compressed data graphs.
  uint64_t CountEmbeddings(const Graph& data, const EnumeratorState& state) const;

  // Enumerates leaf assignments, writing them into state.mapping/used and
  // calling visit() per complete assignment; visit returns false to stop.
  // Restores `state` before returning.
  template <typename Visitor>
  EnumerateStatus EnumerateEmbeddings(const Graph& data,
                                      EnumeratorState& state,
                                      Deadline& deadline,
                                      Visitor&& visit) const;

 private:
  // NEC group: leaves with identical (label, parent) — identical candidates.
  struct NecGroup {
    std::vector<VertexId> members;
    VertexId parent = kInvalidVertex;
  };
  // A label class: all NEC groups of one label; classes are independent.
  struct LabelClass {
    Label label = 0;
    std::vector<NecGroup> groups;
  };

  // Collects the available candidates of `group` under `state` into `out`
  // (data vertices with remaining capacity, paired with that capacity).
  void AvailableCandidates(const Graph& data, const EnumeratorState& state,
                           const NecGroup& group,
                           std::vector<std::pair<VertexId, uint32_t>>* out) const;

  uint64_t CountClass(const Graph& data, const EnumeratorState& state,
                      const LabelClass& cls) const;

  const Cpi* cpi_;
  std::vector<VertexId> leaves_;
  std::vector<LabelClass> classes_;
  std::vector<VertexId> flat_leaves_;  // class-major order for enumeration

  // Reused per-call scratch. CountEmbeddings runs once per partial core+
  // forest embedding — the hot loop of the whole matcher — so it must not
  // allocate. LeafMatcher is consequently not thread-safe; each
  // counting-driver shard constructs its own (cheap: the grouping vectors
  // plus this scratch), all pointing at the one shared immutable CPI.
  // cfl-analyze: allow(mutable-member) per-call scratch; never shared — each counting-driver shard owns a private LeafMatcher (DESIGN.md §7)
  mutable std::vector<std::vector<std::pair<VertexId, uint32_t>>> avail_;
};

// ---- template implementation -------------------------------------------

template <typename Visitor>
EnumerateStatus LeafMatcher::EnumerateEmbeddings(const Graph& data,
                                                 EnumeratorState& state,
                                                 Deadline& deadline,
                                                 Visitor&& visit) const {
  if (flat_leaves_.empty()) {
    return visit() ? EnumerateStatus::kDone : EnumerateStatus::kStopped;
  }
  // Straightforward backtracking over individual leaves: candidate lists
  // come from the CPI adjacency under each leaf's parent mapping. Leaves
  // are visited class-major so conflicts cluster early.
  const size_t k = flat_leaves_.size();
  std::vector<uint32_t> cursor(k, 0);
  size_t depth = 0;

  auto unbind = [&](size_t d) {
    VertexId u = flat_leaves_[d];
    --state.used[state.mapping[u]];
    state.mapping[u] = kInvalidVertex;
  };

  while (true) {
    if (deadline.ExpiredCoarse()) {
      for (size_t d = 0; d < depth; ++d) unbind(d);
      return EnumerateStatus::kTimedOut;
    }
    VertexId u = flat_leaves_[depth];
    VertexId parent = cpi_->tree().parent[u];
    std::span<const uint32_t> adjacent =
        cpi_->AdjacentPositions(u, state.position[parent]);

    bool bound = false;
    while (cursor[depth] < adjacent.size()) {
      uint32_t pos = adjacent[cursor[depth]++];
      VertexId v = cpi_->CandidateAt(u, pos);
      if (state.used[v] >= data.multiplicity(v)) continue;
      state.mapping[u] = v;
      ++state.used[v];
      bound = true;
      break;
    }
    if (!bound) {
      if (depth == 0) return EnumerateStatus::kDone;
      --depth;
      unbind(depth);
      continue;
    }
    if (depth + 1 == k) {
      bool keep_going = visit();
      unbind(depth);
      if (!keep_going) {
        for (size_t d = 0; d < depth; ++d) unbind(d);
        return EnumerateStatus::kStopped;
      }
      continue;
    }
    ++depth;
    cursor[depth] = 0;
  }
}

}  // namespace cfl

#endif  // CFL_MATCH_LEAF_MATCH_H_
