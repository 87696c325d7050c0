#include "match/cfl_match.h"

#include "check/check.h"
#include "check/validate.h"
#include "cpi/root_select.h"
#include "decomp/cfl_decomposition.h"
#include "decomp/two_core.h"
#include "match/count_driver.h"
#include "obs/clock.h"

namespace cfl {

using obs::WallTimer;

CflMatcher::CflMatcher(const Graph& data)
    : data_(data), cpi_builder_(data) {
  if (check::DebugValidationEnabled()) {
    ValidationResult r = ValidateGraph(data);
    CFL_CHECK(r.ok) << " — data graph invalid: " << r.error;
  }
}

PreparedQuery CflMatcher::Prepare(const Graph& q, const MatchOptions& options) {
  PreparedQuery prepared;
  WallTimer phase_timer;
  // Stats phase laps come from their own timer so they can exclude the
  // bookkeeping between phases (validation, stats copying); every lap is
  // still a disjoint interval of the same wall clock, so the phase-sum
  // <= total identity holds by construction.
  CFL_STATS_ONLY(WallTimer stats_timer; prepared.stats.recorded = true;)

  // --- Decomposition, root selection, BFS tree --------------------------
  std::vector<VertexId> core = TwoCoreVertices(q);
  const std::vector<VertexId>* root_choices = &core;
  std::vector<VertexId> all_vertices;
  if (core.empty()) {
    // Tree query: the core degenerates to the root, chosen among all.
    all_vertices.resize(q.NumVertices());
    for (VertexId v = 0; v < q.NumVertices(); ++v) all_vertices[v] = v;
    root_choices = &all_vertices;
  }
  VertexId root = SelectRoot(q, data_, LabelDegreeIndex(data_), *root_choices);
  prepared.decomposition = DecomposeCfl(q, root);
  prepared.tree = BuildBfsTree(q, root);
  CFL_STATS_ONLY(prepared.stats.decompose_seconds = stats_timer.Lap();)

  // --- CPI ----------------------------------------------------------------
  CpiBuildStats* cpi_stats = nullptr;
  CFL_STATS_ONLY(cpi_stats = &prepared.stats.cpi;)
  prepared.cpi =
      cpi_builder_.Build(q, prepared.tree, options.cpi_strategy, cpi_stats);
  prepared.build_seconds = phase_timer.Lap();
  CFL_STATS_ONLY({
    MatchStats& s = prepared.stats;
    s.cpi_top_down_seconds = s.cpi.top_down_seconds;
    s.cpi_bottom_up_seconds = s.cpi.bottom_up_seconds;
    s.cpi_adjacency_seconds = s.cpi.adjacency_seconds;
    s.cpi_candidate_entries = prepared.cpi.NumCandidateEntries();
    s.cpi_adjacency_entries = prepared.cpi.NumAdjacencyEntries();
    s.cpi_candidates_per_vertex.resize(q.NumVertices());
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      s.cpi_candidates_per_vertex[u] = prepared.cpi.NumCandidates(u);
    }
  })

  // Debug validation (CFL_VALIDATE=1 / CFL_FORCE_VALIDATE): re-check the
  // structures enumeration will trust blindly; see check/validate.h.
  if (check::DebugValidationEnabled()) {
    ValidationResult r = ValidateDecomposition(q, prepared.decomposition);
    CFL_CHECK(r.ok) << " — decomposition invalid: " << r.error;
    r = ValidateCpi(q, data_, prepared.cpi);
    CFL_CHECK(r.ok) << " — CPI invalid: " << r.error;
  }

  if (prepared.cpi.HasEmptyCandidateSet()) {
    prepared.no_results = true;
    return prepared;
  }

  // --- Matching order ----------------------------------------------------
  CFL_STATS_ONLY(stats_timer.Lap();)  // exclude validation/stats bookkeeping
  prepared.order =
      ComputeMatchingOrder(q, prepared.cpi, prepared.decomposition,
                           options.decomposition, options.ordering);
  prepared.order_seconds = phase_timer.Lap();
  CFL_STATS_ONLY(prepared.stats.order_seconds = stats_timer.Lap();)
  return prepared;
}

MatchResult CflMatcher::Match(const Graph& q, const MatchOptions& options) {
  WallTimer total_timer;
  PreparedQuery prepared = Prepare(q, options);
  MatchResult result =
      options.on_embedding
          ? EnumerateMatches(data_, q, prepared, options.limits,
                             options.on_embedding)
          : CountMatches(data_, q, prepared, options.limits, 1, nullptr);
  result.total_seconds = total_timer.Lap();
  return result;
}

}  // namespace cfl
