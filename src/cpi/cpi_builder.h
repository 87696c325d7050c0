// CPI construction (paper Section 5).
//
// Building a *minimum* sound CPI is NP-hard (Lemma 4.1), so the paper builds
// a small sound CPI heuristically in two phases, both O(|E(G)| x |E(q)|):
//
//   * Top-down construction (Algorithm 3): per BFS level, forward candidate
//     generation (intersecting neighbor sets of already-visited query
//     neighbors via the counting trick of Lemma 5.1, then CandVerify),
//     followed by backward pruning within the level using same-level
//     non-tree edges (S-NTEs) in the reverse direction.
//   * Bottom-up refinement (Algorithm 4): prune each u.C against the final
//     candidate sets of u's lower-level neighbors (tree children and
//     cross-level non-tree edges pointing down).
//
// Together the two phases exploit both directions of every query edge
// (paper Table 2).
//
// Every pass counts rather than intersects, with Lemma 5.1's |V(G)|-sized
// `cnt` array: a filtering round bumps the marks of the survivors it reaches
// by scanning each parent candidate's label run once; the seed set is read
// back in id order from a |V(G)|-bit bitmap, so candidate lists come out
// sorted with no sort; adjacency lists map run members to child positions
// through the same array. Each use resets the array through the list it
// marked, so a build costs O(|E(G)| x |E(q)|) whatever |V(G)| is.
//
// Deviation (documented in DESIGN.md): the paper interleaves adjacency-list
// construction with Algorithm 3 and prunes the lists in Algorithm 4; we
// build the lists once from the final candidate sets, producing an
// identical CPI with the same complexity.
//
// Strategies (paper Section 6 variants):
//   kNaive   — u.C = all data vertices with u's label (CFL-Match-Naive)
//   kTopDown — Algorithm 3 only (CFL-Match-TD)
//   kRefined — Algorithms 3 + 4 (CFL-Match; the default)

#ifndef CFL_CPI_CPI_BUILDER_H_
#define CFL_CPI_CPI_BUILDER_H_

#include <cstdint>
#include <vector>

#include "cpi/cpi.h"
#include "decomp/bfs_tree.h"
#include "graph/graph.h"
#include "obs/stats.h"

namespace cfl {

enum class CpiStrategy {
  kNaive,
  kTopDown,
  kRefined,
};

// Reusable builder: scratch arrays are sized to the data graph once and
// reused across queries (CFL-Match processes query sets of 100).
class CpiBuilder {
 public:
  explicit CpiBuilder(const Graph& data);

  CpiBuilder(const CpiBuilder&) = delete;
  CpiBuilder& operator=(const CpiBuilder&) = delete;

  // Builds the CPI of `q` over the data graph regarding BFS tree `tree`.
  // When `stats` is non-null (and CFL_STATS is on), records per-vertex
  // candidate generation/pruning counts and per-phase build times into it;
  // the accounting identity generated[u] - pruned[u] == |C(u)| holds for
  // every strategy.
  Cpi Build(const Graph& q, const BfsTree& tree,
            CpiStrategy strategy = CpiStrategy::kRefined,
            CpiBuildStats* stats = nullptr);

 private:
  // Candidate-set generation passes; all operate on cand_ (per query vertex).
  void TopDownConstruct(const Graph& q, const BfsTree& tree);
  void BottomUpRefine(const Graph& q, const BfsTree& tree);

  // Counting primitive (Lemma 5.1): filters the data vertices that have a
  // neighbor in cand_[u'] for every u' in `against`, either seeding from
  // scratch (generate) or filtering an existing set (refine).
  void GenerateCandidates(const Graph& q, VertexId u,
                          const std::vector<VertexId>& against);
  void RefineCandidates(VertexId u, const std::vector<VertexId>& against);

  // Shared round loop of the two passes above: filters the sorted survivor
  // list surv_ against cand_[against[first..]] one round at a time. Members
  // of surv_ enter with cnt_[v] == 1 and every other vertex with 0; round k
  // scans each vprime's label run once and moves cnt_[v] from k to k+1, and
  // the members left at k+1 survive. Callers reset cnt_ over the members
  // they marked afterwards.
  void RefineRounds(Label label, const std::vector<VertexId>& against,
                    size_t first);

  void BuildAdjacency(const BfsTree& tree, Cpi* cpi);

  const Graph& data_;
  std::vector<std::vector<VertexId>> cand_;

  // Stats sink for the Build in flight; null when the caller passed none.
  CpiBuildStats* stats_ = nullptr;

  // Scratch, |V(G)|-sized, all-zero between uses. cnt_ holds round marks
  // (RefineRounds) or child positions + 1 (BuildAdjacency) and is reset
  // through touched_ or the candidate list it was set from; seed_bits_ holds
  // one bit per seed of GenerateCandidates and is cleared as it is read.
  std::vector<uint32_t> cnt_;
  std::vector<uint64_t> seed_bits_;
  std::vector<VertexId> touched_;

  // Small reused buffers (cleared per query vertex, allocated once).
  std::vector<VertexId> vis_;    // TopDownConstruct: visited query neighbors
  std::vector<VertexId> lower_;  // BottomUpRefine: lower-level neighbors
  std::vector<VertexId> surv_;   // RefineRounds: sorted survivor list
};

// One-shot convenience wrapper.
Cpi BuildCpi(const Graph& q, const Graph& data, const BfsTree& tree,
             CpiStrategy strategy = CpiStrategy::kRefined);

}  // namespace cfl

#endif  // CFL_CPI_CPI_BUILDER_H_
