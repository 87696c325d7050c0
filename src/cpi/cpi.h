// Compact Path Index (paper Section 4.1 and A.2).
//
// The CPI mirrors the query's BFS tree q_T. Each query vertex u carries a
// candidate set u.C (data vertices u may map to); for each tree edge
// (u.p, u) it stores, per candidate of the parent, the adjacency list
// N_u^{u.p}(v) — which candidates of u are adjacent to v in the data graph.
//
// Storage follows the paper's A.2 exactly: adjacency lists hold *positions*
// (offsets) into the child's candidate array rather than raw vertex ids, so
// enumeration walks the index without any hashing, and a matched vertex's
// own adjacency lists are locatable by its position.
//
// Layout: all three stores are flattened arenas — one contiguous array per
// kind plus per-query-vertex offset tables (the same CSR idiom `Graph`
// uses) — so the enumeration hot path (`CandidateAt`, `AdjacentPositions`)
// is pure pointer arithmetic with no per-vertex heap objects:
//
//   cand_arena_      [ u0.C | u1.C | ... ]        cand_offsets_[u] slices it
//   adj_off_arena_   [ u1 offs | u2 offs | ... ]  adj_off_start_[u] slices it
//   adj_entry_arena_ [ u1 lists | u2 lists | ... ]adj_entry_start_[u] slices it
//
// For non-root u, the slice adj_off_arena_[adj_off_start_[u] ...] holds
// |u.p.C| + 1 offsets (relative to u's entry slice) partitioning u's entry
// slice into the per-parent-candidate N_u^{u.p}(v) blocks. Root slices are
// empty.
//
// Size is O(|E(G)| x |V(q)|) by construction (each tree edge's lists are a
// subset of E(G)); `SizeInEntries` / `MemoryBytes` let the scalability
// experiment (paper Figure 16(d)) report it.
//
// Thread-sharing contract: a built Cpi is immutable — it has no mutable
// members and no const accessor writes any state — so one instance may be
// read concurrently from any number of enumeration workers without
// synchronization (match/count_driver.h relies on this). Keep it that
// way: lazy caches inside const accessors would silently break parallel
// counting. The CFL_IMMUTABLE_AFTER_BUILD marker below has
// tools/cfl_lint enforce the contract (no non-const public methods, no
// mutable members, no const_cast); see check/thread_annotations.h.

#ifndef CFL_CPI_CPI_H_
#define CFL_CPI_CPI_H_

#include <cstdint>
#include <span>
#include <vector>

#include "check/narrow.h"
#include "check/thread_annotations.h"
#include "decomp/bfs_tree.h"
#include "graph/graph.h"

namespace cfl {

class Cpi {
 public:
  CFL_IMMUTABLE_AFTER_BUILD(Cpi);

  Cpi() = default;

  // The BFS tree this CPI is defined over.
  const BfsTree& tree() const { return tree_; }

  // u.C: candidate data vertices of query vertex u, ascending.
  std::span<const VertexId> Candidates(VertexId u) const {
    return {cand_arena_.data() + cand_offsets_[u],
            cand_arena_.data() + cand_offsets_[u + 1]};
  }

  uint32_t NumCandidates(VertexId u) const {
    return CheckedU32(cand_offsets_[u + 1] - cand_offsets_[u]);
  }

  // Data vertex at `pos` within u.C.
  VertexId CandidateAt(VertexId u, uint32_t pos) const {
    return cand_arena_[cand_offsets_[u] + pos];
  }

  // N_u^{u.p}(v) where v is the parent candidate at `parent_pos` in u.p's
  // candidate array: positions into u.C of the candidates adjacent to v.
  // Only valid for non-root u.
  std::span<const uint32_t> AdjacentPositions(VertexId u,
                                              uint32_t parent_pos) const {
    const uint32_t* off = adj_off_arena_.data() + adj_off_start_[u];
    const uint32_t* base = adj_entry_arena_.data() + adj_entry_start_[u];
    return {base + off[parent_pos], base + off[parent_pos + 1]};
  }

  // True iff some query vertex has an empty candidate set, in which case the
  // query has no embeddings at all.
  bool HasEmptyCandidateSet() const {
    for (uint32_t u = 0; u + 1 < cand_offsets_.size(); ++u) {
      if (cand_offsets_[u] == cand_offsets_[u + 1]) return true;
    }
    return false;
  }

  // Total number of candidate entries plus adjacency entries — the paper's
  // "index size" metric (Figure 16(d)).
  uint64_t SizeInEntries() const {
    return cand_arena_.size() + adj_entry_arena_.size();
  }

  // The two arena sizes separately (MatchStats reports them side by side;
  // their sum is SizeInEntries()).
  uint64_t NumCandidateEntries() const { return cand_arena_.size(); }
  uint64_t NumAdjacencyEntries() const { return adj_entry_arena_.size(); }

  uint64_t MemoryBytes() const;

  // --- Introspection (validators and tests; not used by enumeration) -----

  uint32_t NumQueryVertices() const {
    return cand_offsets_.empty() ? 0 : CheckedU32(cand_offsets_.size() - 1);
  }

  // Raw per-vertex adjacency storage: `AdjacencyOffsets(u)` has one entry
  // per candidate of u's parent plus a trailing end offset (relative to the
  // start of u's entry slice), slicing `AdjacencyEntries(u)` into the
  // N_u^{u.p}(v) blocks. Both empty for the root. See check/validate.h for
  // the invariants these must satisfy.
  std::span<const uint32_t> AdjacencyOffsets(VertexId u) const {
    return {adj_off_arena_.data() + adj_off_start_[u],
            adj_off_arena_.data() + adj_off_start_[u + 1]};
  }
  std::span<const uint32_t> AdjacencyEntries(VertexId u) const {
    return {adj_entry_arena_.data() + adj_entry_start_[u],
            adj_entry_arena_.data() + adj_entry_start_[u + 1]};
  }

 private:
  friend class CpiBuilder;
  friend struct CpiTestAccess;  // check/test_access.h

  BfsTree tree_;

  // Candidate arena: cand_offsets_ has NumQueryVertices()+1 entries slicing
  // cand_arena_ into the per-query-vertex candidate sets.
  std::vector<VertexId> cand_arena_;
  std::vector<uint64_t> cand_offsets_;

  // Adjacency arenas, sliced per query vertex by the *_start_ tables
  // (NumQueryVertices()+1 entries each; root slices are empty).
  std::vector<uint32_t> adj_off_arena_;    // relative offsets, |u.p.C|+1 per u
  std::vector<uint64_t> adj_off_start_;
  std::vector<uint32_t> adj_entry_arena_;  // positions into u.C
  std::vector<uint64_t> adj_entry_start_;
};

}  // namespace cfl

#endif  // CFL_CPI_CPI_H_
