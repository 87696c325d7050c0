#include "cpi/cpi_builder.h"

#include <algorithm>
#include <bit>

#include "check/check.h"
#include "check/narrow.h"
#include "cpi/candidate_filter.h"
#include "obs/clock.h"

namespace cfl {

namespace {

// Seeds are emitted by scanning the bitmap words between the lowest and
// highest seed while that span holds at most this many words per seed;
// sparser seed sets are sorted instead, which is then cheaper.
constexpr size_t kMaxScanWordsPerSeed = 8;

}  // namespace

CpiBuilder::CpiBuilder(const Graph& data)
    : data_(data),
      cnt_(data.NumVertices(), 0),
      seed_bits_((data.NumVertices() + 63) / 64, 0) {}

void CpiBuilder::RefineRounds(const Label label,
                              const std::vector<VertexId>& against,
                              size_t first) {
  // Rounds over `against[first..]` of the counting intersection (Algorithm 3
  // lines 6-14 / Lemma 5.1): v survives round `mark` iff it survived every
  // earlier round (cnt_[v] == mark-1) and some vprime in cand_[uprime] has v
  // in its label run. Only the members still in surv_ carry mark-1 (earlier
  // losers keep a smaller mark, every other vertex 0), so one scan of each
  // label run bumps exactly the survivors; the in-place filter keeps surv_
  // sorted.
  uint32_t mark = 1;
  for (size_t a = first; a < against.size() && !surv_.empty(); ++a) {
    const uint32_t prev = mark++;
    for (VertexId vprime : cand_[against[a]]) {
      for (VertexId v : data_.NeighborsWithLabel(vprime, label)) {
        if (cnt_[v] == prev) cnt_[v] = mark;
      }
    }
    std::erase_if(surv_,
                  [this, mark](VertexId v) { return cnt_[v] != mark; });
  }
}

void CpiBuilder::GenerateCandidates(const Graph& q, VertexId u,
                                    const std::vector<VertexId>& against) {
  CFL_DCHECK(!against.empty())
      << " generating candidates for query vertex " << u
      << " with no visited neighbors; BFS guarantees a visited parent";
  // Round 0 seeds the survivor set with a counting scan: only data vertices
  // with u's label can survive, so each candidate's neighborhood is scanned
  // through its label run alone (the label filter is implied), and the
  // degree filter runs here once — later rounds only shrink the set. The
  // neighbor-label mask rejects most vertices NLF would drop in CandVerify
  // before they are marked, so they never reach the rounds; it is only a
  // necessary condition for NLF, so the candidate set is unchanged.
  const Label label = q.label(u);
  const uint32_t min_degree = q.StructuralDegree(u);
  const uint64_t need = q.NeighborLabelMask(u);
  VertexId lo = kInvalidVertex;
  VertexId hi = 0;
  for (VertexId vprime : cand_[against.front()]) {
    for (VertexId v : data_.NeighborsWithLabel(vprime, label)) {
      if (cnt_[v] != 0) continue;
      if (data_.degree(v) < min_degree) continue;
      if ((data_.NeighborLabelMask(v) & need) != need) continue;
      touched_.push_back(v);
      cnt_[v] = 1;
      seed_bits_[v >> 6] |= uint64_t{1} << (v & 63);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }

  // Emit the seeds in ascending order from the bitmap, clearing each word
  // as it is read. A seed set much smaller than the words it spans is
  // sorted instead, and its bits are cleared through touched_.
  surv_.clear();
  if (!touched_.empty()) {
    const uint32_t first_word = lo >> 6;
    const uint32_t last_word = hi >> 6;
    if (last_word - first_word + 1 >
        touched_.size() * kMaxScanWordsPerSeed) {
      for (VertexId v : touched_) seed_bits_[v >> 6] = 0;
      surv_ = touched_;
      std::sort(surv_.begin(), surv_.end());
    } else {
      for (uint32_t w = first_word; w <= last_word; ++w) {
        for (uint64_t bits = seed_bits_[w]; bits != 0; bits &= bits - 1) {
          surv_.push_back(w * 64 +
                          static_cast<uint32_t>(std::countr_zero(bits)));
        }
        seed_bits_[w] = 0;
      }
    }
  }

  // Seeds enter the rounds marked 1.
  RefineRounds(label, against, /*first=*/1);

  std::vector<VertexId>& out = cand_[u];
  out.clear();
  for (VertexId v : surv_) {
    if (CandVerify(q, u, data_, v)) out.push_back(v);
  }
  // surv_ stayed sorted throughout, so `out` needs no final sort. Marks only
  // ever land on members of the seed set, so resetting over touched_ (not
  // just the final survivors) restores cnt_ to all-zero.
  for (VertexId v : touched_) cnt_[v] = 0;
  touched_.clear();
}

void CpiBuilder::RefineCandidates(VertexId u,
                                  const std::vector<VertexId>& against) {
  if (against.empty() || cand_[u].empty()) return;
  // All candidates of u share u's label, so the rounds below only scan that
  // one label run of each vprime. Keep only candidates that survive every
  // round (Algorithm 3 lines 21-22 / Algorithm 4 lines 5-6).
  std::vector<VertexId>& c = cand_[u];
  const Label label = data_.label(c.front());
  for (VertexId v : c) cnt_[v] = 1;
  surv_ = c;
  RefineRounds(label, against, /*first=*/0);
  for (VertexId v : c) cnt_[v] = 0;  // marks only ever land on subsets of c
  c.swap(surv_);
}

void CpiBuilder::TopDownConstruct(const Graph& q, const BfsTree& tree) {
  const uint32_t n = q.NumVertices();
  std::vector<bool> visited(n, false);

  // Root candidates: label + degree + CandVerify (Algorithm 3 lines 1-2).
  const VertexId r = tree.root;
  for (VertexId v : data_.VerticesWithLabel(q.label(r))) {
    if (data_.degree(v) >= q.StructuralDegree(r) && CandVerify(q, r, data_, v)) {
      cand_[r].push_back(v);
    }
  }
  CFL_STATS_ONLY(if (stats_) stats_->generated[r] = cand_[r].size();)
  visited[r] = true;

  std::vector<std::vector<VertexId>> unvisited_same_level(n);
  for (uint32_t lev = 1; lev < tree.NumLevels(); ++lev) {
    const std::vector<VertexId>& level = tree.levels[lev];

    // Forward candidate generation (lines 5-17).
    for (VertexId u : level) {
      vis_.clear();  // u.N: visited query neighbors
      for (VertexId uprime : q.Neighbors(u)) {
        if (visited[uprime]) {
          vis_.push_back(uprime);
        } else if (tree.level[uprime] == tree.level[u]) {
          // S-NTE to a not-yet-visited same-level vertex; recorded for the
          // backward pass (u.UN).
          unvisited_same_level[u].push_back(uprime);
        }
      }
      GenerateCandidates(q, u, vis_);
      CFL_STATS_ONLY(if (stats_) stats_->generated[u] = cand_[u].size();)
      visited[u] = true;
    }

    // Backward candidate pruning (lines 18-23), reverse order within level.
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      CFL_STATS_ONLY(const size_t before = cand_[*it].size();)
      RefineCandidates(*it, unvisited_same_level[*it]);
      CFL_STATS_ONLY(
          if (stats_) stats_->pruned_backward[*it] = before - cand_[*it].size();)
    }
  }
}

void CpiBuilder::BottomUpRefine(const Graph& q, const BfsTree& tree) {
  // Process query vertices bottom-up; at each u, prune u.C against the
  // (already-refined) candidate sets of u's lower-level neighbors — tree
  // children and downward C-NTEs alike (Algorithm 4).
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    VertexId u = *it;
    lower_.clear();
    for (VertexId uprime : q.Neighbors(u)) {
      if (tree.level[uprime] == tree.level[u] + 1) lower_.push_back(uprime);
    }
    CFL_STATS_ONLY(const size_t before = cand_[u].size();)
    RefineCandidates(u, lower_);
    CFL_STATS_ONLY(
        if (stats_) stats_->pruned_bottomup[u] = before - cand_[u].size();)
  }
}

void CpiBuilder::BuildAdjacency(const BfsTree& tree, Cpi* cpi) {
  const uint32_t n = CheckedU32(cand_.size());

  // Arena layout: vertices in ascending id order so the start tables are
  // monotone; each non-root u contributes |u.p.C|+1 relative offsets and
  // its concatenated N_u^{u.p}(v) blocks. Per-u content is independent of
  // this iteration order.
  cpi->adj_off_arena_.clear();
  cpi->adj_entry_arena_.clear();
  cpi->adj_off_start_.assign(n + 1, 0);
  cpi->adj_entry_start_.assign(n + 1, 0);

  for (VertexId u = 0; u < n; ++u) {
    if (u != tree.root) {
      const VertexId p = tree.parent[u];
      const std::vector<VertexId>& child_cands = cand_[u];
      const std::vector<VertexId>& parent_cands = cand_[p];
      const uint64_t entry_base = cpi->adj_entry_arena_.size();

      // All child candidates share one label, so only that run of each
      // parent candidate's adjacency can contribute. cnt_ maps each child
      // candidate to its position + 1 (0: not a candidate); the runs ascend
      // by id like child_cands, so each block comes out sorted by position.
      // An empty child set degenerates to all-empty blocks.
      const Label label =
          child_cands.empty() ? 0 : data_.label(child_cands.front());
      for (uint32_t pos = 0; pos < child_cands.size(); ++pos) {
        cnt_[child_cands[pos]] = pos + 1;
      }

      cpi->adj_off_arena_.push_back(0);
      for (VertexId vp : parent_cands) {
        if (!child_cands.empty()) {
          for (VertexId v : data_.NeighborsWithLabel(vp, label)) {
            if (cnt_[v] != 0) cpi->adj_entry_arena_.push_back(cnt_[v] - 1);
          }
        }
        cpi->adj_off_arena_.push_back(
            CheckedU32(cpi->adj_entry_arena_.size() - entry_base));
      }
      for (VertexId v : child_cands) cnt_[v] = 0;
    }
    cpi->adj_off_start_[u + 1] = cpi->adj_off_arena_.size();
    cpi->adj_entry_start_[u + 1] = cpi->adj_entry_arena_.size();
  }
}

Cpi CpiBuilder::Build(const Graph& q, const BfsTree& tree,
                      CpiStrategy strategy,
                      [[maybe_unused]] CpiBuildStats* stats) {
  const uint32_t n = q.NumVertices();
  cand_.assign(n, {});
  stats_ = nullptr;
  CFL_STATS_ONLY(stats_ = stats;
                 if (stats_) {
                   stats_->generated.assign(n, 0);
                   stats_->pruned_backward.assign(n, 0);
                   stats_->pruned_bottomup.assign(n, 0);
                 })
  CFL_STATS_ONLY(obs::WallTimer timer;)

  if (strategy == CpiStrategy::kNaive) {
    // Section 4.1's naive sound CPI: candidates by label only.
    for (VertexId u = 0; u < n; ++u) {
      std::span<const VertexId> vs = data_.VerticesWithLabel(q.label(u));
      cand_[u].assign(vs.begin(), vs.end());
      CFL_STATS_ONLY(if (stats_) stats_->generated[u] = cand_[u].size();)
    }
    CFL_STATS_ONLY(if (stats_) stats_->top_down_seconds = timer.Lap();)
  } else {
    TopDownConstruct(q, tree);
    CFL_STATS_ONLY(if (stats_) stats_->top_down_seconds = timer.Lap();)
    if (strategy == CpiStrategy::kRefined) {
      BottomUpRefine(q, tree);
      CFL_STATS_ONLY(if (stats_) stats_->bottom_up_seconds = timer.Lap();)
    }
  }

  CFL_STATS_ONLY(timer.Lap();)  // exclude any stats bookkeeping gaps
  Cpi cpi;
  cpi.tree_ = tree;
  BuildAdjacency(tree, &cpi);

  // Flatten the per-vertex candidate sets into the arena.
  cpi.cand_offsets_.assign(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    cpi.cand_offsets_[u + 1] = cpi.cand_offsets_[u] + cand_[u].size();
  }
  cpi.cand_arena_.reserve(cpi.cand_offsets_[n]);
  for (VertexId u = 0; u < n; ++u) {
    cpi.cand_arena_.insert(cpi.cand_arena_.end(), cand_[u].begin(),
                           cand_[u].end());
  }
  CFL_STATS_ONLY(if (stats_) stats_->adjacency_seconds = timer.Lap();)
  stats_ = nullptr;
  return cpi;
}

Cpi BuildCpi(const Graph& q, const Graph& data, const BfsTree& tree,
             CpiStrategy strategy) {
  CpiBuilder builder(data);
  return builder.Build(q, tree, strategy);
}

}  // namespace cfl
