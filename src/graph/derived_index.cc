// Graph::DeriveIndexes: the one home of every derived per-vertex index.
//
// GraphBuilder (every vertex derived) and dyn::FoldDelta (touched vertices
// derived, the rest copied from the base epoch) both end here, so a fold is
// content-equal to a rebuild by construction rather than because two copies
// of each index happen to agree. The rule is the same for every per-vertex
// array: an untouched vertex's adjacency is byte-identical to the base's,
// so its label runs, NLF, NLF mask, effective degree and hub row are
// block-copied; a touched vertex derives them from its new adjacency. The
// per-label indexes follow the same rule one level up: the label index is
// copied unless the batch added a vertex, and a label's sorted degrees are
// copied, then adjusted for the touched members it holds. The hub
// threshold is a whole-graph quantity and is recomputed in one linear pass
// either way.

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace cfl {
namespace {

// Hub rows are materialized only while their total fits this budget.
constexpr uint64_t kHubSpaceBudgetBytes = 64ull << 20;

}  // namespace

std::vector<uint8_t> Graph::DeriveIndexes(const Graph* base,
                                          std::span<const VertexId> touched) {
  const uint32_t n = NumVertices();
  const uint32_t old_n = base == nullptr ? 0 : base->NumVertices();
  auto mult = [this](VertexId v) {
    return multiplicity_.empty() ? 1u : multiplicity_[v];
  };

  // fresh[v]: v's per-vertex indexes are derived from its adjacency rather
  // than copied from `base`.
  std::vector<uint8_t> fresh(n, 1);
  if (base != nullptr) {
    std::fill(fresh.begin(), fresh.begin() + old_n, 0);
    for (VertexId t : touched) fresh[t] = 1;
  }

  // Label runs: one LabelRun per maximal same-label stretch of each
  // adjacency list, offsets relative to the list start. Sized first so
  // runs_ is allocated exactly once.
  run_offsets_.assign(n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    uint64_t count = 0;
    if (!fresh[v]) {
      count = base->AdjacencyLabelRuns(v).size();
    } else {
      std::span<const VertexId> adj = Neighbors(v);
      for (uint32_t i = 0; i < adj.size(); ++i) {
        if (i == 0 || labels_[adj[i]] != labels_[adj[i - 1]]) ++count;
      }
    }
    run_offsets_[v + 1] = run_offsets_[v] + count;
  }
  runs_.reserve(run_offsets_[n]);

  // Runs, NLF, NLF masks and effective degrees in one per-vertex pass. A
  // neighbor hypervertex w contributes mult(w) expanded neighbors and a
  // self-loop the other mult(v)-1 members; each run's total is its NLF
  // entry, so NLF shares run_offsets_ (a singleton self-loop's run keeps a
  // zero entry, and only non-zero entries set a mask bit).
  nlf_.reserve(run_offsets_[n]);
  nlf_mask_.resize(n);
  effective_degree_.resize(n);
  for (uint32_t v = 0; v < n;) {
    if (!fresh[v]) {
      // A maximal untouched id range [v, end) is one contiguous slice of
      // each base array (run offsets are list-relative), copied whole.
      uint32_t end = v + 1;
      while (end < n && !fresh[end]) ++end;
      const LabelRun* runs_from = base->runs_.data() + base->run_offsets_[v];
      const LabelRun* runs_to = base->runs_.data() + base->run_offsets_[end];
      runs_.insert(runs_.end(), runs_from, runs_to);
      const LabelCount* nlf_from = base->nlf_.data() + base->run_offsets_[v];
      const LabelCount* nlf_to = base->nlf_.data() + base->run_offsets_[end];
      nlf_.insert(nlf_.end(), nlf_from, nlf_to);
      std::copy(base->nlf_mask_.data() + v, base->nlf_mask_.data() + end,
                nlf_mask_.data() + v);
      std::copy(base->effective_degree_.data() + v,
                base->effective_degree_.data() + end,
                effective_degree_.data() + v);
      v = end;
    } else {
      std::span<const VertexId> adj = Neighbors(v);
      uint32_t degree = 0;
      uint64_t mask = 0;
      for (uint32_t i = 0; i < adj.size();) {
        const Label l = labels_[adj[i]];
        runs_.push_back({l, i});
        uint32_t count = 0;
        for (; i < adj.size() && labels_[adj[i]] == l; ++i) {
          count += adj[i] == v ? mult(v) - 1 : mult(adj[i]);
        }
        nlf_.push_back({l, count});
        if (count > 0) mask |= uint64_t{1} << (l & 63);
        degree += count;
      }
      nlf_mask_[v] = mask;
      effective_degree_[v] = degree;
      ++v;
    }
  }

  // Label index, grouped by label then id. Tombstoned vertices keep their
  // entry (degree zero), matching a rebuild over the same vertex set, so a
  // batch that adds no vertex changes no label and copies the base's.
  if (base != nullptr && n == old_n) {
    num_labels_ = base->num_labels_;
    effective_num_vertices_ = base->effective_num_vertices_;
    label_offsets_ = base->label_offsets_;
    label_frequency_ = base->label_frequency_;
    label_vertices_ = base->label_vertices_;
  } else {
    num_labels_ = 0;
    for (Label l : labels_) num_labels_ = std::max(num_labels_, l + 1);
    effective_num_vertices_ = 0;
    label_offsets_.assign(num_labels_ + 1, 0);
    label_frequency_.assign(num_labels_, 0);
    for (uint32_t v = 0; v < n; ++v) {
      effective_num_vertices_ += mult(v);
      label_offsets_[labels_[v] + 1]++;
      label_frequency_[labels_[v]] += mult(v);
    }
    for (uint32_t l = 0; l < num_labels_; ++l) {
      label_offsets_[l + 1] += label_offsets_[l];
    }
    label_vertices_.resize(n);
    std::vector<uint64_t> cursor(label_offsets_.begin(),
                                 label_offsets_.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      label_vertices_[cursor[labels_[v]]++] = v;
    }
  }

  // Sorted degrees, by label like the label index: the base's slice, then
  // the degrees of the members the batch added (every member, without a
  // base), which have the highest ids and so fill the tail, sorted and
  // merged in. Each touched base member's degree then moves to its place.
  label_degrees_.resize(n);
  for (Label l = 0; l < num_labels_; ++l) {
    const std::span<const uint32_t> kept =
        base == nullptr ? std::span<const uint32_t>()
                        : base->SortedDegreesWithLabel(l);
    uint32_t* first = label_degrees_.data() + label_offsets_[l];
    uint32_t* last = label_degrees_.data() + label_offsets_[l + 1];
    uint32_t* mid = std::copy(kept.begin(), kept.end(), first);
    for (uint32_t* d = mid; d < last; ++d) {
      *d = effective_degree_[label_vertices_[d - label_degrees_.data()]];
    }
    if (mid != last) {
      std::sort(mid, last);
      std::inplace_merge(first, mid, last);
    }
  }
  for (VertexId t : touched) {
    if (t >= old_n) continue;
    uint32_t* first = label_degrees_.data() + label_offsets_[labels_[t]];
    uint32_t* last = label_degrees_.data() + label_offsets_[labels_[t] + 1];
    uint32_t* at = std::lower_bound(first, last, base->effective_degree_[t]);
    *at = effective_degree_[t];
    for (; at + 1 < last && at[0] > at[1]; ++at) std::swap(at[0], at[1]);
    for (; at > first && at[-1] > at[0]; --at) std::swap(at[-1], at[0]);
  }

  // Max neighbor degree. Degrees moved only at touched vertices, so mnd can
  // move only for them and their neighbors; a far endpoint that *lost* its
  // edge is itself touched, so the new neighborhoods of the touched set
  // cover every affected vertex.
  std::vector<uint8_t> affected = fresh;
  if (base != nullptr) {
    for (VertexId t : touched) {
      for (VertexId w : Neighbors(t)) affected[w] = 1;
    }
  }
  mnd_.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    if (!affected[v]) {
      mnd_[v] = base->mnd_[v];
      continue;
    }
    uint32_t best = 0;
    for (VertexId w : Neighbors(v)) best = std::max(best, effective_degree_[w]);
    mnd_[v] = best;
  }

  // Hub rows: double the threshold until the rows fit the space budget; a
  // threshold that exceeds every degree simply yields no rows. The
  // settlement always starts from kHubDegreeThreshold — the degree
  // distribution moved, so the base's settlement is not authoritative.
  if (n == 0) return affected;
  const uint64_t words_per_row = (static_cast<uint64_t>(n) + 63) / 64;
  uint64_t threshold = kHubDegreeThreshold;
  uint64_t num_hubs = 0;
  for (;;) {
    num_hubs = 0;
    for (uint32_t v = 0; v < n; ++v) {
      if (StructuralDegree(v) >= threshold) ++num_hubs;
    }
    if (num_hubs * words_per_row * sizeof(uint64_t) <= kHubSpaceBudgetBytes) {
      break;
    }
    threshold *= 2;
  }
  hub_degree_threshold_ = static_cast<uint32_t>(
      std::min<uint64_t>(threshold, static_cast<uint32_t>(-1)));
  if (num_hubs == 0) return affected;

  // An untouched vertex that was a hub in `base` copies its row into the
  // (possibly wider) new stride; the zeroed tail is exact because untouched
  // vertices cannot be adjacent to batch-added ids. Every other hub row is
  // set from the adjacency.
  hub_words_per_row_ = words_per_row;
  hub_index_.assign(n, kNoHub);
  hub_bits_.assign(num_hubs * words_per_row, 0);
  uint32_t row = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (StructuralDegree(v) < threshold) continue;
    hub_index_[v] = row;
    uint64_t* bits = hub_bits_.data() + row * words_per_row;
    ++row;
    const uint64_t* base_row = fresh[v] ? nullptr : base->HubRowWords(v);
    if (base_row != nullptr) {
      std::memcpy(bits, base_row, base->hub_words_per_row_ * sizeof(uint64_t));
    } else {
      for (VertexId w : Neighbors(v)) bits[w >> 6] |= 1ull << (w & 63);
    }
  }
  return affected;
}

}  // namespace cfl
