// Graph::DeriveIndexes: the one home of every derived per-vertex index.
//
// GraphBuilder (every vertex derived) and dyn::FoldDelta (touched vertices
// derived, the rest copied from the base epoch) both end here, so a fold is
// content-equal to a rebuild by construction rather than because two copies
// of each index happen to agree. The rule is the same for every per-vertex
// array: an untouched vertex's adjacency is byte-identical to the base's,
// so its label runs, NLF, NLF mask, effective degree, mnd and hub row are
// the base's; a touched vertex derives them from its new adjacency.
//
// A fold walks the sorted touched list (graph/vertex_ranges.h), never a
// per-vertex flag. With T touched vertices of total degree D its work is:
//   * O(T + D): the touched vertices' runs, NLF, mask and degree; their
//     places in the sorted degrees; mnd of the touched set and of its new
//     neighbours; touched hub rows.
//   * bulk copies, one per array or per untouched id range: runs and NLF,
//     run offsets (the base's plus one shift per range), the degree, mask
//     and mnd arrays, the label index and its sorted degrees. On
//     the 25K-vertex, 50-label synthetic graph (200K adjacency entries,
//     116K label runs, no hubs) that is 1.9 + 0.2 + 0.6 MB; the fold's CSR
//     adds 1.1 MB (dyn/fold.h).
//   * O(|V|) passes: the hub count, one pass over the offsets per
//     threshold tried; on a graph with hubs, the vertex-by-vertex hub row
//     layout, which copies each untouched hub's row from the base; and,
//     only when the batch adds a vertex, the label index rebuild.

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/vertex_ranges.h"

namespace cfl {
namespace {

// Hub rows are materialized only while their total fits this budget.
constexpr uint64_t kHubSpaceBudgetBytes = 64ull << 20;

}  // namespace

std::vector<VertexId> Graph::DeriveIndexes(const Graph* base,
                                           std::span<const VertexId> touched) {
  const uint32_t n = NumVertices();
  const uint32_t old_n = base == nullptr ? 0 : base->NumVertices();
  auto mult = [this](VertexId v) {
    return multiplicity_.empty() ? 1u : multiplicity_[v];
  };
  // `copy(begin, end)` per untouched id range, `derive(v)` per touched id;
  // without a base every vertex is derived.
  auto for_each_range = [&](auto&& copy, auto&& derive) {
    if (base != nullptr) {
      ForEachVertexRange(n, touched, copy, derive);
    } else {
      for (VertexId v = 0; v < n; ++v) derive(v);
    }
  };
  // A fixed-size per-vertex array starts as the base's, in one bulk copy
  // sized for the batch's added ids; derived vertices then overwrite their
  // entries. Without a base it starts zeroed.
  auto start_from_base = [&](auto member) {
    auto& array = this->*member;
    if (base == nullptr) {
      array.resize(n);
      return;
    }
    array.reserve(n);
    array.assign((base->*member).begin(), (base->*member).end());
    array.resize(n);
  };

  // Label runs: one LabelRun per maximal same-label stretch of each
  // adjacency list, offsets relative to the list start. Counted first so
  // runs_ and nlf_ are allocated exactly once: the base's total, moved by
  // each touched vertex's new count less its old one.
  auto count_runs = [this](VertexId v) {
    std::span<const VertexId> adj = Neighbors(v);
    uint64_t count = 0;
    for (uint32_t i = 0; i < adj.size(); ++i) {
      if (i == 0 || labels_[adj[i]] != labels_[adj[i - 1]]) ++count;
    }
    return count;
  };
  uint64_t num_runs = 0;
  if (base == nullptr) {
    for (VertexId v = 0; v < n; ++v) num_runs += count_runs(v);
  } else {
    num_runs = base->runs_.size();
    for (VertexId t : touched) {
      num_runs += count_runs(t);
      if (t < old_n) num_runs -= base->AdjacencyLabelRuns(t).size();
    }
  }

  // Runs, NLF, NLF masks and effective degrees in one pass. A neighbor
  // hypervertex w contributes mult(w) expanded neighbors and a self-loop
  // the other mult(v)-1 members; each run's total is its NLF entry, so NLF
  // shares run_offsets_ (a singleton self-loop's run keeps a zero entry,
  // and only non-zero entries set a mask bit).
  run_offsets_.assign(n + 1, 0);
  runs_.reserve(num_runs);
  nlf_.reserve(num_runs);
  start_from_base(&Graph::nlf_mask_);
  start_from_base(&Graph::effective_degree_);
  for_each_range(
      [&](uint32_t begin, uint32_t end) {
        // An untouched id range is one contiguous slice of each base array
        // (run offsets are list-relative), copied whole.
        const uint64_t from = base->run_offsets_[begin];
        const uint64_t to = base->run_offsets_[end];
        runs_.insert(runs_.end(), base->runs_.begin() + from,
                     base->runs_.begin() + to);
        nlf_.insert(nlf_.end(), base->nlf_.begin() + from,
                    base->nlf_.begin() + to);
        ShiftOffsets(base->run_offsets_.data(), begin, end,
                     run_offsets_.data());
      },
      [&](VertexId v) {
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
        run_offsets_[v + 1] = runs_.size();
        nlf_mask_[v] = mask;
        effective_degree_[v] = degree;
      });

  // Label index, grouped by label then id, and each label's sorted member
  // degrees. Tombstoned vertices keep their entry (degree zero), matching a
  // rebuild over the same vertex set, so a batch that adds no vertex
  // changes no label and copies both. Otherwise the index is rebuilt, and
  // each label's degrees are the base's slice followed by the degrees of
  // the members the batch added (every member, without a base), which have
  // the highest ids and so fill the tail, sorted and merged in.
  if (base != nullptr && n == old_n) {
    num_labels_ = base->num_labels_;
    effective_num_vertices_ = base->effective_num_vertices_;
    label_offsets_ = base->label_offsets_;
    label_frequency_ = base->label_frequency_;
    label_vertices_ = base->label_vertices_;
    label_degrees_ = base->label_degrees_;
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
  }
  // Each touched base member's degree moves to its new place: the entries
  // strictly between its old and new degree shift one step toward the old
  // one's slot, and the new degree fills the gap they leave.
  for (VertexId t : touched) {
    if (t >= old_n) continue;
    uint32_t* first = label_degrees_.data() + label_offsets_[labels_[t]];
    uint32_t* last = label_degrees_.data() + label_offsets_[labels_[t] + 1];
    const uint32_t from = base->effective_degree_[t];
    const uint32_t to = effective_degree_[t];
    if (to > from) {
      uint32_t* at = std::upper_bound(first, last, from) - 1;
      uint32_t* end = std::lower_bound(at, last, to);
      std::copy(at + 1, end, at);
      end[-1] = to;
    } else if (to < from) {
      uint32_t* at = std::lower_bound(first, last, from);
      uint32_t* begin = std::upper_bound(first, at, to);
      std::copy_backward(begin, at, at + 1);
      *begin = to;
    }
  }

  // Max neighbor degree. Degrees moved only at touched vertices, so mnd can
  // move only for them and their neighbors; a far endpoint that *lost* its
  // edge is itself touched, so the new neighborhoods of the touched set
  // cover every affected vertex.
  auto max_neighbor_degree = [this](VertexId v) {
    uint32_t best = 0;
    for (VertexId w : Neighbors(v)) best = std::max(best, effective_degree_[w]);
    return best;
  };
  std::vector<VertexId> neighbors_of_touched;
  start_from_base(&Graph::mnd_);
  if (base == nullptr) {
    for (VertexId v = 0; v < n; ++v) mnd_[v] = max_neighbor_degree(v);
  } else {
    for (VertexId t : touched) {
      mnd_[t] = max_neighbor_degree(t);
      for (VertexId w : Neighbors(t)) {
        if (!std::binary_search(touched.begin(), touched.end(), w)) {
          neighbors_of_touched.push_back(w);
        }
      }
    }
    std::sort(neighbors_of_touched.begin(), neighbors_of_touched.end());
    neighbors_of_touched.erase(std::unique(neighbors_of_touched.begin(),
                                           neighbors_of_touched.end()),
                               neighbors_of_touched.end());
    for (VertexId w : neighbors_of_touched) mnd_[w] = max_neighbor_degree(w);
  }

  // Hub rows: double the threshold until the rows fit the space budget; a
  // threshold that exceeds every degree simply yields no rows. The
  // settlement always starts from kHubDegreeThreshold — the degree
  // distribution moved, so the base's settlement is not authoritative.
  // Each count is one vectorisable pass over the offsets (0.02 ms on the
  // 25K-vertex synthetic graph).
  if (n == 0) return neighbors_of_touched;
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
  if (num_hubs == 0) return neighbors_of_touched;
  hub_words_per_row_ = words_per_row;

  // Rows are laid out vertex by vertex. An untouched vertex that was a hub
  // in `base` copies its row into the (possibly wider) new stride; the
  // zeroed tail is exact because untouched vertices cannot be adjacent to
  // batch-added ids. Every other hub row is set from the adjacency.
  hub_index_.assign(n, kNoHub);
  hub_bits_.assign(num_hubs * words_per_row, 0);
  uint32_t row = 0;
  auto next_touched = touched.begin();
  for (uint32_t v = 0; v < n; ++v) {
    if (StructuralDegree(v) < threshold) continue;
    hub_index_[v] = row;
    uint64_t* bits = hub_bits_.data() + row * words_per_row;
    ++row;
    while (next_touched != touched.end() && *next_touched < v) ++next_touched;
    const bool derived = base == nullptr ||
                         (next_touched != touched.end() && *next_touched == v);
    const uint64_t* base_row = derived ? nullptr : base->HubRowWords(v);
    if (base_row != nullptr) {
      std::memcpy(bits, base_row, base->hub_words_per_row_ * sizeof(uint64_t));
    } else {
      for (VertexId w : Neighbors(v)) bits[w >> 6] |= 1ull << (w & 63);
    }
  }
  return neighbors_of_touched;
}

}  // namespace cfl
