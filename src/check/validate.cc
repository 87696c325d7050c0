#include "check/validate.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "check/env.h"

#include "decomp/two_core.h"

namespace cfl {

namespace {

template <typename... Args>
ValidationResult Fail(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return ValidationResult::Fail(os.str());
}

// True iff `values` is strictly ascending (sorted and duplicate-free).
template <typename Range>
bool StrictlyAscending(const Range& values) {
  return std::adjacent_find(values.begin(), values.end(),
                            [](auto a, auto b) { return a >= b; }) ==
         values.end();
}

}  // namespace

// ---- ValidateGraph --------------------------------------------------------

ValidationResult ValidateGraph(const Graph& g) {
  const uint32_t n = g.NumVertices();

  for (VertexId v = 0; v < n; ++v) {
    if (g.label(v) >= g.NumLabels()) {
      return Fail("graph: label(", v, ") = ", g.label(v),
                  " out of range [0, ", g.NumLabels(), ")");
    }
  }

  // Multiplicities and effective vertex count.
  uint64_t effective_n = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (g.multiplicity(v) == 0) {
      return Fail("graph: multiplicity(", v, ") = 0; must be >= 1");
    }
    effective_n += g.multiplicity(v);
  }
  if (g.EffectiveNumVertices() != effective_n) {
    return Fail("graph: EffectiveNumVertices() = ", g.EffectiveNumVertices(),
                " but multiplicities sum to ", effective_n);
  }

  // Adjacency: (label, id) sortedness, range, symmetry, self-loop rules,
  // edge count. Symmetry uses a linear find so it stays meaningful even when
  // the other list's ordering is corrupted.
  uint64_t arcs = 0;
  uint64_t loops = 0;
  for (VertexId v = 0; v < n; ++v) {
    std::span<const VertexId> nb = g.Neighbors(v);
    arcs += nb.size();
    for (size_t i = 0; i < nb.size(); ++i) {
      if (nb[i] >= n) {
        return Fail("graph: neighbor ", nb[i], " of vertex ", v,
                    " out of range [0, ", n, ")");
      }
      if (i > 0 && (g.label(nb[i]) < g.label(nb[i - 1]) ||
                    (g.label(nb[i]) == g.label(nb[i - 1]) &&
                     nb[i] <= nb[i - 1]))) {
        return Fail("graph: adjacency of vertex ", v,
                    " not strictly ascending by (label, id) at index ", i,
                    " (", nb[i - 1], " then ", nb[i], ")");
      }
    }
    for (VertexId w : nb) {
      if (w == v) {
        ++loops;
        if (g.multiplicity(v) < 2) {
          return Fail("graph: self-loop at vertex ", v, " with multiplicity ",
                      g.multiplicity(v),
                      "; self-loops mark compressed clique classes and "
                      "require multiplicity >= 2");
        }
        continue;
      }
      std::span<const VertexId> back = g.Neighbors(w);
      if (std::find(back.begin(), back.end(), v) == back.end()) {
        return Fail("graph: asymmetric adjacency: ", w, " in N(", v,
                    ") but ", v, " not in N(", w, ")");
      }
    }
  }
  const uint64_t expected_edges = (arcs - loops) / 2 + loops;
  if (g.NumEdges() != expected_edges) {
    return Fail("graph: NumEdges() = ", g.NumEdges(),
                " but adjacency lists imply ", expected_edges);
  }

  // Label-run index: per vertex, runs must mark exactly the label boundaries
  // of the (label, id)-sorted adjacency.
  for (VertexId v = 0; v < n; ++v) {
    std::span<const VertexId> nb = g.Neighbors(v);
    std::span<const Graph::LabelRun> runs = g.AdjacencyLabelRuns(v);
    size_t r = 0;
    for (size_t i = 0; i < nb.size(); ++i) {
      if (i == 0 || g.label(nb[i]) != g.label(nb[i - 1])) {
        if (r >= runs.size() || runs[r].label != g.label(nb[i]) ||
            runs[r].begin != i) {
          return Fail("graph: label-run index of vertex ", v,
                      " disagrees with adjacency at entry ", i, " (label ",
                      g.label(nb[i]), ")");
        }
        ++r;
      }
    }
    if (r != runs.size()) {
      return Fail("graph: label-run index of vertex ", v, " has ",
                  runs.size(), " runs; adjacency implies ", r);
    }
  }

  // Hub-probe rows: membership must match the threshold, and each row must
  // encode exactly the vertex's neighbor set.
  if (g.HasHubIndex()) {
    for (VertexId v = 0; v < n; ++v) {
      const bool should = g.StructuralDegree(v) >= g.HubDegreeThreshold();
      if (g.IsHub(v) != should) {
        return Fail("graph: vertex ", v, " with structural degree ",
                    g.StructuralDegree(v), " is ",
                    g.IsHub(v) ? "" : "not ", "a hub but the threshold is ",
                    g.HubDegreeThreshold());
      }
      if (!g.IsHub(v)) continue;
      std::span<const VertexId> nb = g.Neighbors(v);
      size_t i = 0;
      std::vector<VertexId> sorted(nb.begin(), nb.end());
      std::sort(sorted.begin(), sorted.end());
      for (VertexId w = 0; w < n; ++w) {
        const bool in_adj = i < sorted.size() && sorted[i] == w;
        if (in_adj) ++i;
        if (g.HubRowBit(v, w) != in_adj) {
          return Fail("graph: hub row of vertex ", v, " disagrees with its ",
                      "adjacency at vertex ", w);
        }
      }
    }
  }

  // Effective degrees and max-neighbor-degree, recomputed per the builder's
  // contract (a self-loop contributes the other multiplicity(v)-1 members).
  for (VertexId v = 0; v < n; ++v) {
    uint64_t d = 0;
    uint32_t mnd = 0;
    for (VertexId w : g.Neighbors(v)) {
      d += (w == v) ? g.multiplicity(v) - 1 : g.multiplicity(w);
      mnd = std::max(mnd, g.degree(w));
    }
    if (g.degree(v) != d) {
      return Fail("graph: degree(", v, ") = ", g.degree(v),
                  " but adjacency implies effective degree ", d);
    }
    if (g.MaxNeighborDegree(v) != mnd) {
      return Fail("graph: MaxNeighborDegree(", v, ") = ",
                  g.MaxNeighborDegree(v), " but neighbors imply ", mnd);
    }
  }

  // Label index.
  uint64_t indexed = 0;
  for (Label l = 0; l < g.NumLabels(); ++l) {
    std::span<const VertexId> vs = g.VerticesWithLabel(l);
    indexed += vs.size();
    uint64_t freq = 0;
    for (size_t i = 0; i < vs.size(); ++i) {
      if (vs[i] >= n) {
        return Fail("graph: label index entry ", vs[i], " for label ", l,
                    " out of range");
      }
      if (g.label(vs[i]) != l) {
        return Fail("graph: vertex ", vs[i], " listed under label ", l,
                    " but has label ", g.label(vs[i]));
      }
      if (i > 0 && vs[i] <= vs[i - 1]) {
        return Fail("graph: label index for label ", l,
                    " not strictly ascending at index ", i);
      }
      freq += g.multiplicity(vs[i]);
    }
    if (g.LabelFrequency(l) != freq) {
      return Fail("graph: LabelFrequency(", l, ") = ", g.LabelFrequency(l),
                  " but members' multiplicities sum to ", freq);
    }
    std::vector<uint32_t> degrees;
    for (VertexId v : vs) degrees.push_back(g.degree(v));
    std::sort(degrees.begin(), degrees.end());
    if (!std::ranges::equal(degrees, g.SortedDegreesWithLabel(l))) {
      return Fail("graph: SortedDegreesWithLabel(", l,
                  ") is not its members' degrees in ascending order");
    }
  }
  if (indexed != n) {
    return Fail("graph: label index covers ", indexed, " of ", n,
                " vertices");
  }

  // NLF: one entry per label run (checked above against the adjacency),
  // carrying the run's label and its exact expanded count. Multiplicities
  // are >= 1 and a self-loop needs multiplicity >= 2, so an exact count is
  // zero only for a run holding nothing but v's own singleton self-loop.
  // The mask is the OR of bit (label & 63) over the non-zero entries.
  for (VertexId v = 0; v < n; ++v) {
    std::span<const VertexId> nb = g.Neighbors(v);
    std::span<const Graph::LabelRun> runs = g.AdjacencyLabelRuns(v);
    std::span<const Graph::LabelCount> nlf = g.NeighborLabelCounts(v);
    if (nlf.size() != runs.size()) {
      return Fail("graph: NLF of vertex ", v, " has ", nlf.size(),
                  " entries; its adjacency has ", runs.size(), " label runs");
    }
    uint64_t mask = 0;
    for (size_t r = 0; r < runs.size(); ++r) {
      const size_t end = r + 1 < runs.size() ? runs[r + 1].begin : nb.size();
      uint32_t count = 0;
      for (size_t i = runs[r].begin; i < end; ++i) {
        count += nb[i] == v ? g.multiplicity(v) - 1 : g.multiplicity(nb[i]);
      }
      if (nlf[r].label != runs[r].label || nlf[r].count != count) {
        return Fail("graph: NLF of vertex ", v, " entry ", r, " is (label ",
                    nlf[r].label, ", count ", nlf[r].count,
                    "); its label run implies (label ", runs[r].label,
                    ", count ", count, ")");
      }
      if (count > 0) mask |= uint64_t{1} << (runs[r].label & 63);
    }
    if (g.NeighborLabelMask(v) != mask) {
      return Fail("graph: NeighborLabelMask(", v, ") = ",
                  g.NeighborLabelMask(v), " but its non-zero NLF entries imply ",
                  mask);
    }
  }

  return ValidationResult::Ok();
}

// ---- ValidateBfsTree ------------------------------------------------------

ValidationResult ValidateBfsTree(const Graph& q, const BfsTree& tree) {
  const uint32_t n = q.NumVertices();
  if (tree.parent.size() != n || tree.level.size() != n ||
      tree.children.size() != n || tree.non_tree_neighbors.size() != n) {
    return Fail("bfs tree: per-vertex array sizes disagree with |V(q)| = ",
                n);
  }
  if (n == 0) return ValidationResult::Ok();
  if (tree.root >= n) return Fail("bfs tree: root ", tree.root, " invalid");
  if (tree.parent[tree.root] != kInvalidVertex) {
    return Fail("bfs tree: root ", tree.root, " has a parent");
  }
  if (tree.level[tree.root] != 1) {
    return Fail("bfs tree: root level is ", tree.level[tree.root],
                "; the paper numbers levels from 1");
  }

  uint64_t tree_edges = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    const VertexId p = tree.parent[v];
    if (p >= n) {
      return Fail("bfs tree: parent of ", v, " is invalid (", p, ")");
    }
    if (!q.HasEdge(v, p)) {
      return Fail("bfs tree: tree edge (", p, ", ", v,
                  ") is not a query edge");
    }
    if (tree.level[v] != tree.level[p] + 1) {
      return Fail("bfs tree: level(", v, ") = ", tree.level[v],
                  " but parent ", p, " has level ", tree.level[p]);
    }
    ++tree_edges;
  }

  // Children lists mirror the parent array, ascending.
  for (VertexId u = 0; u < n; ++u) {
    std::vector<VertexId> expected;
    for (VertexId v = 0; v < n; ++v) {
      if (v != tree.root && tree.parent[v] == u) expected.push_back(v);
    }
    if (tree.children[u] != expected) {
      return Fail("bfs tree: children of ", u,
                  " disagree with the parent array");
    }
  }

  // `order` is a level-monotone permutation and `levels` buckets it.
  if (tree.order.size() != n) {
    return Fail("bfs tree: order has ", tree.order.size(), " of ", n,
                " vertices");
  }
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < tree.order.size(); ++i) {
    VertexId v = tree.order[i];
    if (v >= n || seen[v]) {
      return Fail("bfs tree: order entry ", i, " (vertex ", v,
                  ") is out of range or repeated");
    }
    seen[v] = true;
    if (i > 0 && tree.level[v] < tree.level[tree.order[i - 1]]) {
      return Fail("bfs tree: order is not level-monotone at index ", i);
    }
  }
  size_t cursor = 0;
  for (uint32_t lev = 0; lev < tree.NumLevels(); ++lev) {
    for (VertexId v : tree.levels[lev]) {
      if (cursor >= n || tree.order[cursor] != v) {
        return Fail("bfs tree: levels[", lev,
                    "] is not the matching slice of `order`");
      }
      if (tree.level[v] != lev + 1) {
        return Fail("bfs tree: vertex ", v, " in levels[", lev,
                    "] has level ", tree.level[v]);
      }
      ++cursor;
    }
  }
  if (cursor != n) {
    return Fail("bfs tree: levels cover ", cursor, " of ", n, " vertices");
  }

  // Non-tree edges: real query edges, not tree edges, level gap <= 1,
  // classified correctly, and collectively exhaustive.
  for (const NonTreeEdge& e : tree.non_tree_edges) {
    if (e.u >= n || e.v >= n || !q.HasEdge(e.u, e.v)) {
      return Fail("bfs tree: non-tree edge (", e.u, ", ", e.v,
                  ") is not a query edge");
    }
    if (tree.IsTreeEdge(e.u, e.v)) {
      return Fail("bfs tree: (", e.u, ", ", e.v,
                  ") recorded as non-tree but is a tree edge");
    }
    if (tree.level[e.u] > tree.level[e.v] ||
        tree.level[e.v] - tree.level[e.u] > 1) {
      return Fail("bfs tree: non-tree edge (", e.u, ", ", e.v,
                  ") has levels ", tree.level[e.u], " and ", tree.level[e.v],
                  "; BFS allows a gap of at most one with u shallower");
    }
    if (e.same_level != (tree.level[e.u] == tree.level[e.v])) {
      return Fail("bfs tree: non-tree edge (", e.u, ", ", e.v,
                  ") misclassified as ", e.same_level ? "S-NTE" : "C-NTE");
    }
  }
  if (q.NumEdges() != tree_edges + tree.non_tree_edges.size()) {
    return Fail("bfs tree: ", tree_edges, " tree edges + ",
                tree.non_tree_edges.size(), " non-tree edges != |E(q)| = ",
                q.NumEdges());
  }
  uint64_t nt_entries = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : tree.non_tree_neighbors[v]) {
      ++nt_entries;
      if (w >= n || !q.HasEdge(v, w) || tree.IsTreeEdge(v, w)) {
        return Fail("bfs tree: non_tree_neighbors[", v, "] entry ", w,
                    " is not a non-tree query edge");
      }
    }
  }
  if (nt_entries != 2 * tree.non_tree_edges.size()) {
    return Fail("bfs tree: non_tree_neighbors holds ", nt_entries,
                " entries; expected both directions of ",
                tree.non_tree_edges.size(), " non-tree edges");
  }

  return ValidationResult::Ok();
}

// ---- ValidateCpi ----------------------------------------------------------

ValidationResult ValidateCpi(const Graph& q, const Graph& data,
                             const Cpi& cpi) {
  const uint32_t n = q.NumVertices();
  if (cpi.NumQueryVertices() != n) {
    return Fail("cpi: built for ", cpi.NumQueryVertices(),
                " query vertices, query has ", n);
  }
  if (ValidationResult tree_ok = ValidateBfsTree(q, cpi.tree()); !tree_ok) {
    return Fail("cpi: ", tree_ok.error);
  }
  const BfsTree& tree = cpi.tree();

  // Candidate sets: ascending, in range, label-consistent.
  for (VertexId u = 0; u < n; ++u) {
    std::span<const VertexId> cands = cpi.Candidates(u);
    if (!StrictlyAscending(cands)) {
      return Fail("cpi: candidates of query vertex ", u,
                  " not strictly ascending");
    }
    for (VertexId v : cands) {
      if (v >= data.NumVertices()) {
        return Fail("cpi: candidate ", v, " of query vertex ", u,
                    " out of range");
      }
      if (data.label(v) != q.label(u)) {
        return Fail("cpi: candidate ", v, " of query vertex ", u,
                    " has label ", data.label(v), ", query wants ",
                    q.label(u));
      }
    }
  }

  if (!cpi.AdjacencyOffsets(tree.root).empty() ||
      !cpi.AdjacencyEntries(tree.root).empty()) {
    return Fail("cpi: root ", tree.root, " carries adjacency lists");
  }

  // Per tree edge (p, u): offsets shape, and each block N_u^{p}(v_p) must be
  // *exactly* the positions of u's candidates adjacent to v_p in the data
  // graph, ascending. `pos_of` maps data vertex -> position in u.C + 1.
  std::vector<uint32_t> pos_of(data.NumVertices(), 0);
  for (VertexId u : tree.order) {
    if (u == tree.root) continue;
    const VertexId p = tree.parent[u];
    std::span<const VertexId> cands = cpi.Candidates(u);
    std::span<const VertexId> parent_cands = cpi.Candidates(p);
    std::span<const uint32_t> offsets = cpi.AdjacencyOffsets(u);
    std::span<const uint32_t> entries = cpi.AdjacencyEntries(u);

    if (offsets.size() != parent_cands.size() + 1 || offsets.front() != 0 ||
        offsets.back() != entries.size() ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      return Fail("cpi: adjacency offsets of query vertex ", u,
                  " do not partition its ", entries.size(),
                  " entries into ", parent_cands.size(), " blocks");
    }
    if (entries.size() > 2 * data.NumEdges()) {
      return Fail("cpi: tree edge (", p, ", ", u, ") stores ",
                  entries.size(), " adjacency entries, exceeding the 2|E(G)|",
                  " = ", 2 * data.NumEdges(), " bound");
    }

    for (uint32_t i = 0; i < cands.size(); ++i) pos_of[cands[i]] = i + 1;
    for (uint32_t pp = 0; pp < parent_cands.size(); ++pp) {
      const VertexId vp = parent_cands[pp];
      std::span<const uint32_t> block = cpi.AdjacentPositions(u, pp);
      // Data adjacency is ascending and candidate positions are id-monotone,
      // so the expected block comes out ascending.
      size_t k = 0;
      for (VertexId w : data.Neighbors(vp)) {
        if (pos_of[w] == 0) continue;
        const uint32_t want = pos_of[w] - 1;
        if (k >= block.size() || block[k] != want) {
          for (VertexId c : cands) pos_of[c] = 0;
          return Fail("cpi: N_", u, "^", p, "(", vp, ") block ",
                      k < block.size()
                          ? "diverges from the data graph at index "
                          : "misses data-graph neighbor at index ",
                      k, " (expected position ", want, " = data vertex ", w,
                      ")");
        }
        ++k;
      }
      if (k != block.size()) {
        const uint32_t extra = block[k];
        ValidationResult r = Fail(
            "cpi: N_", u, "^", p, "(", vp, ") lists position ", extra,
            extra < cands.size()
                ? " without a matching data-graph edge"
                : " out of range of the candidate set");
        for (VertexId c : cands) pos_of[c] = 0;
        return r;
      }
    }
    for (VertexId c : cands) pos_of[c] = 0;
  }

  return ValidationResult::Ok();
}

// ---- ValidateDecomposition ------------------------------------------------

ValidationResult ValidateDecomposition(const Graph& q,
                                       const CflDecomposition& d) {
  const uint32_t n = q.NumVertices();
  if (d.klass.size() != n) {
    return Fail("decomposition: klass has ", d.klass.size(),
                " entries for ", n, " query vertices");
  }

  // The three lists partition V(q) and agree with klass.
  if (d.core.size() + d.forest.size() + d.leaf.size() != n) {
    return Fail("decomposition: core/forest/leaf sizes ", d.core.size(),
                "+", d.forest.size(), "+", d.leaf.size(),
                " do not partition ", n, " vertices");
  }
  struct Part {
    const std::vector<VertexId>* list;
    VertexClass klass;
    const char* name;
  };
  for (const Part& part :
       {Part{&d.core, VertexClass::kCore, "core"},
        Part{&d.forest, VertexClass::kForest, "forest"},
        Part{&d.leaf, VertexClass::kLeaf, "leaf"}}) {
    if (!StrictlyAscending(*part.list)) {
      return Fail("decomposition: ", part.name,
                  " list not strictly ascending");
    }
    for (VertexId v : *part.list) {
      if (v >= n) {
        return Fail("decomposition: ", part.name, " entry ", v,
                    " out of range");
      }
      if (d.klass[v] != part.klass) {
        return Fail("decomposition: vertex ", v, " listed in ", part.name,
                    " but klass disagrees");
      }
    }
  }

  // The core-set is exactly the 2-core (Lemma 3.1), or exactly the root
  // when q is a tree and the 2-core is empty.
  std::vector<bool> in_core = TwoCoreMembership(q);
  bool core_empty = std::find(in_core.begin(), in_core.end(), true) ==
                    in_core.end();
  if (core_empty != d.QueryIsTree()) {
    return Fail("decomposition: query_is_tree = ", d.QueryIsTree(),
                " but the 2-core is ", core_empty ? "empty" : "non-empty");
  }
  if (core_empty) {
    if (d.core.size() != 1) {
      return Fail("decomposition: tree query must have a singleton core-set,"
                  " got ", d.core.size(), " vertices");
    }
  } else {
    for (VertexId v = 0; v < n; ++v) {
      if (in_core[v] != (d.klass[v] == VertexClass::kCore)) {
        return Fail("decomposition: vertex ", v,
                    in_core[v] ? " is in the 2-core but not classified core"
                               : " classified core but not in the 2-core");
      }
    }
  }

  // Outside the core, leaves are exactly the degree-one vertices.
  for (VertexId v = 0; v < n; ++v) {
    if (d.klass[v] == VertexClass::kCore) continue;
    const bool degree_one = q.StructuralDegree(v) == 1;
    if (degree_one != (d.klass[v] == VertexClass::kLeaf)) {
      return Fail("decomposition: non-core vertex ", v, " has degree ",
                  q.StructuralDegree(v), " but is classified ",
                  d.klass[v] == VertexClass::kLeaf ? "leaf" : "forest");
    }
  }

  // Connections: exactly the core vertices with a non-core neighbor.
  std::vector<VertexId> expected;
  for (VertexId v : d.core) {
    for (VertexId w : q.Neighbors(v)) {
      if (d.klass[w] != VertexClass::kCore) {
        expected.push_back(v);
        break;
      }
    }
  }
  if (d.connections != expected) {
    return Fail("decomposition: connection vertices disagree with the core "
                "vertices that have non-core neighbors (got ",
                d.connections.size(), ", expected ", expected.size(), ")");
  }

  return ValidationResult::Ok();
}

// ---- ValidateNecClasses ---------------------------------------------------

ValidationResult ValidateNecClasses(
    const Graph& g, const std::vector<std::vector<VertexId>>& classes) {
  const uint32_t n = g.NumVertices();
  std::vector<bool> seen(n, false);
  VertexId prev_first = 0;
  std::map<std::pair<Label, std::vector<VertexId>>, size_t> signatures;

  for (size_t c = 0; c < classes.size(); ++c) {
    const std::vector<VertexId>& members = classes[c];
    if (members.empty()) return Fail("nec: class ", c, " is empty");
    if (!StrictlyAscending(members)) {
      return Fail("nec: class ", c, " members not strictly ascending");
    }
    if (c > 0 && members.front() <= prev_first) {
      return Fail("nec: classes not ordered by first member at class ", c);
    }
    prev_first = members.front();

    const VertexId rep = members.front();
    if (rep >= n) return Fail("nec: vertex ", rep, " out of range");
    std::span<const VertexId> rep_nb = g.Neighbors(rep);
    for (VertexId v : members) {
      if (v >= n) return Fail("nec: vertex ", v, " out of range");
      if (seen[v]) return Fail("nec: vertex ", v, " in two classes");
      seen[v] = true;
      if (g.label(v) != g.label(rep)) {
        return Fail("nec: class ", c, " mixes labels ", g.label(rep),
                    " and ", g.label(v));
      }
      std::span<const VertexId> nb = g.Neighbors(v);
      if (!std::equal(nb.begin(), nb.end(), rep_nb.begin(), rep_nb.end())) {
        return Fail("nec: vertices ", rep, " and ", v, " share class ", c,
                    " but have different neighborhoods");
      }
    }

    // Maximality: no other class may share (label, neighborhood).
    std::pair<Label, std::vector<VertexId>> sig{
        g.label(rep), std::vector<VertexId>(rep_nb.begin(), rep_nb.end())};
    auto [it, inserted] = signatures.emplace(std::move(sig), c);
    if (!inserted) {
      return Fail("nec: classes ", it->second, " and ", c,
                  " are equivalent and should be merged");
    }
  }

  for (VertexId v = 0; v < n; ++v) {
    if (!seen[v]) return Fail("nec: vertex ", v, " missing from partition");
  }
  return ValidationResult::Ok();
}

// ---- ValidateEmbedding ----------------------------------------------------

ValidationResult ValidateEmbedding(const Graph& q, const Graph& data,
                                   const std::vector<VertexId>& mapping) {
  const uint32_t n = q.NumVertices();
  if (mapping.size() != n) {
    return Fail("embedding: maps ", mapping.size(), " of ", n,
                " query vertices");
  }

  std::unordered_map<VertexId, uint32_t> uses;
  for (VertexId u = 0; u < n; ++u) {
    const VertexId v = mapping[u];
    if (v == kInvalidVertex || v >= data.NumVertices()) {
      return Fail("embedding: query vertex ", u, " unmatched or out of "
                  "range");
    }
    if (data.label(v) != q.label(u)) {
      return Fail("embedding: query vertex ", u, " (label ", q.label(u),
                  ") mapped to data vertex ", v, " (label ", data.label(v),
                  ")");
    }
    if (++uses[v] > data.multiplicity(v)) {
      return Fail("embedding: data vertex ", v, " absorbs ", uses[v],
                  " query vertices but has multiplicity ",
                  data.multiplicity(v));
    }
  }

  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w : q.Neighbors(u)) {
      if (w <= u) continue;  // each undirected query edge once
      // Co-mapped adjacent query vertices need a self-loop (clique class).
      if (!data.HasEdge(mapping[u], mapping[w])) {
        return Fail("embedding: query edge (", u, ", ", w,
                    ") has no data edge (", mapping[u], ", ", mapping[w],
                    ")");
      }
    }
  }

  return ValidationResult::Ok();
}

// ---- DebugValidationEnabled -----------------------------------------------

namespace check {

bool DebugValidationEnabled() {
#ifdef CFL_FORCE_VALIDATE
  return true;
#else
  static const bool enabled = [] {
    // Reads the immutable process-env snapshot (check/env.h), never the
    // live environment: safe on query paths of long-lived processes.
    const char* v = env::Get("CFL_VALIDATE");
    return v != nullptr && v[0] != '0';
  }();
  return enabled;
#endif
}

}  // namespace check
}  // namespace cfl
