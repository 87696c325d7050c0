// Folding a sealed GraphDelta into a fresh epoch Graph.
//
// Each committed batch produces a brand-new immutable `Graph` — the next
// epoch's snapshot — while queries holding older epochs keep reading
// their own instances untouched (dyn/dynamic_graph.h). The fold is
// *incremental*: it never re-sorts the data graph. It walks the delta's
// sorted touched list (graph/vertex_ranges.h): each maximal untouched id
// range copies its base adjacency slice with one insert and its offsets as
// the base's plus one shift; touched vertices get their post-delta lists
// from the delta's linear three-way merge (base run ∪ added − removed,
// already (label, id)-ordered). Every derived index then comes from
// `Graph::DeriveIndexes` (graph/derived_index.cc), the same function
// `GraphBuilder` calls, under one rule: copy when untouched, derive when
// touched.
//
// Cost model, for a batch touching T vertices of total degree D:
//   * O(T + D): the merges, the touched vertices' derived entries, mnd of
//     the touched set and its neighbours, and DirtyLabels.
//   * bulk copies of every per-vertex array, one per array or per
//     untouched id range; no per-vertex test or lookup. On the 25K-vertex,
//     50-label synthetic graph that is the whole 3.8 MB graph (CSR and
//     labels 1.1 MB, runs and NLF 1.9 MB, the rest 0.8 MB), and a 16-op
//     batch folds in about 0.34 ms, against 0.27 ms for a plain 3.8 MB
//     copy (4-core x86 host, RelWithDebInfo; bench_micro BM_FoldDelta).
//   * O(|V|) passes over the offsets: the hub-threshold count and, on a
//     graph with hubs, the hub row layout (untouched hubs' rows copied);
//     and, only when a batch adds a vertex, the label index rebuild
//     (derived_index.cc).
//
// The output is content-equal to `GraphBuilder` over the post-delta edge
// set — same CSR bytes, same indexes, same hub threshold settlement, same
// footprint — which tests/dyn_epoch_test.cc checks field by field and the
// update-vs-rebuild oracle (tests/dyn_oracle_test.cc) checks end to end
// through every engine's embeddings.
//
// FoldDelta also reports the delta's DirtyLabels (delta.h): the exact label
// set the serve layer uses to invalidate cached plans, from the touched
// list and the neighbours whose mnd DeriveIndexes recomputed.

#ifndef CFL_DYN_FOLD_H_
#define CFL_DYN_FOLD_H_

#include "dyn/delta.h"
#include "graph/graph.h"

namespace cfl::dyn {

// Builds the post-delta snapshot. `delta` must be sealed and bound to
// `base` (CFL_CHECK otherwise). When `dirty` is non-null it receives the
// labels whose candidate populations changed (sorted, deduped).
Graph FoldDelta(const Graph& base, const GraphDelta& delta,
                DirtyLabels* dirty = nullptr);

}  // namespace cfl::dyn

#endif  // CFL_DYN_FOLD_H_
