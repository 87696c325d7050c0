// Folding a sealed GraphDelta into a fresh epoch Graph.
//
// Each committed batch produces a brand-new immutable `Graph` — the next
// epoch's snapshot — while queries holding older epochs keep reading
// their own instances untouched (dyn/dynamic_graph.h). The fold is
// *incremental*: it never re-sorts the data graph. Untouched vertices'
// adjacency slices are block-copied from the base CSR; touched vertices
// get their post-delta lists from the delta's linear three-way merge (base
// run ∪ added − removed, already (label, id)-ordered). Every derived index
// then comes from `Graph::DeriveIndexes` (graph/derived_index.cc), the
// same function `GraphBuilder` calls, under one rule: copy when untouched,
// derive when touched.
//
//   * label runs / degrees / NLF / hub rows: touched vertices derive theirs
//     from the merged adjacency; untouched ones copy the base's (hub rows
//     re-strided with a zero tail, since untouched vertices cannot be
//     adjacent to batch-added ids),
//   * max-neighbor-degree: touched vertices plus their new neighbors (a
//     removed edge's far endpoint is itself touched, so that set covers
//     every vertex whose neighborhood degrees moved),
//   * label index and hub threshold settlement: one linear pass over the
//     whole graph, exactly as in a build.
//
// The output is content-equal to `GraphBuilder` over the post-delta edge
// set — same CSR bytes, same indexes, same hub threshold settlement — which
// tests/dyn_epoch_test.cc checks field by field and the update-vs-rebuild
// oracle (tests/dyn_oracle_test.cc) checks end to end through every
// engine's embeddings.
//
// FoldDelta also reports the delta's DirtyLabels (delta.h): the exact label
// set the serve layer uses to invalidate cached plans.

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
