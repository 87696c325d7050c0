// The mutable facade over immutable per-epoch snapshots.
//
// `DynamicGraph` is the one stateful object of the dynamic subsystem. It
// owns the current `Graph` snapshot and the epoch counter. The engine's
// `const Graph&` interface is untouched: a reader calls `Acquire()` and
// gets a `Snapshot` — a shared_ptr to one immutable epoch graph plus that
// epoch's number — and runs the entire prepare/enumerate pipeline against
// that frozen instance while writers commit later epochs alongside. The
// shared_ptr is the whole lifetime story: a superseded graph is freed when
// its last reader drops it, even after the DynamicGraph itself is gone.
//
// Writer path (`Apply`): seal the delta, fold it into a fresh CSR
// (dyn/fold.h) with no lock held — and validate it structurally when
// check::DebugValidationEnabled() — then, under the graph mutex, install it,
// advance the epoch, and report the fold's DirtyLabels so the serve layer
// can invalidate exactly the affected cached plans. A delta whose base is
// no longer current by then is rejected as stale — the caller re-acquires
// and rebuilds its delta (serve/server.cc avoids the case by acquiring,
// building and applying under one commit lock).
//
// There is no compaction: `Graph::DeriveIndexes` makes every fold
// content-equal to a from-scratch build of the same graph, and tombstones
// keep their ids, so a rebuild would install an identical graph.
//
// Lock hierarchy (DESIGN.md §9): mu_ is level 22 — above serve's
// commit_mu_ (20), so an UPDATE's commit -> graph chain ascends.

#ifndef CFL_DYN_DYNAMIC_GRAPH_H_
#define CFL_DYN_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "check/thread_annotations.h"
#include "dyn/delta.h"
#include "graph/graph.h"

namespace cfl::dyn {

// Commit counter: epoch 0 is the base graph, each committed batch adds one.
using Epoch = uint64_t;

// One epoch's immutable graph. Copies share the graph; queries hold one for
// their full lifetime.
class Snapshot {
 public:
  Snapshot(std::shared_ptr<const Graph> graph, Epoch epoch)
      : graph_(std::move(graph)), epoch_(epoch) {}

  const Graph& graph() const { return *graph_; }
  Epoch epoch() const { return epoch_; }

 private:
  std::shared_ptr<const Graph> graph_;
  Epoch epoch_ = 0;
};

// Result of a successful Apply.
struct ApplyResult {
  Epoch epoch = 0;           // the newly committed epoch
  DirtyLabels dirty;         // labels whose candidates changed
  uint32_t added_vertices = 0;
  uint32_t removed_vertices = 0;
  uint64_t added_edges = 0;
  uint64_t removed_edges = 0;
};

class DynamicGraph {
 public:
  explicit DynamicGraph(Graph base);

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  // Returns the current epoch's snapshot.
  Snapshot Acquire() CFL_EXCLUDES(mu_);

  // Builds a delta against `snapshot`'s graph. Convenience for callers
  // that already hold a snapshot (the delta is bound to that instance).
  GraphDelta NewDelta(const Snapshot& snapshot) const {
    return GraphDelta(snapshot.graph());
  }

  // Commits one batch: seals, folds, advances the epoch. Returns an error
  // string when the delta is stale (bound to a superseded snapshot) — the
  // caller should re-acquire and rebuild — or nullopt on success with
  // `result` (optional) filled. An empty delta commits nothing and reports
  // the current epoch.
  //
  // `on_commit`, when given, runs *inside* the commit's critical section,
  // after the new epoch exists but before any Acquire can observe it. The
  // serve layer invalidates its plan cache here: a query that later takes
  // the new epoch can then never hit a plan the batch dirtied (invalidation
  // strictly precedes visibility). The callback must not call back into
  // this DynamicGraph and may only take locks above level 22 (the plan
  // cache's 30 qualifies).
  std::optional<std::string> Apply(
      GraphDelta&& delta, ApplyResult* result = nullptr,
      const std::function<void(Epoch, const DirtyLabels&)>& on_commit =
          nullptr) CFL_EXCLUDES(mu_);

  Epoch CurrentEpoch() CFL_EXCLUDES(mu_);

 private:
  Mutex mu_ CFL_LOCK_LEVEL(22);
  std::shared_ptr<const Graph> current_ CFL_GUARDED_BY(mu_);
  Epoch epoch_ CFL_GUARDED_BY(mu_) = 0;
};

}  // namespace cfl::dyn

#endif  // CFL_DYN_DYNAMIC_GRAPH_H_
