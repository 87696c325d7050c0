#include "dyn/dynamic_graph.h"

#include <utility>

#include "check/check.h"
#include "dyn/fold.h"

namespace cfl::dyn {

DynamicGraph::DynamicGraph(Graph base)
    : current_(std::make_shared<const Graph>(std::move(base))) {
  CFL_CHECK(!current_->HasMultiplicities())
      << " DynamicGraph requires a plain (uncompressed) base graph";
}

Snapshot DynamicGraph::Acquire() {
  MutexLock lock(mu_);
  return Snapshot(current_, epoch_);
}

Epoch DynamicGraph::CurrentEpoch() {
  MutexLock lock(mu_);
  return epoch_;
}

std::optional<std::string> DynamicGraph::Apply(
    GraphDelta&& delta, ApplyResult* result,
    const std::function<void(const DirtyLabels&)>& on_commit) {
  delta.Seal();
  MutexLock lock(mu_);
  if (&delta.base() != current_.get()) {
    return "stale delta: the base snapshot is no longer current "
           "(re-acquire and rebuild the batch)";
  }
  if (delta.empty()) {
    if (result != nullptr) {
      *result = {};
      result->epoch = epoch_;
    }
    return std::nullopt;
  }
  DirtyLabels dirty;
  current_ = std::make_shared<const Graph>(FoldDelta(*current_, delta, &dirty));
  ++epoch_;

  counters_.folds++;

  if (on_commit != nullptr) on_commit(dirty);
  if (result != nullptr) {
    result->epoch = epoch_;
    result->dirty = std::move(dirty);
    result->added_vertices = delta.AddedVertices();
    result->removed_vertices = delta.RemovedVertices();
    result->added_edges = delta.AddedEdges();
    result->removed_edges = delta.RemovedEdges();
  }
  return std::nullopt;
}

obs::DynCounters DynamicGraph::Stats() {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace cfl::dyn
