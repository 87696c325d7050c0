#include "dyn/dynamic_graph.h"

#include <utility>

#include "check/check.h"
#include "check/validate.h"
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
    const std::function<void(Epoch, const DirtyLabels&)>& on_commit) {
  delta.Seal();
  // Fold outside mu_: the base is an immutable snapshot the caller holds.
  DirtyLabels dirty;
  std::shared_ptr<const Graph> next;
  if (!delta.empty()) {
    next = std::make_shared<const Graph>(
        FoldDelta(delta.base(), delta, &dirty));
    // Debug builds check every folded epoch structurally before anyone
    // can acquire it, so a slip in the fold's range arithmetic fails here.
    if (check::DebugValidationEnabled()) {
      ValidationResult r = ValidateGraph(*next);
      CFL_CHECK(r.ok) << " — folded epoch invalid: " << r.error;
    }
  }
  MutexLock lock(mu_);
  if (&delta.base() != current_.get()) {
    return "stale delta: the base snapshot is no longer current "
           "(re-acquire and rebuild the batch)";
  }
  if (next != nullptr) {
    current_ = std::move(next);
    ++epoch_;
    if (on_commit != nullptr) on_commit(epoch_, dirty);
  }
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

}  // namespace cfl::dyn
