#include "dyn/delta.h"

#include <algorithm>
#include <sstream>

#include "check/check.h"

namespace cfl::dyn {

bool DirtyLabels::Contains(Label l) const {
  return std::binary_search(labels.begin(), labels.end(), l);
}

bool DirtyLabels::Intersects(std::span<const Label> sorted) const {
  auto a = labels.begin();
  auto b = sorted.begin();
  while (a != labels.end() && b != sorted.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

GraphDelta::GraphDelta(const Graph& base) : base_(&base) {
  // Multiplicity-compressed graphs alias many original vertices behind one
  // id; a single edge op would have no well-defined expansion. Dynamics are
  // defined on plain graphs only.
  CFL_CHECK(!base.HasMultiplicities())
      << " GraphDelta requires a plain (uncompressed) base graph";
}

bool GraphDelta::Fail(const std::string& message) {
  error_ = message;
  return false;
}

Label GraphDelta::LabelOf(VertexId v) const {
  if (v < BaseVertices()) return base_->label(v);
  CFL_CHECK(v < NewVertices()) << " LabelOf(" << v << ") out of range";
  return added_labels_[v - BaseVertices()];
}

const GraphDelta::PerVertex* GraphDelta::Find(VertexId v) const {
  auto it = per_vertex_.find(v);
  return it == per_vertex_.end() ? nullptr : &it->second;
}

bool GraphDelta::HasEdgeNow(VertexId u, VertexId v) const {
  const PerVertex* pu = Find(u);
  if (pu != nullptr) {
    if (sealed_) {
      if (std::find(pu->added.begin(), pu->added.end(), v) != pu->added.end())
        return true;
      if (std::find(pu->removed.begin(), pu->removed.end(), v) !=
          pu->removed.end())
        return false;
    } else {
      if (pu->add_set.count(v) != 0) return true;
      if (pu->remove_set.count(v) != 0) return false;
    }
  }
  if (u >= BaseVertices() || v >= BaseVertices()) return false;
  return base_->HasEdge(u, v);
}

bool GraphDelta::AddVertex(Label label, VertexId* id_out) {
  if (sealed_) return Fail("delta is sealed");
  const VertexId id = NewVertices();
  added_labels_.push_back(label);
  // Materialize the per-vertex slot so the vertex counts as touched (its
  // adjacency "changed" from nonexistent to empty).
  per_vertex_[id];
  if (id_out != nullptr) *id_out = id;
  return true;
}

bool GraphDelta::RemoveVertex(VertexId v) {
  if (sealed_) return Fail("delta is sealed");
  if (v >= NewVertices()) return Fail("remove of unknown vertex");
  if (v >= BaseVertices())
    return Fail("remove of a vertex added in the same batch");
  if (VertexRemoved(v)) return Fail("vertex already removed");
  // Drop every currently-present incident edge: the base adjacency minus
  // in-batch removals, plus in-batch additions.
  std::vector<VertexId> incident;
  for (VertexId w : base_->Neighbors(v)) {
    if (HasEdgeNow(v, w)) incident.push_back(w);
  }
  if (const PerVertex* pv = Find(v); pv != nullptr) {
    for (VertexId w : pv->add_set) incident.push_back(w);
  }
  for (VertexId w : incident) RecordRemove(v, w);
  removed_vertices_.insert(v);
  per_vertex_[v];  // removed vertices are always touched
  return true;
}

bool GraphDelta::AddEdge(VertexId u, VertexId v) {
  if (sealed_) return Fail("delta is sealed");
  if (u == v) return Fail("self-loops are not supported on dynamic graphs");
  if (!VertexAlive(u) || !VertexAlive(v)) {
    std::ostringstream msg;
    msg << "edge (" << u << ", " << v << ") touches a dead or unknown vertex";
    return Fail(msg.str());
  }
  if (HasEdgeNow(u, v)) {
    std::ostringstream msg;
    msg << "edge (" << u << ", " << v << ") already present";
    return Fail(msg.str());
  }
  RecordAdd(u, v);
  return true;
}

bool GraphDelta::RemoveEdge(VertexId u, VertexId v) {
  if (sealed_) return Fail("delta is sealed");
  if (!VertexAlive(u) || !VertexAlive(v)) {
    std::ostringstream msg;
    msg << "edge (" << u << ", " << v << ") touches a dead or unknown vertex";
    return Fail(msg.str());
  }
  if (!HasEdgeNow(u, v)) {
    std::ostringstream msg;
    msg << "edge (" << u << ", " << v << ") not present";
    return Fail(msg.str());
  }
  RecordRemove(u, v);
  return true;
}

void GraphDelta::RecordAdd(VertexId u, VertexId v) {
  // Removing then re-adding a base edge nets to nothing; adding a brand-new
  // edge is recorded. Symmetric on both endpoints.
  for (int side = 0; side < 2; ++side) {
    PerVertex& p = per_vertex_[side == 0 ? u : v];
    const VertexId w = side == 0 ? v : u;
    if (p.remove_set.erase(w) == 0) p.add_set.insert(w);
  }
  ++added_edges_;
}

void GraphDelta::RecordRemove(VertexId u, VertexId v) {
  for (int side = 0; side < 2; ++side) {
    PerVertex& p = per_vertex_[side == 0 ? u : v];
    const VertexId w = side == 0 ? v : u;
    if (p.add_set.erase(w) == 0) p.remove_set.insert(w);
  }
  ++removed_edges_;
}

void GraphDelta::Seal() {
  if (sealed_) return;
  sealed_ = true;
  touched_.reserve(per_vertex_.size());
  auto label_id_less = [this](VertexId a, VertexId b) {
    const Label la = LabelOf(a);
    const Label lb = LabelOf(b);
    return la != lb ? la < lb : a < b;
  };
  for (auto it = per_vertex_.begin(); it != per_vertex_.end();) {
    PerVertex& p = it->second;
    p.added.assign(p.add_set.begin(), p.add_set.end());
    p.removed.assign(p.remove_set.begin(), p.remove_set.end());
    p.add_set.clear();
    p.remove_set.clear();
    // A vertex whose ops all cancelled is not touched — unless it was
    // added or tombstoned this batch (degree-zero slots still matter to
    // the fold's label index and NLF rewrite).
    const VertexId v = it->first;
    if (p.added.empty() && p.removed.empty() && v < BaseVertices() &&
        !VertexRemoved(v)) {
      it = per_vertex_.erase(it);
      continue;
    }
    std::sort(p.added.begin(), p.added.end(), label_id_less);
    std::sort(p.removed.begin(), p.removed.end(), label_id_less);
    touched_.push_back(v);
    ++it;
  }
  std::sort(touched_.begin(), touched_.end());
}

std::span<const VertexId> GraphDelta::Touched() const {
  CFL_CHECK(sealed_) << " Touched() before Seal()";
  return touched_;
}

std::span<const VertexId> GraphDelta::Added(VertexId v) const {
  CFL_CHECK(sealed_) << " Added() before Seal()";
  const PerVertex* p = Find(v);
  if (p == nullptr) return {};
  return p->added;
}

std::span<const VertexId> GraphDelta::Removed(VertexId v) const {
  CFL_CHECK(sealed_) << " Removed() before Seal()";
  const PerVertex* p = Find(v);
  if (p == nullptr) return {};
  return p->removed;
}

void GraphDelta::MergedNeighborsWithLabel(VertexId v, Label l,
                                          std::vector<VertexId>* out) const {
  CFL_CHECK(sealed_) << " merge before Seal()";
  std::span<const VertexId> base_run =
      v < BaseVertices() ? base_->NeighborsWithLabel(v, l)
                         : std::span<const VertexId>{};
  const PerVertex* p = Find(v);
  if (p == nullptr) {
    out->insert(out->end(), base_run.begin(), base_run.end());
    return;
  }
  // Slice the (label, id)-sorted delta vectors down to label l.
  auto slice = [&](const std::vector<VertexId>& vec) {
    auto lo = std::lower_bound(vec.begin(), vec.end(), l,
                               [this](VertexId w, Label want) {
                                 return LabelOf(w) < want;
                               });
    auto hi = lo;
    while (hi != vec.end() && LabelOf(*hi) == l) ++hi;
    return std::span<const VertexId>(vec.data() + (lo - vec.begin()),
                                     static_cast<size_t>(hi - lo));
  };
  std::span<const VertexId> add = slice(p->added);
  std::span<const VertexId> rem = slice(p->removed);
  // Three-way linear merge: (base_run \ rem) ∪ add, ascending by id. All
  // three inputs are ascending; removed ⊆ base_run and add ∩ base_run = ∅
  // by construction.
  auto bi = base_run.begin();
  auto ai = add.begin();
  auto ri = rem.begin();
  while (bi != base_run.end() || ai != add.end()) {
    if (ai == add.end() || (bi != base_run.end() && *bi < *ai)) {
      if (ri != rem.end() && *ri == *bi) {
        ++ri;
      } else {
        out->push_back(*bi);
      }
      ++bi;
    } else {
      out->push_back(*ai);
      ++ai;
    }
  }
}

void GraphDelta::MergedNeighbors(VertexId v, std::vector<VertexId>* out) const {
  CFL_CHECK(sealed_) << " merge before Seal()";
  out->clear();
  if (VertexRemoved(v)) return;
  // Walk the union of base run labels and delta-added labels in ascending
  // label order, merging each label run independently.
  std::span<const Graph::LabelRun> base_runs =
      v < BaseVertices() ? base_->AdjacencyLabelRuns(v)
                         : std::span<const Graph::LabelRun>{};
  std::span<const VertexId> add = Added(v);
  size_t run = 0;
  size_t a = 0;
  Label prev = kInvalidVertex;  // sentinel: no label processed yet
  while (run < base_runs.size() || a < add.size()) {
    Label next;
    if (run >= base_runs.size()) {
      next = LabelOf(add[a]);
    } else if (a >= add.size()) {
      next = base_runs[run].label;
    } else {
      next = std::min(base_runs[run].label, LabelOf(add[a]));
    }
    if (next != prev) MergedNeighborsWithLabel(v, next, out);
    prev = next;
    if (run < base_runs.size() && base_runs[run].label == next) ++run;
    while (a < add.size() && LabelOf(add[a]) == next) ++a;
  }
}

}  // namespace cfl::dyn
