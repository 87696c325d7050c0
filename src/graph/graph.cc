#include "graph/graph.h"

#include <algorithm>

namespace cfl {

uint32_t Graph::NeighborLabelCount(VertexId v, Label l) const {
  std::span<const LabelCount> runs = NeighborLabelCounts(v);
  auto it = std::lower_bound(
      runs.begin(), runs.end(), l,
      [](const LabelCount& run, Label want) { return run.label < want; });
  if (it == runs.end() || it->label != l) return 0;
  return it->count;
}

uint64_t Graph::MemoryBytes() const {
  uint64_t bytes = 0;
  bytes += offsets_.capacity() * sizeof(uint64_t);
  bytes += neighbors_.capacity() * sizeof(VertexId);
  bytes += labels_.capacity() * sizeof(Label);
  bytes += multiplicity_.capacity() * sizeof(uint32_t);
  bytes += effective_degree_.capacity() * sizeof(uint32_t);
  bytes += label_offsets_.capacity() * sizeof(uint64_t);
  bytes += label_vertices_.capacity() * sizeof(VertexId);
  bytes += label_frequency_.capacity() * sizeof(uint64_t);
  bytes += label_degrees_.capacity() * sizeof(uint32_t);
  bytes += run_offsets_.capacity() * sizeof(uint64_t);
  bytes += runs_.capacity() * sizeof(LabelRun);
  bytes += hub_index_.capacity() * sizeof(uint32_t);
  bytes += hub_bits_.capacity() * sizeof(uint64_t);
  bytes += nlf_.capacity() * sizeof(LabelCount);
  bytes += nlf_mask_.capacity() * sizeof(uint64_t);
  bytes += mnd_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace cfl
