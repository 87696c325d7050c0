// Kernel layer: the enumeration descent's two primitives, behind one
// dispatch-at-startup indirection (DESIGN.md §11). CPI construction needs
// none: it counts with Lemma 5.1's mark array (cpi/cpi_builder.h).
//
//   * Backward-edge verification (`VerifyBackwardEdges`): all backward
//     non-tree edges of an enumeration step, batched against the data
//     graph's per-hub bitmap rows (graph.h) word-at-a-time. The enumerator
//     builds a `BackwardPlan` once per descent (the shallower bindings are
//     fixed for the whole candidate sweep), so per candidate the hub-index
//     lookups and mapping loads are gone and each hub edge is one AND-test.
//   * Software prefetch (`PrefetchSpan`): bounded touch-ahead for the next
//     candidate span / CPI adjacency offsets on the enumeration descent.
//
// Dispatch model: the implementation is selected ONCE, on first use, from
// cpuid (AVX2 when the binary carries the AVX2 tier and the CPU reports
// support) — overridable with CFL_FORCE_SCALAR=1 for testing, which
// also disables prefetch so the scalar configuration is the pure reference.
// Both implementations are always linked; the `scalar` and `avx2`
// namespaces expose them directly so property tests can pit them against
// each other bit-for-bit without touching the global selection.
//
// Semantics contract: for identical inputs every implementation returns
// the same first-failure index from VerifyBackwardEdges. The batched path
// is a perf variant, never a behavioral one; tests/kernels_test.cc enforces
// this across randomized and adversarial inputs.
//
// Raw intrinsics and <immintrin.h> are confined to src/kernels/ by
// tools/cfl_lint (rule `raw-simd`); engine code sees only this header.

#ifndef CFL_KERNELS_KERNELS_H_
#define CFL_KERNELS_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/thread_annotations.h"
#include "graph/graph.h"

namespace cfl::kernels {

// ---- dispatch -----------------------------------------------------------

enum class Isa : uint8_t { kScalar, kAvx2 };

// True iff the AVX2 tier was compiled into this binary
// (x86-64 builds; other architectures link scalar forwarders).
bool Avx2CompiledIn();

// True iff Avx2CompiledIn() and the running CPU reports AVX2.
bool Avx2Available();

// The implementation selected at startup (cpuid + CFL_FORCE_SCALAR).
Isa ActiveIsa();
const char* IsaName(Isa isa);

// True unless CFL_FORCE_SCALAR pinned the pure-scalar configuration.
// Call sites gate their PrefetchSpan calls on this so a forced-scalar run
// measures the genuinely un-accelerated baseline.
bool PrefetchEnabled();

// Test-only: re-point the dispatch table at `isa` (kAvx2 requires
// Avx2Available()). Not thread-safe — call only from single-threaded test
// setup; the normal selection path never mutates after first use.
void ForceIsaForTesting(Isa isa);

// ---- backward-edge verification ----------------------------------------

// One step's backward non-tree edges, resolved against the current partial
// mapping: per edge the mapped data vertex and, when that vertex is a hub,
// the base of its bitmap row (nullptr otherwise). Rebuilt by the enumerator
// on every descent; `Reset` keeps the vector's capacity across rebuilds.
struct BackwardPlan {
  struct Edge {
    const uint64_t* row;  // hub bitmap row of `mapped`, or nullptr
    VertexId mapped;      // M(w) for backward endpoint w
  };
  std::vector<Edge> edges;
  bool all_hub = true;  // every edge has a row => pure bit-parallel pass

  void Reset() {
    edges.clear();
    all_hub = true;
  }
  void Add(const Graph& data, VertexId mapped) {
    const uint64_t* row = data.HubRowWords(mapped);
    if (row == nullptr) all_hub = false;
    edges.push_back({row, mapped});
  }
};

// Verifies that candidate `v` is adjacent to every mapped endpoint in
// `plan`, in plan order. Returns the index of the first failing edge, or
// plan.edges.size() when all pass — callers derive both the accept/reject
// decision and the exact probes-performed count (stats) from it.
uint32_t VerifyBackwardEdges(const Graph& data, const BackwardPlan& plan,
                             VertexId v);

// ---- prefetch -----------------------------------------------------------

// Read-prefetches the first cache lines of [p, p + bytes) — bounded to a
// few lines so a huge span cannot flush the cache. Safe on any address;
// purely a hint. Call sites gate on PrefetchEnabled().
void PrefetchSpan(const void* p, size_t bytes);

// ---- per-implementation entry points (tests, dispatch internals) --------

// The scalar reference: per-edge probes in plan order. Always available,
// on every architecture.
namespace scalar {
uint32_t VerifyBackwardEdges(const Graph& data, const BackwardPlan& plan,
                             VertexId v);
}  // namespace scalar

// The AVX2-tier implementation. Only selected when Avx2Available(); on
// builds without the AVX2 tier these symbols forward to scalar (and
// Avx2CompiledIn() is false).
namespace avx2 {
uint32_t VerifyBackwardEdges(const Graph& data, const BackwardPlan& plan,
                             VertexId v);
}  // namespace avx2

// ---- implementation of the inline hot-path wrappers ---------------------

namespace detail {
struct Dispatch {
  Isa isa = Isa::kScalar;
  bool prefetch = false;
  uint32_t (*verify)(const Graph&, const BackwardPlan&, VertexId) = nullptr;
};

// Out-of-line slow path: builds the table on first use (thread-safe
// function-local static) and publishes it through `active_ptr`.
const Dispatch& ActiveSlow();

// Published table pointer. On x86 the acquire load is a plain load, so the
// hot path pays one load + one predictable branch instead of a function
// call with a static-init guard per kernel invocation. The one-time
// initialization (and ForceIsaForTesting) goes through ActiveSlow().
extern std::atomic<const Dispatch*> active_ptr CFL_ATOMIC_INTENT(publish);

inline const Dispatch& Active() {
  const Dispatch* d = active_ptr.load(std::memory_order_acquire);
  return d != nullptr ? *d : ActiveSlow();
}
}  // namespace detail

inline uint32_t VerifyBackwardEdges(const Graph& data,
                                    const BackwardPlan& plan, VertexId v) {
  // The implementations only diverge on the batched all-hub path; small or
  // mixed plans take the same per-edge probes everywhere, so run them
  // inline and keep the dispatch indirection off the 1-2 edge common case.
  const size_t n = plan.edges.size();
  if (!plan.all_hub || n < 4) {
    for (size_t k = 0; k < n; ++k) {
      const BackwardPlan::Edge& e = plan.edges[k];
      const bool adjacent = e.row != nullptr
                                ? ((e.row[v >> 6] >> (v & 63)) & 1u) != 0
                                : data.HasEdge(e.mapped, v);
      if (!adjacent) return static_cast<uint32_t>(k);
    }
    return static_cast<uint32_t>(n);
  }
  return detail::Active().verify(data, plan, v);
}

inline bool PrefetchEnabled() { return detail::Active().prefetch; }

inline void PrefetchSpan(const void* p, size_t bytes) {
  // At most 4 lines: enough to cover a typical adjacency-offset pair or the
  // head of a candidate span without displacing hot lines.
  constexpr size_t kLine = 64;
  constexpr size_t kMaxLines = 4;
  const char* c = static_cast<const char*>(p);
  const size_t lines = bytes == 0 ? 0 : (bytes - 1) / kLine + 1;
  const size_t n = lines < kMaxLines ? lines : kMaxLines;
  for (size_t i = 0; i < n; ++i) {
    __builtin_prefetch(c + i * kLine, /*rw=*/0, /*locality=*/1);
  }
}

}  // namespace cfl::kernels

#endif  // CFL_KERNELS_KERNELS_H_
