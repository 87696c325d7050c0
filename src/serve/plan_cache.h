// Plan/CPI cache: isomorphic queries share one PreparedQuery.
//
// The expensive half of a CFL-Match query is Prepare (decomposition + CPI
// construction + ordering); a resident server replaying a workload mix sees
// the same query *shapes* over and over, usually under different vertex
// numberings. The cache keys plans by the canonical WL hash
// (serve/canonical.h) and confirms candidate hits with an explicit
// isomorphism onto the bucket's representative query, which doubles as the
// vertex remap for translating streamed embeddings back to the caller's
// numbering. Counting queries need no translation at all.
//
// Eviction is LRU by *bytes* (Cpi::MemoryBytes dominates a plan's arena
// footprint), not by entry count: one giant CPI can be worth a hundred
// small ones. A plan larger than the whole budget is returned to the caller
// uncached.
//
// Dynamic data graphs: a cached plan's CPI holds *data* vertex candidates,
// so a committed update can silently stale it. Each entry records the
// sorted label set of its representative query; `InvalidateLabels` drops
// exactly the entries whose label set intersects an update's dirty-label
// set (dyn/delta.h — labels whose candidate populations changed). Entries
// with disjoint labels are provably unaffected: every changed edge has two
// touched (hence dirty-labeled) endpoints, so no edge between
// clean-labeled vertices moved, and their NLF/MND signatures are intact —
// those plans keep producing bit-identical results on the new epoch
// (proved by tests/serve_test.cc). The server calls InvalidateLabels from
// DynamicGraph::Apply's on_commit hook, i.e. before the new epoch is
// visible to any query, so a query can never hit a plan its own epoch
// dirtied. The same call records the epoch, and Insert passes a plan
// prepared against an older epoch through uncached, since that commit's
// invalidation pass never saw it; both run under the cache mutex.
//
// Thread-safe: one mutex guards the map + LRU list; PreparedQuery itself is
// immutable after build, so handed-out shared_ptrs stay valid after
// eviction — eviction only drops the cache's reference.

#ifndef CFL_SERVE_PLAN_CACHE_H_
#define CFL_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "check/thread_annotations.h"
#include "dyn/delta.h"
#include "graph/graph.h"
#include "match/cfl_match.h"

namespace cfl::serve {

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  // Same-hash candidates that failed the isomorphism confirmation (WL
  // collisions between non-isomorphic queries). High values mean the hash
  // is degrading into a scan, not that results are wrong.
  uint64_t collisions = 0;
  // Entries dropped by InvalidateLabels (update-driven, distinct from LRU
  // evictions).
  uint64_t invalidations = 0;
  uint64_t bytes = 0;    // current resident plan bytes
  uint64_t entries = 0;  // current resident plan count
};

class PlanCache {
 public:
  struct Hit {
    std::shared_ptr<const PreparedQuery> plan;
    // remap[caller vertex] = representative vertex: apply to query vertices
    // before consulting the plan, and invert embeddings on the way out as
    // result[caller vertex] = plan_embedding[remap[caller vertex]].
    std::vector<VertexId> remap;
    // The representative query graph the plan was prepared from — the
    // enumerator needs the graph matching the plan's vertex numbering.
    std::shared_ptr<const Graph> representative;
    // Epoch the plan was prepared against. Valid for every epoch >= this
    // one the entry survives to (surviving a commit proves disjointness);
    // a reader pinned *before* it must treat the hit as a miss — it cannot
    // know whether the intervening batch dirtied the plan's labels.
    uint64_t epoch = 0;
  };

  // `max_bytes` == 0 disables caching entirely (every Find misses, Insert
  // is a no-op pass-through) — the load driver's cache-OFF mode.
  explicit PlanCache(uint64_t max_bytes);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  bool enabled() const { return max_bytes_ > 0; }
  uint64_t max_bytes() const { return max_bytes_; }

  // Looks up a plan for a query isomorphic to `query`. On a hit the entry
  // is touched to the LRU front. Returns an empty Hit (null plan) on miss.
  Hit Find(const Graph& query) CFL_EXCLUDES(mu_);

  // Registers a plan freshly prepared from `query` (identity remap) against
  // data epoch `epoch`. The cache shares `query` as the bucket
  // representative. Returns the shared plan so the caller enumerates from
  // the same object it cached. Oversized plans (> max_bytes), duplicate
  // buckets (a racing insert of an isomorphic query) and plans older than
  // the last committed epoch are passed through uncached.
  std::shared_ptr<const PreparedQuery> Insert(
      std::shared_ptr<const Graph> query, PreparedQuery plan,
      uint64_t epoch = 0) CFL_EXCLUDES(mu_);

  // Records `epoch` as committed and drops every entry whose query label
  // set intersects `dirty`, the batch that made it; returns the number
  // dropped (and counts them in stats().invalidations).
  uint64_t InvalidateLabels(const dyn::DirtyLabels& dirty, uint64_t epoch)
      CFL_EXCLUDES(mu_);

  PlanCacheStats Stats() CFL_EXCLUDES(mu_);

 private:
  struct Entry {
    uint64_t hash = 0;
    std::shared_ptr<const Graph> representative;
    std::shared_ptr<const PreparedQuery> plan;
    uint64_t bytes = 0;
    // Sorted distinct labels of the representative query: the entry's
    // invalidation signature.
    std::vector<Label> labels;
    // Epoch the plan was prepared against (see Hit::epoch).
    uint64_t epoch = 0;
  };

  static uint64_t PlanBytes(const Graph& query, const PreparedQuery& plan);

  void EvictIfOver() CFL_REQUIRES(mu_);

  const uint64_t max_bytes_;

  Mutex mu_ CFL_LOCK_LEVEL(30);
  // Recency list, front = most recently used; the list *is* the storage.
  std::list<Entry> lru_ CFL_GUARDED_BY(mu_);
  // hash -> entries (multimap: distinct query shapes can share a WL hash).
  std::multimap<uint64_t, std::list<Entry>::iterator> index_
      CFL_GUARDED_BY(mu_);
  uint64_t bytes_ CFL_GUARDED_BY(mu_) = 0;
  // Newest epoch passed to InvalidateLabels; Insert caches no older plan.
  uint64_t committed_epoch_ CFL_GUARDED_BY(mu_) = 0;
  PlanCacheStats stats_ CFL_GUARDED_BY(mu_);
};

}  // namespace cfl::serve

#endif  // CFL_SERVE_PLAN_CACHE_H_
