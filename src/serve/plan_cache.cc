#include "serve/plan_cache.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "check/check.h"
#include "serve/canonical.h"

namespace cfl::serve {

namespace {

// Sorted distinct vertex labels of `query` — the invalidation signature.
std::vector<Label> QueryLabels(const Graph& query) {
  std::vector<Label> labels;
  labels.reserve(query.NumVertices());
  for (VertexId u = 0; u < query.NumVertices(); ++u) {
    labels.push_back(query.label(u));
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

}  // namespace

PlanCache::PlanCache(uint64_t max_bytes) : max_bytes_(max_bytes) {}

uint64_t PlanCache::PlanBytes(const Graph& query, const PreparedQuery& plan) {
  // The CPI arena dominates; the representative graph and the order/tree
  // vectors are charged approximately (exactness is not needed for LRU
  // pressure, only monotonicity in actual footprint).
  uint64_t bytes = plan.cpi.MemoryBytes();
  bytes += static_cast<uint64_t>(query.NumVertices()) * sizeof(VertexId) * 8;
  bytes += query.NumEdges() * sizeof(VertexId) * 2;
  bytes += sizeof(PreparedQuery) + sizeof(Entry);
  return bytes;
}

PlanCache::Hit PlanCache::Find(const Graph& query) {
  if (!enabled()) return {};
  const uint64_t hash = CanonicalQueryHash(query);

  MutexLock lock(mu_);
  auto range = index_.equal_range(hash);
  for (auto it = range.first; it != range.second; ++it) {
    std::list<Entry>::iterator entry = it->second;
    std::optional<std::vector<VertexId>> iso =
        FindIsomorphism(query, *entry->representative);
    if (!iso.has_value()) {
      ++stats_.collisions;
      continue;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, entry);  // touch: move to MRU front
    return Hit{entry->plan, *std::move(iso), entry->representative,
               entry->epoch};
  }
  ++stats_.misses;
  return {};
}

std::shared_ptr<const PreparedQuery> PlanCache::Insert(
    std::shared_ptr<const Graph> query, PreparedQuery plan, uint64_t epoch) {
  auto shared = std::make_shared<const PreparedQuery>(std::move(plan));
  if (!enabled()) return shared;

  const uint64_t hash = CanonicalQueryHash(*query);
  const uint64_t bytes = PlanBytes(*query, *shared);
  if (bytes > max_bytes_) return shared;  // would evict everything: skip

  MutexLock lock(mu_);
  // A commit since `epoch` ran its invalidation pass without this plan.
  if (epoch < committed_epoch_) return shared;
  // A racing prepare of an isomorphic query may have populated the bucket
  // already; keep the resident entry (its LRU position is warm) and hand
  // the caller its own plan uncached.
  auto range = index_.equal_range(hash);
  for (auto it = range.first; it != range.second; ++it) {
    if (FindIsomorphism(*query, *it->second->representative).has_value()) {
      return shared;
    }
  }

  std::vector<Label> labels = QueryLabels(*query);
  lru_.push_front(
      Entry{hash, std::move(query), shared, bytes, std::move(labels), epoch});
  index_.emplace(hash, lru_.begin());
  bytes_ += bytes;
  EvictIfOver();
  return shared;
}

void PlanCache::EvictIfOver() {
  while (bytes_ > max_bytes_) {
    CFL_CHECK(!lru_.empty()) << " — cache byte accounting drifted";
    std::list<Entry>::iterator victim = std::prev(lru_.end());
    auto range = index_.equal_range(victim->hash);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == victim) {
        index_.erase(it);
        break;
      }
    }
    bytes_ -= victim->bytes;
    lru_.erase(victim);
    ++stats_.evictions;
  }
}

uint64_t PlanCache::InvalidateLabels(const dyn::DirtyLabels& dirty,
                                     uint64_t epoch) {
  if (!enabled()) return 0;
  MutexLock lock(mu_);
  committed_epoch_ = std::max(committed_epoch_, epoch);
  uint64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (!dirty.Intersects(it->labels)) {
      ++it;
      continue;
    }
    auto range = index_.equal_range(it->hash);
    for (auto idx = range.first; idx != range.second; ++idx) {
      if (idx->second == it) {
        index_.erase(idx);
        break;
      }
    }
    bytes_ -= it->bytes;
    it = lru_.erase(it);
    ++dropped;
  }
  stats_.invalidations += dropped;
  return dropped;
}

PlanCacheStats PlanCache::Stats() {
  MutexLock lock(mu_);
  PlanCacheStats out = stats_;
  out.bytes = bytes_;
  out.entries = lru_.size();
  return out;
}

}  // namespace cfl::serve
