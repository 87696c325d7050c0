// Common types for subgraph-matching engines: embeddings, enumeration
// limits, deadlines, and result statistics.

#ifndef CFL_MATCH_EMBEDDING_H_
#define CFL_MATCH_EMBEDDING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "obs/clock.h"
#include "obs/stats.h"

namespace cfl {

// An embedding maps query vertex u to Embedding[u] in the data graph.
// Entries are kInvalidVertex for unmatched vertices of partial embeddings.
using Embedding = std::vector<VertexId>;

// Invoked per enumerated embedding; return false to stop enumeration.
using EmbeddingCallback = std::function<bool(const Embedding&)>;

inline constexpr uint64_t kNoLimit = static_cast<uint64_t>(-1);

// Enumeration limits shared by every engine. The paper caps #embeddings
// (default 1e5) and uses a wall-clock limit, reporting "INF" on timeout.
struct MatchLimits {
  uint64_t max_embeddings = kNoLimit;
  double time_limit_seconds = 0.0;  // <= 0 disables the deadline
};

// Cheap cooperative deadline: engines call Expired() every few thousand
// search steps.
class Deadline {
 public:
  // Expires `seconds` after `start`; seconds <= 0 constructs a
  // never-expiring deadline.
  explicit Deadline(double seconds, obs::TimePoint start = obs::Now()) {
    if (seconds > 0.0) {
      expires_at_ = obs::AfterSeconds(start, seconds);
      armed_ = true;
    }
  }

  bool Expired() const { return armed_ && obs::Now() >= expires_at_; }

  // Amortizes the clock read: returns true at most once per kStride calls
  // plus whenever already known-expired.
  bool ExpiredCoarse() {
    if (!armed_) return false;
    if (expired_) return true;
    if (++ticks_ % kStride != 0) return false;
    expired_ = Expired();
    return expired_;
  }

 private:
  static constexpr uint32_t kStride = 4096;
  obs::TimePoint expires_at_{};
  bool armed_ = false;
  bool expired_ = false;
  uint32_t ticks_ = 0;
};

// Per-query outcome and timing breakdown. The paper's "query vertex
// ordering time" corresponds to build_seconds + order_seconds (matching
// order *and* the auxiliary structures needed to compute it); its
// "embedding enumeration time" is enumerate_seconds.
struct MatchResult {
  uint64_t embeddings = 0;
  bool reached_limit = false;  // stopped at max_embeddings
  bool timed_out = false;      // deadline expired; counts are partial

  double build_seconds = 0.0;      // auxiliary structure (CPI / CR / ...)
  double order_seconds = 0.0;      // matching-order computation
  double enumerate_seconds = 0.0;  // embedding enumeration
  double total_seconds = 0.0;

  uint64_t index_entries = 0;  // auxiliary structure size (Figure 16(d))

  // Search-effort counters (CFL engines): candidate bindings attempted and
  // accepted during backtracking — the observable face of the cost model's
  // sum over d_i^j. Useful for ablation analysis; zero for engines that do
  // not report them.
  uint64_t candidates_tried = 0;
  uint64_t candidates_bound = 0;

  // Detailed execution stats (src/obs/stats.h). Fields stay zero when the
  // engine does not record them or the build has CFL_STATS=OFF; check
  // stats.recorded before interpreting.
  MatchStats stats;

  double OrderingSeconds() const { return build_seconds + order_seconds; }
};

// Saturating helpers for embedding arithmetic (counts can overflow when
// leaf-match multiplies class counts on dense graphs).
inline uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  return s < a ? kNoLimit : s;
}
inline uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kNoLimit / b) return kNoLimit;
  return a * b;
}

// Number of distinct expanded embeddings one embedding into a *compressed*
// data graph stands for: a hypervertex v hosting j query vertices offers
// P(multiplicity(v), j) ordered member assignments. Returns 1 on plain
// graphs. Unmatched (kInvalidVertex) entries are skipped.
uint64_t ExpansionFactor(const Graph& data, const Embedding& mapping);

}  // namespace cfl

#endif  // CFL_MATCH_EMBEDDING_H_
