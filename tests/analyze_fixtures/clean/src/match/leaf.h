// Fixture: the one justified `mutable` in the shape of
// src/match/leaf_match.h (a mutation seed strips the directive's reason).
#ifndef FIX_MATCH_LEAF_H_
#define FIX_MATCH_LEAF_H_

#include <cstdint>
#include <vector>

namespace fix {

class LeafMatcher {
 public:
  uint64_t Count() const;

 private:
  // cfl-analyze: allow(mutable-member) per-call scratch, one matcher per shard
  mutable std::vector<uint32_t> avail_;
};

}  // namespace fix

#endif  // FIX_MATCH_LEAF_H_
