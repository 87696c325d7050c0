// Fixture: the escape hatch — a documented allow suppresses narrowing.
#include <cstdint>
#include <vector>

namespace fix {

uint32_t Bounded(const std::vector<int>& v) {
  // cfl-analyze: allow(narrowing) fixture: size bounded by construction
  return static_cast<uint32_t>(v.size());
}

}  // namespace fix
