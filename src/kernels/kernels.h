// Compatibility shim: the benchmark program still prints an `isa` field
// through these names. Backward-edge checks live in match/enumerator.h.
// Delete this header with the next benchmark change (ROADMAP item 9).

#ifndef CFL_KERNELS_KERNELS_H_
#define CFL_KERNELS_KERNELS_H_

#include <cstdint>

namespace cfl::kernels {

enum class Isa : uint8_t { kScalar };

constexpr Isa ActiveIsa() { return Isa::kScalar; }
constexpr const char* IsaName(Isa) { return "scalar"; }

}  // namespace cfl::kernels

#endif  // CFL_KERNELS_KERNELS_H_
