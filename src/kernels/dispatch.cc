// Implementation selection for the kernel layer. The dispatch table is
// built exactly once, inside a function-local static, from two inputs:
// whether this binary carries the AVX2 translation unit and the CPU reports
// AVX2 (cpuid via __builtin_cpu_supports), and whether CFL_FORCE_SCALAR
// pins the scalar reference. Reads go through cfl::env's immutable snapshot
// so the selection is safe to trigger from any thread at any time.
//
// On builds without the AVX2 tier (non-x86 targets), the cfl::kernels::avx2
// symbols are defined here as forwarders to scalar so the property tests
// link everywhere; Avx2CompiledIn() tells them apart.

#include <cstring>

#include "check/env.h"
#include "kernels/kernels.h"

namespace cfl::kernels {

namespace {

bool ForceScalar() {
  const char* v = env::Get("CFL_FORCE_SCALAR");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

detail::Dispatch MakeDispatch(Isa isa) {
  detail::Dispatch d;
  d.isa = isa;
  if (isa == Isa::kAvx2) {
    d.prefetch = true;
    d.verify = &avx2::VerifyBackwardEdges;
  } else {
    d.prefetch = false;
    d.verify = &scalar::VerifyBackwardEdges;
  }
  return d;
}

detail::Dispatch& MutableActive() {
  static detail::Dispatch dispatch = MakeDispatch(
      !ForceScalar() && Avx2Available() ? Isa::kAvx2 : Isa::kScalar);
  return dispatch;
}

}  // namespace

bool Avx2CompiledIn() {
#if defined(CFL_KERNELS_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool Avx2Available() {
#if defined(CFL_KERNELS_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa ActiveIsa() { return detail::Active().isa; }

const char* IsaName(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

void ForceIsaForTesting(Isa isa) {
  detail::Dispatch& d = MutableActive();
  d = MakeDispatch(isa);
  detail::active_ptr.store(&d, std::memory_order_release);
}

namespace detail {
std::atomic<const Dispatch*> active_ptr CFL_ATOMIC_INTENT(publish){nullptr};

const Dispatch& ActiveSlow() {
  Dispatch& d = MutableActive();
  active_ptr.store(&d, std::memory_order_release);
  return d;
}
}  // namespace detail

#if !defined(CFL_KERNELS_HAVE_AVX2)
// Non-x86 builds: the avx2 entry points exist (tests reference them) but
// forward to the scalar reference; dispatch never selects them.
namespace avx2 {
uint32_t VerifyBackwardEdges(const Graph& data, const BackwardPlan& plan,
                             VertexId v) {
  return scalar::VerifyBackwardEdges(data, plan, v);
}
}  // namespace avx2
#endif  // !CFL_KERNELS_HAVE_AVX2

}  // namespace cfl::kernels
