// Machine-checked concurrency contracts.
//
// PR 2's parallel enumerator rests on disciplines that used to live only in
// comments: "one Run at a time per pool", "a built Cpi is immutable", "every
// field shared across workers is lock-guarded or atomic". tsan catches the
// violations the tests happen to execute; Clang's Thread Safety Analysis
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) proves every
// compiled path, before a scheduler ever has to get unlucky. This header is
// the whole substrate:
//
//   * CFL_CAPABILITY / CFL_GUARDED_BY / CFL_REQUIRES / CFL_ACQUIRE /
//     CFL_RELEASE / CFL_EXCLUDES ... — portable spellings of the TSA
//     attributes. They expand to `__attribute__((...))` under Clang and to
//     nothing elsewhere, so GCC builds are unaffected while any Clang build
//     (the `lint` CI job compiles the tree with
//     -Wthread-safety -Werror=thread-safety) checks the contracts.
//
//   * cfl::Mutex / cfl::MutexLock / cfl::CondVar — annotated wrappers over
//     the std primitives. Library code must use these instead of raw
//     std::mutex / std::condition_variable members (tools/cfl_lint rule
//     `raw-mutex`): a raw member is invisible to the analysis, so a missed
//     lock around a CFL_GUARDED_BY field would compile silently.
//
//   * CFL_IMMUTABLE_AFTER_BUILD — marker for classes whose instances are
//     frozen once construction/build completes (Graph, Cpi, PreparedQuery)
//     and may therefore be shared by reference across enumeration workers
//     with no synchronization at all. cfl_lint (rule `immutable-class`)
//     statically enforces what the marker promises: no non-const public
//     methods (constructors and assignment excepted — freezing happens at
//     build, not at birth), no `mutable` members, no `const_cast` to pierce
//     the contract.
//
// Header-only and dependency-free (like check.h) so the bottom-most
// libraries can take the marker without a link dependency.

#ifndef CFL_CHECK_THREAD_ANNOTATIONS_H_
#define CFL_CHECK_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>
#include <utility>

#if defined(__clang__)
#define CFL_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CFL_THREAD_ANNOTATION_(x)  // no-op: GCC/MSVC lack the analysis
#endif

// A type that acts as a capability (lockable); the string names the kind.
#define CFL_CAPABILITY(x) CFL_THREAD_ANNOTATION_(capability(x))

// An RAII type whose lifetime acquires/releases a capability.
#define CFL_SCOPED_CAPABILITY CFL_THREAD_ANNOTATION_(scoped_lockable)

// Field is protected by the given capability; reads and writes require it.
#define CFL_GUARDED_BY(x) CFL_THREAD_ANNOTATION_(guarded_by(x))

// Pointer field whose *pointee* is protected by the given capability.
#define CFL_PT_GUARDED_BY(x) CFL_THREAD_ANNOTATION_(pt_guarded_by(x))

// Function acquires / releases the capability (or `this` if no argument).
#define CFL_ACQUIRE(...) \
  CFL_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define CFL_RELEASE(...) \
  CFL_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define CFL_TRY_ACQUIRE(...) \
  CFL_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Caller must hold / must not hold the capability.
#define CFL_REQUIRES(...) \
  CFL_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define CFL_EXCLUDES(...) CFL_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Runtime-verified "the capability is held here" (for code the analysis
// cannot follow, e.g. callbacks re-entered under a caller's lock).
#define CFL_ASSERT_CAPABILITY(x) \
  CFL_THREAD_ANNOTATION_(assert_capability(x))

// Function returns a reference to the given capability.
#define CFL_RETURN_CAPABILITY(x) CFL_THREAD_ANNOTATION_(lock_returned(x))

// Last resort: skip analysis of one function. Not used anywhere in
// src/parallel/ — keep it that way; see DESIGN.md §7.
#define CFL_NO_THREAD_SAFETY_ANALYSIS \
  CFL_THREAD_ANNOTATION_(no_thread_safety_analysis)

// Marks a class frozen after construction/build: safe to share by reference
// across threads with no synchronization. Enforced by tools/cfl_lint
// (rule `immutable-class`); expands to a harmless declaration so it can sit
// first in the class body like a contract banner.
#define CFL_IMMUTABLE_AFTER_BUILD(class_name) \
  static_assert(true, #class_name " is immutable once built")

// Declares a cfl::Mutex member's position in the global lock hierarchy.
// Every Mutex member must carry one; tools/cfl_analyze (rule `lock-order`)
// extracts nested MutexLock acquisitions across all translation units and
// requires that locks only nest in strictly ascending level order, which
// makes acquisition cycles (and therefore lock-order deadlocks) impossible
// by construction. Levels are process-global — see the hierarchy table in
// DESIGN.md §9. Expands to nothing: it is an analyzer marker, not code.
//
//   cfl::Mutex mu_ CFL_LOCK_LEVEL(30);
#define CFL_LOCK_LEVEL(n)

// Declares what a std::atomic member is *for*, so tools/cfl_analyze (rule
// `atomic-intent`) can check every load/store/fetch_* use site's explicit
// memory_order against the declared intent:
//
//   counter — statistics/budget accumulator; all ops memory_order_relaxed.
//   flag    — stop/cancel signal with no data dependence; relaxed ops, or
//             store(release)/load(acquire) when it hands off anything.
//   publish — pointer/value publication; store(release), load(acquire),
//             RMW acq_rel (e.g. a pointer to a table built once, then read
//             lock-free).
//
// Defaulted (seq_cst) orderings are rejected as undeclared intent: if the
// code does not say what it needs, the analyzer cannot check it and the
// next reader cannot trust it. Expands to nothing.
//
//   std::atomic<bool> stop_ CFL_ATOMIC_INTENT(flag){false};
#define CFL_ATOMIC_INTENT(intent)

namespace cfl {

class CondVar;

// Annotated std::mutex. Prefer MutexLock for scoped acquisition; Lock()/
// Unlock() exist for the rare manually-paired section (and for MutexLock
// itself).
class CFL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CFL_ACQUIRE() { mu_.lock(); }
  void Unlock() CFL_RELEASE() { mu_.unlock(); }
  bool TryLock() CFL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // CondVar::Wait adopts the underlying handle

  std::mutex mu_;  // wrapped primitive; the annotated surface is this class
};

// RAII lock whose scope *is* the critical section, visible to the analysis.
class CFL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CFL_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() CFL_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to cfl::Mutex. Wait() deliberately has no
// predicate overload: a predicate lambda is a separate function to the
// analysis and would read guarded fields outside any visible critical
// section, so callers write the standard `while (!cond) cv.Wait(mu);` loop
// inside their locked scope — which is exactly what the analysis can check.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu` and blocks; reacquires before returning. May
  // wake spuriously — always re-check the condition in a loop.
  void Wait(Mutex& mu) CFL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cfl

#endif  // CFL_CHECK_THREAD_ANNOTATIONS_H_
