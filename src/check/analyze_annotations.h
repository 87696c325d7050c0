// Structural annotations read by the whole-program analyzer
// (tools/cfl_analyze.cc). Like the thread-safety macros, these make
// disciplines that used to live in comments machine-checkable — but where
// thread_annotations.h feeds Clang's analysis, these feed our own: each
// macro expands to nothing (or a harmless declaration) at compile time and
// is consumed purely by the analyzer's lexer.
//
//   CFL_SPAN_INTO(Owner)
//     Prefixes a span/string_view *class member* declaration and names the
//     type whose storage the view aliases:
//
//       CFL_SPAN_INTO(Cpi) std::span<const uint32_t> adjacent;
//
//     Rule `span-escape` forbids view-typed members outright — a member can
//     outlive a reused scratch buffer or a rebuilt arena — unless (a) the
//     enclosing class is itself CFL_IMMUTABLE_AFTER_BUILD, or (b) the
//     member carries this annotation AND the named owner type is marked
//     CFL_IMMUTABLE_AFTER_BUILD somewhere in the program. The owner lookup
//     is the whole-program part: naming a non-frozen type is an error, so
//     the annotation cannot rot into a blanket waiver.
//
//   CFL_POOL_SAFE
//     Trails a function declarator (before the body/semicolon) to assert
//     the function is safe to call from a TaskPool task without being
//     declared noexcept — e.g. it allocates, and the sanctioned InvokeTask
//     boundary converting bad_alloc into a contextful CFL_CHECK failure is
//     preferable to std::terminate. Rule `worker-noexcept` requires every
//     src/parallel/-defined function called from a lambda handed to
//     TaskPool::Submit or ForkJoin to be noexcept or carry this marker; the
//     TaskPool internals themselves (WorkerLoop, InvokeTask) must be
//     genuinely noexcept, since they run outside that boundary.
//
// Header-only and dependency-free (like check.h) so the bottom-most
// libraries can take the annotations without a link dependency.

#ifndef CFL_CHECK_ANALYZE_ANNOTATIONS_H_
#define CFL_CHECK_ANALYZE_ANNOTATIONS_H_

// Declares which CFL_IMMUTABLE_AFTER_BUILD type owns the storage a view
// member aliases. Expands to nothing; read by cfl_analyze (span-escape).
#define CFL_SPAN_INTO(owner)

// Asserts a non-noexcept function has been audited for the worker boundary.
// Expands to nothing; read by cfl_analyze (worker-noexcept).
#define CFL_POOL_SAFE

#endif  // CFL_CHECK_ANALYZE_ANNOTATIONS_H_
