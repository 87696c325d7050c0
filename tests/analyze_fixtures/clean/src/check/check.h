// Fixture: dependency-free base module. The analyzer only lexes fixture
// trees (they are never compiled), so the macros need no real expansion.
#ifndef FIX_CHECK_CHECK_H_
#define FIX_CHECK_CHECK_H_

#define CFL_CHECK(cond)
#define CFL_IMMUTABLE_AFTER_BUILD(cls)
#define CFL_LOCK_LEVEL(n)
#define CFL_ATOMIC_INTENT(intent)

#endif  // FIX_CHECK_CHECK_H_
