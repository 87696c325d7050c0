// Fixture VIOLATIONS: malformed escape hatches must fire `bad-allow` — a
// bogus suppression must not silently suppress anything. An unknown rule
// id, a known rule with no reason, a directive missing allow(...), an
// unterminated allow, and the ids of three passes that no longer exist.
namespace fix {

// cfl-analyze: allow(no-such-rule) this rule id does not exist
int kUnknown = 1;

int kNoReason = 2;  // cfl-analyze: allow(raw-assert)

// cfl-analyze: suppress everything here
int kNoAllow = 3;

// cfl-analyze: allow(narrowing
int kUnterminated = 4;

// cfl-analyze: allow(span-escape) views into a sealed buffer
// cfl-analyze: allow(worker-noexcept) helper never throws
// cfl-analyze: allow(stats-gate) counter kept in release builds
int kRetired = 5;

}  // namespace fix
