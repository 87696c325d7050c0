#!/usr/bin/env bash
# Runs the Clang Static Analyzer (clang --analyze) over every translation
# unit under src/ and diffs the findings against the committed baseline
# (tools/clang_sa_baseline.txt), exactly like run_clang_tidy.sh: only NEW
# findings fail, resolved findings are reported, --update-baseline rewrites.
#
# Usage:
#   tools/run_clang_sa.sh [--update-baseline]
#
# The analyzer is driven directly (not via scan-build) with the project's
# one include root and language standard, so no configured build directory
# is required. Findings are normalized to `file: warning: message [checker]`
# with line:col stripped (line numbers drift on unrelated edits).
#
# Exit codes: 0 no new findings, 1 new findings, 2 environment error.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
baseline="${repo_root}/tools/clang_sa_baseline.txt"

clang_bin="${CLANG:-}"
if [[ -z "${clang_bin}" ]]; then
  for candidate in clang++ clang++-19 clang++-18 clang++-17 clang++-16 \
                   clang++-15 clang++-14; do
    if command -v "${candidate}" > /dev/null 2>&1; then
      clang_bin="${candidate}"
      break
    fi
  done
fi
if [[ -z "${clang_bin}" ]]; then
  echo "run_clang_sa.sh: clang++ not found on PATH (set CLANG to override);" \
       "install clang to run the static-analyzer gate" >&2
  exit 2
fi

update_baseline=0
if [[ "${1:-}" == "--update-baseline" ]]; then
  update_baseline=1
fi

mapfile -t sources < <(find "${repo_root}/src" -name '*.cc' | sort)
echo "clang static analyzer (${clang_bin}) over ${#sources[@]} files"

raw="$(mktemp)"
trap 'rm -f "${raw}" "${raw}.cur" "${raw}.base"' EXIT
for source in "${sources[@]}"; do
  "${clang_bin}" --analyze --analyzer-output text -std=c++20 \
    -I "${repo_root}/src" -DNDEBUG \
    "${source}" >> "${raw}" 2>&1 || true
done

# (grep exits 1 on a run with no findings; that is a clean run, not an
# error under pipefail.)
{ grep -E '^[^ ]+:[0-9]+:[0-9]+: (warning|error):' "${raw}" || true; } \
  | sed "s|^${repo_root}/||" \
  | sed -E 's|^([^:]+):[0-9]+:[0-9]+:|\1:|' \
  | sort -u > "${raw}.cur"

if [[ ${update_baseline} -eq 1 ]]; then
  {
    echo "# clang static-analyzer baseline — normalized findings that"
    echo "# run_clang_sa.sh tolerates. Regenerate with:"
    echo "# tools/run_clang_sa.sh --update-baseline"
    cat "${raw}.cur"
  } > "${baseline}"
  echo "run_clang_sa.sh: baseline updated ($(wc -l < "${raw}.cur")" \
       "findings) -> ${baseline}"
  exit 0
fi

if [[ ! -f "${baseline}" ]]; then
  echo "run_clang_sa.sh: no baseline at ${baseline}; run with" \
       "--update-baseline to create one" >&2
  exit 2
fi
# Load the baseline, pruning entries whose file no longer exists (same
# policy as run_clang_tidy.sh: stale entries must not accumulate).
pruned=0
: > "${raw}.base"
while IFS= read -r entry; do
  entry_file="${entry%%:*}"
  if [[ -f "${repo_root}/${entry_file}" ]]; then
    printf '%s\n' "${entry}" >> "${raw}.base"
  else
    pruned=$((pruned + 1))
  fi
done < <(grep -v '^#' "${baseline}" | sort -u)
if [[ ${pruned} -gt 0 ]]; then
  echo "run_clang_sa.sh: pruned ${pruned} baseline entries for deleted" \
       "files (rewrite the baseline with --update-baseline)"
fi

new_findings="$(comm -13 "${raw}.base" "${raw}.cur")"
resolved="$(comm -23 "${raw}.base" "${raw}.cur")"

if [[ -n "${resolved}" ]]; then
  echo "run_clang_sa.sh: findings in the baseline no longer fire" \
       "(shrink it with --update-baseline):"
  printf '  %s\n' "${resolved}"
fi
if [[ -n "${new_findings}" ]]; then
  echo "run_clang_sa.sh: NEW findings not in the baseline:" >&2
  printf '  %s\n' "${new_findings}" >&2
  exit 1
fi
echo "run_clang_sa.sh: clean ($(wc -l < "${raw}.cur") findings, all" \
     "baselined)"
exit 0
