#!/usr/bin/env bash
# Runs clang-tidy (config: .clang-tidy at the repo root) over every
# translation unit under src/ and diffs the findings against the committed
# baseline (tools/clang_tidy_baseline.txt). Only NEW findings fail the run,
# so a toolchain upgrade that introduces noisy checks can be absorbed by
# re-baselining instead of blocking every PR; resolved findings are
# reported so the baseline can be shrunk.
#
# Usage:
#   tools/run_clang_tidy.sh BUILD_DIR [--update-baseline] [-- extra args]
#
# BUILD_DIR is a configured build tree holding compile_commands.json (CI
# passes build-release, the release preset's tree).
#
# Findings are normalized before comparison: the repo-root prefix and the
# line:col are stripped (line numbers drift on every unrelated edit), so a
# baseline entry is `file: severity: message [check]`. --update-baseline
# rewrites the baseline from the current findings.
#
# Exit codes: 0 no new findings, 1 new findings, 2 environment error.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
baseline="${repo_root}/tools/clang_tidy_baseline.txt"

tidy_bin="${CLANG_TIDY:-}"
if [[ -z "${tidy_bin}" ]]; then
  for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                   clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "${candidate}" > /dev/null 2>&1; then
      tidy_bin="${candidate}"
      break
    fi
  done
fi
if [[ -z "${tidy_bin}" ]]; then
  echo "run_clang_tidy.sh: clang-tidy not found on PATH (set CLANG_TIDY to" \
       "override); install clang-tidy to run the static-analysis gate" >&2
  exit 2
fi

build_dir=""
update_baseline=0
extra_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --update-baseline)
      update_baseline=1
      shift
      ;;
    --)
      shift
      extra_args=("$@")
      break
      ;;
    *)
      build_dir="$1"
      shift
      ;;
  esac
done
if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  echo "run_clang_tidy.sh: no compile_commands.json in '${build_dir}';" \
       "configure first, e.g.: cmake --preset release" >&2
  exit 2
fi

mapfile -t sources < <(find "${repo_root}/src" -name '*.cc' | sort)
echo "clang-tidy (${tidy_bin}) over ${#sources[@]} files" \
     "using ${build_dir}/compile_commands.json"

# Collect findings; clang-tidy's exit status is ignored here — the gate is
# the baseline diff, not the raw status.
raw="$(mktemp)"
trap 'rm -f "${raw}" "${raw}.cur" "${raw}.base"' EXIT
for source in "${sources[@]}"; do
  "${tidy_bin}" -p "${build_dir}" --quiet "${extra_args[@]}" \
    "${source}" >> "${raw}" 2> /dev/null || true
done

# Normalize: repo-root prefix off, line:col off, one finding per line.
# (grep exits 1 on a run with no findings; that is a clean run, not an
# error under pipefail.)
{ grep -E '^[^ ]+:[0-9]+:[0-9]+: (warning|error):' "${raw}" || true; } \
  | sed "s|^${repo_root}/||" \
  | sed -E 's|^([^:]+):[0-9]+:[0-9]+:|\1:|' \
  | sort -u > "${raw}.cur"

if [[ ${update_baseline} -eq 1 ]]; then
  {
    echo "# clang-tidy baseline — normalized findings (file: severity:"
    echo "# message [check]) that run_clang_tidy.sh tolerates. Regenerate"
    echo "# with: tools/run_clang_tidy.sh --update-baseline"
    cat "${raw}.cur"
  } > "${baseline}"
  echo "run_clang_tidy.sh: baseline updated ($(wc -l < "${raw}.cur")" \
       "findings) -> ${baseline}"
  exit 0
fi

if [[ ! -f "${baseline}" ]]; then
  echo "run_clang_tidy.sh: no baseline at ${baseline}; run with" \
       "--update-baseline to create one" >&2
  exit 2
fi
# Load the baseline, pruning entries whose file no longer exists — a
# deleted TU must not keep tolerating a finding that could reappear
# elsewhere, and stale entries otherwise accumulate forever.
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
  echo "run_clang_tidy.sh: pruned ${pruned} baseline entries for deleted" \
       "files (rewrite the baseline with --update-baseline)"
fi

new_findings="$(comm -13 "${raw}.base" "${raw}.cur")"
resolved="$(comm -23 "${raw}.base" "${raw}.cur")"

if [[ -n "${resolved}" ]]; then
  echo "run_clang_tidy.sh: findings in the baseline no longer fire" \
       "(shrink it with --update-baseline):"
  printf '  %s\n' "${resolved}"
fi
if [[ -n "${new_findings}" ]]; then
  echo "run_clang_tidy.sh: NEW findings not in the baseline:" >&2
  printf '  %s\n' "${new_findings}" >&2
  exit 1
fi
echo "run_clang_tidy.sh: clean ($(wc -l < "${raw}.cur") findings, all" \
     "baselined)"
exit 0
