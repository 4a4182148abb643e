#!/usr/bin/env bash
# Static-analysis entry point: every sub-linter runs, every failure counts.
#
#   tools/lint.sh            # check_concurrency + gstore_lint + clang-tidy
#   tools/lint.sh --no-tidy  # skip clang-tidy (e.g. when not installed)
#   tools/lint.sh --fix      # let clang-tidy apply its suggested fixes
#
# Earlier versions exited on the first stage's status, so a later stage
# could mask an earlier failure (or vice versa). Now each stage runs
# unconditionally and the script exits nonzero if ANY stage failed.
#
# Stages:
#   1. tools/check_concurrency.py  — textual rules R1-R7 (no dependencies)
#   2. tools/gstore_lint           — AST-grade GL1-GL7 + R1/R4; needs a
#      compile_commands.json (any build*/ dir; every preset exports one).
#      Skipped with a notice when none exists yet — CI always has one.
#   3. clang-tidy                  — when installed; CI runs it.
set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

run_tidy=1
tidy_fix=0
for arg in "$@"; do
  case "$arg" in
    --no-tidy) run_tidy=0 ;;
    --fix) tidy_fix=1 ;;
    *) echo "usage: tools/lint.sh [--no-tidy] [--fix]" >&2; exit 2 ;;
  esac
done

status=0

echo "== check_concurrency.py =="
python3 tools/check_concurrency.py "$ROOT" || status=1

echo "== gstore_lint =="
if compgen -G "$ROOT"/build*/compile_commands.json >/dev/null; then
  python3 tools/gstore_lint --root "$ROOT" || status=1
else
  echo "gstore_lint: no build*/compile_commands.json yet; skipped" \
       "(configure any preset first — all of them export one)"
fi

if [[ $run_tidy -eq 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy =="
    TIDY_BUILD="$ROOT/build-tidy"
    if [[ ! -f "$TIDY_BUILD/compile_commands.json" ]]; then
      cmake --preset tidy >/dev/null || status=1
    fi
    fix_args=()
    if [[ $tidy_fix -eq 1 ]]; then
      fix_args=(-fix)
    fi
    # run-clang-tidy parallelizes when available; otherwise loop.
    mapfile -t sources < <(find src tools -name '*.cpp' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -quiet -p "$TIDY_BUILD" "${fix_args[@]}" \
        "${sources[@]}" || status=1
    else
      for f in "${sources[@]}"; do
        clang-tidy -quiet -p "$TIDY_BUILD" "${fix_args[@]}" "$f" || status=1
      done
    fi
  else
    echo "== clang-tidy: not installed; skipped =="
  fi
fi

if [[ $status -ne 0 ]]; then
  echo "lint.sh: FAILED (one or more sub-linters reported findings)" >&2
else
  echo "lint.sh: all sub-linters clean"
fi
exit $status
