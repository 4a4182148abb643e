#!/usr/bin/env bash
# Records the micro-kernel benchmark baseline with provenance.
#
# Benchmark JSONs are only comparable when they come from the same kind of
# build, and a debug-build baseline is worse than none (it once shipped in
# BENCH_micro_kernels.json — kernels looked 5-20x slower than they are). This
# script refuses to run from anything but a Release/RelWithDebInfo build dir
# and stamps the build type plus the git SHA of the working tree into the
# JSON's "context" object, so every recorded number can be traced to the
# code and flags that produced it.
#
# Usage: tools/run_benches.sh [build-dir] [-- extra benchmark flags...]
#   build-dir defaults to build-release (the `release` CMake preset).
#   The refreshed baselines are written to BENCH_micro_kernels.json and
#   BENCH_serve.json at the repo root (override the micro-kernel path with
#   GSTORE_BENCH_OUT; skip the serving benchmark with GSTORE_SKIP_SERVE=1).
set -euo pipefail

die() { echo "run_benches.sh: $*" >&2; exit 1; }

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-build-release}
[[ $# -gt 0 ]] && shift
[[ ${1:-} == -- ]] && shift
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac

cache="$build_dir/CMakeCache.txt"
[[ -f "$cache" ]] || die "$build_dir is not a configured build directory (no CMakeCache.txt); run: cmake --preset release && cmake --build build-release -j"

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$cache")
case "$build_type" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *) die "refusing to record benchmarks from a '$build_type' build — numbers from unoptimized builds are not comparable; use the 'release' preset (cmake --preset release)" ;;
esac

bench="$build_dir/bench/bench_micro_kernels"
[[ -x "$bench" ]] || die "$bench not built; run: cmake --build $build_dir --target bench_micro_kernels -j"

out=${GSTORE_BENCH_OUT:-$repo_root/BENCH_micro_kernels.json}
git_sha=$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)
git_dirty=false
if ! git -C "$repo_root" diff --quiet HEAD -- 2>/dev/null; then git_dirty=true; fi

echo "run_benches.sh: $build_type build at $git_sha (dirty=$git_dirty)"
"$bench" --benchmark_out="$out" --benchmark_out_format=json "$@"

# Stamp provenance into the JSON context so the baseline is self-describing.
stamp() {
  python3 - "$1" "$build_type" "$git_sha" "$git_dirty" <<'EOF'
import json, sys
path, build_type, sha, dirty = sys.argv[1:5]
with open(path) as f:
    doc = json.load(f)
doc.setdefault("context", {})["gstore"] = {
    "build_type": build_type,
    "git_sha": sha,
    "git_dirty": dirty == "true",
}
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"run_benches.sh: wrote {path}")
EOF
}
stamp "$out"

# Multi-tenant serving baseline (jobs/s + shared-fetch dedup ratios). The
# binary writes BENCH_serve.json into its cwd, so run it from the repo root.
if [[ ${GSTORE_SKIP_SERVE:-0} != 1 ]]; then
  serve_bench="$build_dir/bench/bench_serve"
  [[ -x "$serve_bench" ]] || die "$serve_bench not built; run: cmake --build $build_dir --target bench_serve -j"
  (cd "$repo_root" && "$serve_bench")
  stamp "$repo_root/BENCH_serve.json"
fi

# Tile-format space baseline (v2 raw SNB vs v3 codecs, bytes/edge). Writes
# BENCH_tab2_space.json into its cwd, so run it from the repo root.
if [[ ${GSTORE_SKIP_TAB2:-0} != 1 ]]; then
  tab2_bench="$build_dir/bench/bench_tab2_space"
  [[ -x "$tab2_bench" ]] || die "$tab2_bench not built; run: cmake --build $build_dir --target bench_tab2_space -j"
  (cd "$repo_root" && "$tab2_bench")
  stamp "$repo_root/BENCH_tab2_space.json"
fi

# Scheduling baseline (grid vs priority rounds: sweeps-to-convergence and
# bytes fetched for BFS/SSSP/PageRank-delta on a skewed graph). Writes
# BENCH_priority.json into its cwd, so run it from the repo root. The binary
# exits non-zero if the two schedules disagree bit-for-bit on BFS/SSSP.
if [[ ${GSTORE_SKIP_PRIORITY:-0} != 1 ]]; then
  prio_bench="$build_dir/bench/bench_priority"
  [[ -x "$prio_bench" ]] || die "$prio_bench not built; run: cmake --build $build_dir --target bench_priority -j"
  (cd "$repo_root" && "$prio_bench")
  stamp "$repo_root/BENCH_priority.json"
fi
