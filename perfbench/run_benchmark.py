#!/usr/bin/env python3
"""G-Store's end-to-end benchmark driver (see perfbench/README.md).

Run from the repository root:

  run_benchmark.py one --workload W --seed N --seconds S --trace 0|1
      Builds bench_gstore if needed, runs one workload in its own process
      and prints, as its last line, {"correct", "attempted", "failed",
      "metrics"} with every end-to-end metric of BENCHMARK.json (--trace 0)
      or every per-layer metric (--trace 1).
  run_benchmark.py run [--sets N] [--seed S] [--seconds S] [--trace]
                       [--workload W] [--allow-dirty] [--out FILE]
      Runs N sets, set k with seed S + k; a set runs every workload (or
      only W) once, each in its own process. Prints every metric with its
      unit and sample count, and saves the results with a provenance stamp.
      --trace adds one traced run per workload with seed S, checks the trace
      and reports the tracing overhead.
  run_benchmark.py compare A.json B.json
      Per workload and metric: both sides' quartiles, their interquartile
      range as a share of the median, and B/A. An end-to-end metric fails
      when B's median is worse than A's by more than its bound, or when
      either side's spread exceeds the bound (setup_s's spread excepted).
      Two `run --sets 10` files of one commit make the repeatability check.
  run_benchmark.py smoke [--build-dir DIR]
      Tiny inputs, one pass per workload, every correctness check and the
      trace round trip.

The build lives in $CARGO_TARGET_DIR (default .bench_build), always Release.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["kron-ooc", "kron-incore", "band-rounds", "serve-mixed"]
SMOKE_SECONDS = 0.6  # serve-mixed: three 0.2 s phases


def die(msg):
    print(f"run_benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    if not SPEC.is_file():
        die(f"missing {SPEC.name}")
    return json.loads(SPEC.read_text())


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def cache_value(bdir, key):
    cache = bdir / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def build(bdir):
    """Configures (Release) and builds bench_gstore; refuses other build types."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no G-Store sources (src/) beside perfbench/")
    build_type = cache_value(bdir, "CMAKE_BUILD_TYPE")
    if build_type is None:
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    elif build_type != "Release":
        die(f"{bdir} is a {build_type or 'untyped'} build; refusing non-Release")
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs,
                    "--target", "bench_gstore"], check=True, stdout=sys.stderr)
    return bdir / "bench_gstore"


def run_binary(binary, workload, seed, seconds, trace_out=None, smoke=False):
    """Runs one workload; returns the binary's result object."""
    work = binary.parent / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={work}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        die(f"{workload}: bench_gstore exited {proc.returncode} without a result")
    return json.loads(lines[-1])


# ---- trace checks ------------------------------------------------------------

def union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def check_trace(path):
    """Returns (errors, coverage per timed phase, self seconds per category)."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    children = {}
    errors = []
    for e in events:
        parent = e["args"]["parent"]
        if not parent:
            continue
        children.setdefault(parent, []).append(e)
        p = by_id.get(parent)
        if p is None:
            errors.append(f"span {e['name']} has unknown parent {parent}")
        elif e["ts"] < p["ts"] - 1 or e["ts"] + e["dur"] > p["ts"] + p["dur"] + 1:
            errors.append(f"span {e['name']} is not inside its parent {p['name']}")
    coverage = []
    self_s = {}

    def walk(e):
        kids = children.get(e["args"]["id"], [])
        covered = union_length([(k["ts"], k["ts"] + k["dur"]) for k in kids])
        self_s[e["cat"]] = self_s.get(e["cat"], 0.0) + max(e["dur"] - covered, 0) / 1e6
        for k in kids:
            walk(k)

    for timed in (e for e in events if e["name"] == "timed"):
        kids = children.get(timed["args"]["id"], [])
        share = union_length([(k["ts"], k["ts"] + k["dur"]) for k in kids])
        coverage.append(share / max(timed["dur"], 1e-9))
        walk(timed)
    if not coverage:
        errors.append("no timed phase in the trace")
    for c in coverage:
        if c < 0.95:
            errors.append(f"top-level spans cover only {c:.1%} of the timed phase")
    return errors, coverage, self_s


# ---- one: the entry point BENCHMARK.json names ------------------------------

def cmd_one(args):
    spec = load_spec()
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload}")
    binary = build(build_dir())
    trace_out = None
    if args.trace:
        trace_out = binary.parent / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    res = run_binary(binary, args.workload, args.seed, args.seconds, trace_out)
    print(f"run_benchmark: {args.workload} details {json.dumps(res['details'])}",
          file=sys.stderr)
    correct = bool(res["correct"])
    if args.trace:
        errors, coverage, self_s = check_trace(trace_out)
        for err in errors:
            print(f"run_benchmark: trace: {err}", file=sys.stderr)
        correct = correct and not errors
        print(f"run_benchmark: trace coverage {coverage}, self seconds "
              f"{json.dumps({k: round(v, 4) for k, v in self_s.items()})}",
              file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None:
            die(f"{args.workload}: bench_gstore reported no {m['name']}")
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']} but BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


# ---- run / compare -----------------------------------------------------------

def git(*argv):
    try:
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(bdir):
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    compiler = cache_value(bdir, "CMAKE_CXX_COMPILER") or "unknown"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"sha": sha or "unknown", "dirty": None if status is None else bool(status),
            "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
            "nproc": os.cpu_count(),
            "omp_threads": os.environ.get("OMP_NUM_THREADS", str(os.cpu_count())),
            "compiler": version, "machine": platform.machine(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%S")}


def spec_metrics(spec):
    return [dict(m, layer=False) for m in spec["end_to_end"]] + \
           [dict(m, layer=True) for m in spec["per_layer"]]


def print_table(runs, spec):
    for w in WORKLOADS:
        rows = [r for r in runs if r["workload"] == w and not r.get("traced")]
        traced = [r for r in runs if r["workload"] == w and r.get("traced")]
        if not rows and not traced:
            continue
        ok = all(r["correct"] for r in rows + traced)
        print(f"\n{w}  ({len(rows)} untraced, {len(traced)} traced runs, "
              f"correct={ok}, failed={sum(r['failed'] for r in rows + traced)})")
        for m in spec_metrics(spec):
            src = traced if m["layer"] else rows
            vals = [r["metrics"][m["name"]]["value"] for r in src
                    if m["name"] in r["metrics"]]
            if not vals:
                continue
            samples = [r["metrics"][m["name"]]["samples"] for r in src
                       if m["name"] in r["metrics"]]
            print(f"  {m['name']:<34} {statistics.median(vals):>14.5g} "
                  f"{m['unit']:<9} samples/run {min(samples)}")


def cmd_run(args):
    spec = load_spec()
    bdir = build_dir()
    binary = build(bdir)
    prov = provenance(bdir)
    if prov["dirty"] and not args.allow_dirty:
        die("the tree is dirty; commit first or pass --allow-dirty")
    print(f"provenance: {json.dumps(prov)}")
    workloads = [args.workload] if args.workload else WORKLOADS
    if not set(workloads) <= set(WORKLOADS):
        die(f"unknown workload {args.workload}")
    runs = []
    for s in range(args.sets):
        for w in workloads:
            res = run_binary(binary, w, args.seed + s, args.seconds)
            res.update(set=s, traced=False)
            runs.append(res)
            print(f"set {s} {w} seed {args.seed + s}: correct={res['correct']} "
                  f"wall {res['wall_s']:.1f}s", file=sys.stderr)
    if args.trace:
        for w in workloads:
            path = bdir / "traces" / f"{w}-seed{args.seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            res = run_binary(binary, w, args.seed, args.seconds, path)
            errors, coverage, self_s = check_trace(path)
            res.update(set=0, traced=True, trace=str(path), trace_errors=errors,
                       coverage=coverage, self_s=self_s)
            base = [r for r in runs if r["workload"] == w and r["seed"] == args.seed]
            res["trace_overhead_frac"] = trace_overhead(spec, base, res)
            runs.append(res)
    print_table(runs, spec)
    for r in (r for r in runs if r.get("traced")):
        print(f"\n{r['workload']} trace {r['trace']}: coverage "
              f"{[round(c, 4) for c in r['coverage']]}, errors {r['trace_errors']}, "
              f"overhead {r['trace_overhead_frac']}")
        print("    self seconds by category (concurrent spans add up):")
        for cat, sec in sorted(r["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"      {cat:<8} {sec:10.4f} s")
    out = Path(args.out) if args.out else \
        bdir / f"results-{prov['sha'][:12]}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"provenance": prov, "runs": runs}, indent=1))
    print(f"\nwrote {out}")
    bad = [r for r in runs if not r["correct"] or r.get("trace_errors")]
    return 1 if bad else 0


def trace_overhead(spec, untraced, traced):
    """Median over time metrics of traced/untraced - 1 (None without a base)."""
    ratios = []
    for m in spec["end_to_end"]:
        if m["unit"] not in ("ms", "s") or m["name"] == "setup_s":
            continue
        base = [r["metrics"][m["name"]]["value"] for r in untraced
                if m["name"] in r["metrics"]]
        if base and m["name"] in traced["metrics"]:
            ratios.append(traced["metrics"][m["name"]]["value"] / statistics.median(base))
    return round(statistics.median(ratios) - 1, 4) if ratios else None


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[1], q[2]


def iqr_share(q):
    """Interquartile range as a share of the median."""
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def cmd_compare(args):
    spec = load_spec()
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    print(f"A: {json.dumps(a['provenance'])}\nB: {json.dumps(b['provenance'])}")
    failed = 0
    for w in WORKLOADS:
        print(f"\n{w}")
        print(f"  {'metric':<34} {'A q1/med/q3':>32} {'IQR/med':>8} "
              f"{'B q1/med/q3':>32} {'IQR/med':>8} {'B/A':>7}  verdict")
        for m in spec_metrics(spec):
            va = [r["metrics"][m["name"]]["value"] for r in a["runs"]
                  if r["workload"] == w and r.get("traced") == m["layer"]
                  and m["name"] in r["metrics"]]
            vb = [r["metrics"][m["name"]]["value"] for r in b["runs"]
                  if r["workload"] == w and r.get("traced") == m["layer"]
                  and m["name"] in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            sa, sb = iqr_share(qa), iqr_share(qb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            verdict = ""
            if "bound" in m:
                # One rule: a change beyond the bound is a regression, and
                # a spread beyond it means the runs cannot resolve one.
                change = ratio - 1 if m["better"] == "lower" else 1 - ratio
                wide = m["name"] != "setup_s" and max(sa, sb) > m["bound"]
                verdict = "WORSE" if change > m["bound"] else \
                    "UNRESOLVED" if wide else "ok"
                failed += verdict != "ok"
            elif m["unit"] in ("count", "B/edge"):
                verdict = "same" if set(va) == set(vb) and len(set(va)) == 1 else "varies"
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"  {m['name']:<34} {fa:>32} {sa:8.2%} {fb:>32} {sb:8.2%} "
                  f"{ratio:7.3f}  {verdict}")
    print(f"\n{failed} end-to-end metric(s) worse than their bound or unresolved")
    return 1 if failed else 0


def cmd_smoke(args):
    spec = load_spec()
    if args.build_dir:
        binary = Path(args.build_dir).resolve() / "bench_gstore"
    else:
        binary = build(build_dir())
    names = [m["name"] for m in spec_metrics(spec)]
    failures = []
    for w in WORKLOADS:
        trace = binary.parent / "traces" / f"smoke-{w}.json"
        trace.parent.mkdir(parents=True, exist_ok=True)
        res = run_binary(binary, w, 1, SMOKE_SECONDS, trace, smoke=True)
        errors, _, _ = check_trace(trace)
        missing = [n for n in names if n not in res["metrics"]]
        if not res["correct"]:
            failures.append(f"{w}: incorrect ({res['failed']} failed)")
        if missing:
            failures.append(f"{w}: missing metrics {missing}")
        failures += [f"{w}: trace: {e}" for e in errors]
        print(f"smoke {w}: correct={res['correct']} metrics={len(res['metrics'])} "
              f"trace errors={len(errors)} wall {res['wall_s']:.2f}s")
    for f in failures:
        print(f"FAILED {f}")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    one = sub.add_parser("one")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run = sub.add_parser("run")
    run.add_argument("--sets", type=int, default=1)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--workload")
    run.add_argument("--allow-dirty", action="store_true")
    run.add_argument("--out")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    smoke = sub.add_parser("smoke")
    smoke.add_argument("--build-dir")
    args = p.parse_args()
    if getattr(args, "seconds", 0) is None:
        args.seconds = load_spec()["run_seconds"]
    if args.cmd == "one":
        cmd_one(args)
        return 0
    return {"run": cmd_run, "compare": cmd_compare, "smoke": cmd_smoke}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
