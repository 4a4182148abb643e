"""CLI driver: compile TUs to ASTs, lower, run checks, report.

    python3 tools/gstore_lint --compdb build/compile_commands.json
    python3 tools/gstore_lint --files tests/lint/gl1_flagged.cpp --gl4-all

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from gstore_lint import checks, compdb, dumpcache, gccdump, gccfront, \
    gimplepatch, model  # noqa: E402
from gstore_lint.model import FnModel, Program  # noqa: E402
from gstore_lint.waivers import Waivers  # noqa: E402

CHECK_IDS = ["GL1", "GL2", "GL3", "GL4", "GL5", "GL6", "GL7", "R1", "R4"]


def _file_index(root: Path) -> dict[str, list[str]]:
    """basename -> absolute path(s) for in-tree sources. GCC raw dumps
    print srcp as a bare basename, so findings must be re-anchored."""
    index: dict[str, list[str]] = {}
    dirs = [root / d for d in
            ("src", "tests", "fuzz", "tools", "bench", "examples")]
    exts = {".h", ".hpp", ".cpp", ".cc"}
    files = [p for p in root.glob("*") if p.suffix in exts]
    for d in dirs:
        if d.is_dir():
            files.extend(p for p in d.rglob("*") if p.suffix in exts)
    for p in files:
        index.setdefault(p.name, []).append(str(p))
    return index


def _normalize(fn: FnModel, directory: str, tu_file: str,
               index: dict[str, list[str]]) -> FnModel:
    """Rewrites event file paths to absolute. GCC srcp is basename-only,
    so resolution goes: the TU's own file if the basename matches, else a
    unique in-tree basename match, else the compile-directory join.
    '<unknown>' (anchorless sections) resolves to the TU's own file."""
    cache: dict[str, str] = {}

    def ab(f: str) -> str:
        if f in cache:
            return cache[f]
        if f == "<unknown>":
            out = tu_file
        elif os.path.isabs(f) or f.startswith("<"):
            out = f
        elif os.path.basename(tu_file) == os.path.basename(f):
            out = tu_file
        else:
            hits = index.get(os.path.basename(f), [])
            if len(hits) == 1:
                out = hits[0]
            else:
                out = os.path.normpath(os.path.join(directory, f))
        cache[f] = out
        return out

    fn.file = ab(fn.file)
    for attr in model.EVENT_ATTRS:
        setattr(fn, attr,
                [replace(ev, file=ab(ev.file)) for ev in getattr(fn, attr)])
    return fn


def _lower_tu(entry: compdb.Entry,
              index: dict[str, list[str]],
              cache_dir: str | None = None) -> tuple[str, list[FnModel], str]:
    """Lowers one TU through its GCC GENERIC + GIMPLE tree dumps."""
    ck = None
    if cache_dir:
        ck = dumpcache.key(entry.args, entry.directory)
        hit = dumpcache.lookup(cache_dir, ck)
        if hit is not None:
            return (entry.file, hit, "")
    try:
        text, gimple_text = gccdump.run_dump(entry.args, entry.directory)
    except gccdump.DumpError as e:
        return (entry.file, [], str(e))
    fns = []
    for section in gccdump.parse_dump(text):
        fn = gccfront.lower_section(section)
        if fn is None:
            continue
        fns.append(_normalize(fn, entry.directory, entry.file, index))
    # Patch truncated bodies (try_catch_expr dumper gap) from the GIMPLE
    # dump of the same compile. Matching is by qualified name; an
    # overload set sharing one name is skipped rather than guessed at.
    truncated = [fn for fn in fns if fn.truncated]
    if truncated:
        bodies = gimplepatch.parse(gimple_text)
        for fn in truncated:
            qual, _, fprint = fn.key.partition("(")
            cand = bodies.get(qual, [])
            if len(cand) > 1:
                # Overload set: narrow by parameter count (the GENERIC
                # fingerprint includes `this`, and so does GIMPLE).
                want = gimplepatch.arity(fprint.rstrip(")"))
                cand = [c for c in cand if c[0] == want]
            if len(cand) != 1:
                continue
            patch = gimplepatch.recover(fn, cand[0][2], entry.file,
                                        cand[0][1])
            fns.append(_normalize(patch, entry.directory, entry.file,
                                  index))
    if ck is not None:
        deps = dumpcache.dep_files(entry.args, entry.directory)
        if deps is not None:
            dumpcache.store(cache_dir, ck, deps, fns)
    return (entry.file, fns, "")


def _resolve_gimple_calls(program: Program) -> None:
    """GIMPLE-recovered calls carry only a bare callee name (scope
    'gimple'). Resolve each against the merged program: a unique project
    function with that name becomes a real call-graph edge; otherwise the
    name keeps enough scope for the leaf-blocking/allocation tables."""
    by_name: dict[str, list[str]] = {}
    for fn in program.fns.values():
        # Project functions only: the program also carries std:: templates
        # instantiated with project types, and resolving a bare 'reserve'
        # to std::vector::reserve would eat the allocation-table match.
        if "gstore" in fn.key:
            by_name.setdefault(fn.name, []).append(fn.key)
    for fn in program.fns.values():
        out = []
        for call in fn.calls:
            if call.scope != "gimple":
                out.append(call)
                continue
            keys = by_name.get(call.callee_name, [])
            if len(keys) == 1:
                call = replace(call, callee=keys[0], scope="project")
            elif call.callee_name.startswith("__builtin_"):
                call = replace(call,
                               callee_name=call.callee_name[len(
                                   "__builtin_"):],
                               scope="global")
            elif not keys:
                # Not a project symbol anywhere: std/global method or
                # libc call — the name-table checks may consume it.
                call = replace(call, scope="std")
            else:
                call = replace(call, scope="unknown")
            out.append(call)
        fn.calls = out
        # Recovered taint events carry the same bare names inside their
        # atoms ('r:gimple:<name>') and flow destinations
        # ('a:gimple:<name>:<N>'); resolve the unique ones so the GL6
        # fixpoint can cross the patched functions. Ambiguous or unknown
        # names stay as-is, which taint.py treats as untainted (a miss,
        # never a false positive).
        def fix_atom(a: str) -> str:
            if a.startswith("r:gimple:"):
                keys = by_name.get(a[len("r:gimple:"):], [])
                if len(keys) == 1:
                    return f"r:{keys[0]}"
            return a

        taints = []
        for ev in fn.taints:
            dst = ev.dst
            if dst.startswith("a:gimple:"):
                head, _, pos = dst.rpartition(":")
                keys = by_name.get(head[len("a:gimple:"):], [])
                if len(keys) == 1:
                    dst = f"a:{keys[0]}:{pos}"
            atoms = tuple(fix_atom(a) for a in ev.atoms)
            if dst != ev.dst or atoms != ev.atoms:
                ev = replace(ev, dst=dst, atoms=atoms)
            taints.append(ev)
        fn.taints = taints


def _annotated_members(root: Path) -> dict[str, str]:
    """cross-thread-annotated member name -> declaring file stem, reusing
    the textual finder from check_concurrency.py (comments do not exist in
    the AST, so this part is necessarily textual)."""
    sys.path.insert(0, str(root / "tools"))
    try:
        import check_concurrency as cc
    except ImportError:
        return {}
    out: dict[str, str] = {}
    src = root / "src"
    if not src.is_dir():
        return {}
    for path in list(src.rglob("*.h")) + list(src.rglob("*.cpp")):
        lines = path.read_text(errors="replace").splitlines()
        for _ln, name, _type, _via in cc.find_cross_thread_members(
                path, lines):
            out[name] = path.stem
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="gstore_lint",
        description="AST-grade domain-invariant lint for G-Store")
    ap.add_argument("--compdb", help="compile_commands.json path")
    ap.add_argument("--require-compdb", action="store_true",
                    help="fail (exit 2) instead of searching when --compdb "
                         "is missing or unreadable")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--checks", default=",".join(CHECK_IDS),
                    help="comma-separated subset of: %s" %
                         ",".join(CHECK_IDS))
    ap.add_argument("--files", nargs="*", default=None,
                    help="substring filters selecting TUs (default: src/)")
    ap.add_argument("--gl4-all", action="store_true",
                    help="treat every TU as a parser TU for GL4 (fixtures)")
    ap.add_argument("--jobs", type=int, default=0,
                    help="parallel TU compiles (default: cpu count)")
    ap.add_argument("--format", choices=["text", "json"], default="text",
                    help="findings output: human text (default) or a JSON "
                         "array with stable IDs and traces")
    ap.add_argument("--cache-dir", default=None,
                    help="cache per-TU lowering results here, keyed by "
                         "command + include-closure content hash (the "
                         "whole-program checks still run every time)")
    ap.add_argument("--list-waivers", action="store_true",
                    help="print every GL-SAFE waiver in analyzed files")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    enabled = {c.strip().upper() for c in args.checks.split(",") if c.strip()}
    bad = enabled - set(CHECK_IDS)
    if bad:
        print(f"gstore_lint: unknown checks: {', '.join(sorted(bad))}",
              file=sys.stderr)
        return 2

    compdb_path = args.compdb
    if compdb_path is None:
        found = compdb.default_compdb(root)
        if found is None:
            print("gstore_lint: no compile_commands.json found (configure "
                  "with CMAKE_EXPORT_COMPILE_COMMANDS=ON or pass --compdb)",
                  file=sys.stderr)
            return 2
        compdb_path = str(found)
    try:
        entries = compdb.load(compdb_path)
    except (OSError, ValueError) as e:
        print(f"gstore_lint: cannot read {compdb_path}: {e}",
              file=sys.stderr)
        return 2
    entries = compdb.select(entries, root, only=args.files)
    if not entries:
        print("gstore_lint: no translation units selected", file=sys.stderr)
        return 2

    index = _file_index(root)
    lower_tu = functools.partial(_lower_tu, index=index,
                                 cache_dir=args.cache_dir)
    if args.verbose:
        print(f"gstore_lint: {len(entries)} TU(s)", file=sys.stderr)

    jobs = args.jobs or min(len(entries), os.cpu_count() or 1)
    program = Program()
    errors: list[str] = []
    if jobs > 1 and len(entries) > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(lower_tu, entries)
    else:
        results = [lower_tu(e) for e in entries]
    for file, fns, err in results:
        if err:
            errors.append(f"{file}: {err}")
        for fn in fns:
            program.add(fn)
    if errors:
        for e in errors:
            print(f"gstore_lint: {e}", file=sys.stderr)
        return 2
    _resolve_gimple_calls(program)

    annotated = _annotated_members(root) if "R1" in enabled else None
    findings = checks.run_all(program, str(root), enabled,
                              gl4_all=args.gl4_all, annotated=annotated)

    waivers = Waivers()
    files_seen = {fn.file for fn in program.fns.values()}
    files_seen |= {f.file for f in findings}
    for f in findings:
        files_seen |= {af for af, _ in f.alt}
    for f in sorted(files_seen):
        if not f.startswith("<") and _under(f, root):
            waivers.load_file(f)

    if args.list_waivers:
        for f, ln, tags in waivers.all_waivers():
            print(f"{_rel(f, root)}:{ln}: GL-SAFE({tags})")
        return 0

    # A finding may be waivable at secondary sites too (GL6: anywhere on
    # the taint chain; GL7: any acquisition edge of the cycle).
    kept = [f for f in findings
            if not waivers.waived(f.check, f.file, f.line)
            and not any(waivers.waived(f.check, af, al)
                        for af, al in f.alt)]
    kept.extend(waivers.errors())
    kept = sorted(set(kept), key=lambda f: (f.file, f.line, f.check))

    if args.format == "json":
        import json
        payload = [{"id": f.stable_id(), "check": f.check,
                    "file": _rel(f.file, root), "line": f.line,
                    "function": f.fn.split("(", 1)[0] if f.fn else "",
                    "message": f.message,
                    "trace": list(f.trace)} for f in kept]
        print(json.dumps(payload, indent=2))
        if kept:
            print(f"gstore_lint: {len(kept)} finding(s)", file=sys.stderr)
            return 1
        if args.verbose:
            print(f"gstore_lint: clean ({len(program.fns)} functions, "
                  f"{len(entries)} TUs)", file=sys.stderr)
        return 0

    for f in kept:
        print(f"{_rel(f.file, root)}:{f.line}: [{f.check}] {f.message}")
    if kept:
        print(f"gstore_lint: {len(kept)} finding(s)", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"gstore_lint: clean ({len(program.fns)} functions, "
              f"{len(entries)} TUs)", file=sys.stderr)
    else:
        print("gstore_lint: clean")
    return 0


def _under(f: str, root: Path) -> bool:
    try:
        Path(f).relative_to(root)
        return True
    except ValueError:
        return False


def _rel(f: str, root: Path | str) -> str:
    try:
        return os.path.relpath(f, str(root))
    except ValueError:
        return f


if __name__ == "__main__":
    sys.exit(main())
