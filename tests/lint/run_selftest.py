#!/usr/bin/env python3
"""gstore_lint self-test: every check fires on its flagged fixture and
stays quiet on the GL-SAFE-waived twin.

    python3 tests/lint/run_selftest.py <repo_root> [--cxx <compiler>]

Builds a throwaway compile_commands.json covering tests/lint/fixtures/
and runs the linter over it twice: the *_flagged.cpp set must produce
exactly the expected [GLn]/[R4]/[GL-WAIVER] findings (exit 1), and the
*_waived.cpp set must come back clean (exit 0). Runs the real frontend
over real ASTs — no mocking — so it doubles as an end-to-end test of the
dump/parse/lower pipeline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# fixture basename -> set of check tags that must appear for it.
FLAGGED = {
    "gl1_flagged.cpp": {"GL1"},
    "gl2_flagged.cpp": {"GL2"},
    "gl3_flagged.cpp": {"GL3"},
    "gl4_flagged.cpp": {"GL4"},
    "gl5_flagged.cpp": {"GL5"},
    # Cross-TU pairs: the taint source / forward lock edge lives in _a,
    # the finding lands in (or is anchored by) the other TU. Both files
    # must be in the same analysis run for the check to fire at all.
    "gl6_flagged_a.cpp": set(),
    "gl6_flagged_b.cpp": {"GL6"},
    "gl7_flagged_a.cpp": {"GL7"},
    "gl7_flagged_b.cpp": set(),
    "r4_flagged.cpp": {"R4"},
    "waiver_bad.cpp": {"GL-WAIVER"},
}
WAIVED = [
    "gl1_waived.cpp",
    "gl2_waived.cpp",
    "gl3_waived.cpp",
    "gl4_waived.cpp",
    "gl5_waived.cpp",
    "gl6_waived_a.cpp",
    "gl6_waived_b.cpp",
    "gl7_waived_a.cpp",
    "gl7_waived_b.cpp",
    "r4_waived.cpp",
]


def write_compdb(tmp: Path, root: Path, cxx: str,
                 fixtures: list[Path]) -> Path:
    entries = []
    for f in fixtures:
        entries.append({
            "directory": str(tmp),
            "file": str(f),
            "arguments": [cxx, "-std=c++20", f"-I{root / 'src'}",
                          "-c", str(f), "-o", str(tmp / (f.stem + ".o"))],
        })
    path = tmp / "compile_commands.json"
    path.write_text(json.dumps(entries))
    return path


def run_lint(root: Path, compdb: Path, files: list[str]) -> tuple[int, str]:
    cmd = [sys.executable, str(root / "tools" / "gstore_lint"),
           "--compdb", str(compdb), "--root", str(root),
           "--gl4-all", "--files", *files]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root", type=Path)
    ap.add_argument("--cxx", default="c++")
    args = ap.parse_args()
    root = args.root.resolve()
    fixdir = root / "tests" / "lint" / "fixtures"
    fixtures = sorted(fixdir.glob("*.cpp"))
    missing = ({*FLAGGED} | {*WAIVED}) - {f.name for f in fixtures}
    if missing:
        print(f"selftest: missing fixtures: {sorted(missing)}")
        return 1

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="gstore_lint_selftest_") as td:
        tmp = Path(td)
        compdb = write_compdb(tmp, root, args.cxx, fixtures)

        # Flagged set: the linter must exit 1 and each fixture must carry
        # its own tag — firing on the wrong file doesn't count.
        rc, out = run_lint(root, compdb, sorted(FLAGGED))
        if rc != 1:
            failures.append(f"flagged set: expected exit 1, got {rc}\n{out}")
        for name, tags in sorted(FLAGGED.items()):
            for tag in sorted(tags):
                hit = any(name in line and f"[{tag}]" in line
                          for line in out.splitlines())
                if not hit:
                    failures.append(f"{name}: no [{tag}] finding\n{out}")

        # Waived set: identical violations under audited waivers -> clean.
        rc, out = run_lint(root, compdb, WAIVED)
        if rc != 0:
            failures.append(f"waived set: expected exit 0, got {rc}\n{out}")

    if failures:
        for f in failures:
            print(f"selftest FAIL: {f}")
        return 1
    print(f"selftest: ok ({len(FLAGGED)} flagged, {len(WAIVED)} waived)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
