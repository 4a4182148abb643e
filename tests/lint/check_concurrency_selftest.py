#!/usr/bin/env python3
"""check_concurrency.py self-test, exercising the R4 ban list (including
timed/recursive mutexes, once_flag/call_once, and the bare
std::lock/std::try_lock algorithms), one fixture per other rule, R6
hidden in a macro's _Pragma operator, and R8 split over two lines beside
the per-vertex and per-block adds it must leave alone.

    python3 tests/lint/check_concurrency_selftest.py <repo_root>

Writes a throwaway tree under a tempdir and runs the real lint's main()
against it — no regex re-implementation here, so a drifting pattern in
the lint fails this test, not just the fixtures.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

R4_BANNED_LINES = [
    "std::mutex plain_mu;",
    "std::recursive_mutex rec_mu;",
    "std::timed_mutex timed_mu;",
    "std::recursive_timed_mutex rec_timed_mu;",
    "std::shared_mutex rw_mu;",
    "std::condition_variable cv;",
    "std::once_flag flag;",
    "void a() { std::call_once(flag, []{}); }",
    "void b() { std::lock(plain_mu, rec_mu); }",
    "void c() { std::try_lock(plain_mu, rec_mu); }",
    "void d() { std::lock_guard<std::mutex> g(plain_mu); }",
    "#include <mutex>",
]
# Wrapper idioms and lookalikes the ban must NOT catch. The gstore:: names
# need not exist: these lines test the regex, which keys on std::.
R4_CLEAN_LINES = [
    "gstore::OnceFlag flag;",
    "void a() { gstore::call_once(flag, []{}); }",
    "void b(gstore::Mutex& mu) { gstore::MutexLock lock(mu); }",
    "int lock(int);                 // free function named lock",
    "int e(int x) { return lock(x); }",
    "struct W { void unlock(); };   // member named like the protocol",
]
# R6 inside a _Pragma operand (banned, line 1) beside a chunked schedule
# and a plain literal that must both stay clean.
R6_PRAGMA_LINES = [
    '#define GS_PAR _Pragma("omp parallel for schedule(dynamic, 1)")',
    '#define GS_CHUNKED _Pragma("omp parallel for schedule(dynamic)")',
    'const char* doc = "not schedule(dynamic, 1)";',
]

# R8: a per-update bump of a shared counter, split before .fetch_add as
# block kernels wrote it (flagged on line 2), and the adds that stay clean:
# a per-vertex entry and a block's total added once.
R8_FLAGGED_LINES = [
    "void Bfs::visit() {",
    "  std::atomic_ref<std::uint64_t>(newly_visited_)",
    "      .fetch_add(1, std::memory_order_relaxed);",
    "}",
]
R8_CLEAN_LINES = [
    "void KCore::count(graph::vid_t a, std::uint32_t hits) {",
    "  std::atomic_ref<graph::degree_t>(live_degree_[a])",
    "      .fetch_add(1, std::memory_order_relaxed);",
    "  atomic_fetch_add(&relaxed_, std::uint64_t{hits});",
    "  std::atomic_ref<std::uint64_t>(total_).fetch_add(hits);",
    "}",
]


def run_lint(cc, root: Path) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cc.main(root)
    return rc, buf.getvalue()


def main() -> int:
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path.cwd()
    sys.path.insert(0, str(root / "tools"))
    import check_concurrency as cc

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="cc_selftest_") as td:
        tree = Path(td)

        # Banned constructs: every line must yield exactly one R4 finding.
        bad = tree / "bad" / "src" / "victim.cpp"
        bad.parent.mkdir(parents=True)
        bad.write_text("\n".join(R4_BANNED_LINES) + "\n")
        rc, out = run_lint(cc, tree / "bad")
        if rc != 1:
            failures.append(f"banned set: expected exit 1, got {rc}\n{out}")
        for lineno, line in enumerate(R4_BANNED_LINES, start=1):
            if f"victim.cpp:{lineno}: R4:" not in out:
                failures.append(f"banned line {lineno} ({line!r}) not "
                                f"flagged\n{out}")

        # Wrapper idioms: the lint must stay quiet.
        ok = tree / "ok" / "src" / "wrapped.cpp"
        ok.parent.mkdir(parents=True)
        ok.write_text("\n".join(R4_CLEAN_LINES) + "\n")
        rc, out = run_lint(cc, tree / "ok")
        if rc != 0:
            failures.append(f"clean set: expected exit 0, got {rc}\n{out}")

        # The sync component itself is exempt from R4.
        sync = tree / "sync" / "src" / "util" / "sync.h"
        sync.parent.mkdir(parents=True)
        sync.write_text("#include <mutex>\nstd::mutex wrapped_mu;\n")
        rc, out = run_lint(cc, tree / "sync")
        if rc != 0:
            failures.append(f"sync.h exemption: expected exit 0, got "
                            f"{rc}\n{out}")

        # One fixture per non-R4 rule, so the whole surface has coverage.
        other = tree / "other" / "src" / "io" / "probe.cpp"
        other.parent.mkdir(parents=True)
        other.write_text(
            "// cross-thread: shared counter\n"
            "std::uint64_t hits_ = 0;\n"                      # R1: not atomic
            "char* raw = new char[64];\n"                     # R2: raw alloc
            "auto buf = AlignedBuffer(4096, 512);\n"          # R3: alignment
            "GSTORE_NO_THREAD_SAFETY_ANALYSIS void f();\n"    # R5: no SAFETY:
            "#pragma omp parallel for schedule(dynamic, 1)\n"  # R6
            "void g() { std::thread([]{}).detach(); }\n")     # R7: detach
        rc, out = run_lint(cc, tree / "other")
        if rc != 1:
            failures.append(f"other-rules set: expected exit 1, got "
                            f"{rc}\n{out}")
        for rule in ("R1", "R2", "R3", "R5", "R6", "R7"):
            if f" {rule}: " not in out:
                failures.append(f"rule {rule} did not fire\n{out}")

        # A macro's _Pragma operand: strip_strings blanks literals, so the
        # lint must read the operand itself.
        pragma = tree / "pragma" / "src" / "store" / "par.h"
        pragma.parent.mkdir(parents=True)
        pragma.write_text("\n".join(R6_PRAGMA_LINES) + "\n")
        rc, out = run_lint(cc, tree / "pragma")
        flagged = [n for n in range(1, len(R6_PRAGMA_LINES) + 1)
                   if f"par.h:{n}: R6:" in out]
        if rc != 1 or flagged != [1]:
            failures.append(f"_Pragma set: expected exit 1 and R6 on line "
                            f"1 only, got exit {rc}\n{out}")

        # Joined threads (and a member merely named detach-ish) stay clean.
        joined = tree / "joined" / "src" / "threads.cpp"
        joined.parent.mkdir(parents=True)
        joined.write_text(
            "void h() { std::thread t([]{}); t.join(); }\n"
            "const char* s = \"call .detach() never\";  // in a literal\n")
        rc, out = run_lint(cc, tree / "joined")
        if rc != 0:
            failures.append(f"joined-threads set: expected exit 0, got "
                            f"{rc}\n{out}")

        # R8 applies to the algorithm kernels: flagged across the line
        # break, and quiet on per-vertex and per-block adds.
        bump = tree / "bump" / "src" / "algo" / "bfs.cpp"
        bump.parent.mkdir(parents=True)
        bump.write_text("\n".join(R8_FLAGGED_LINES) + "\n")
        rc, out = run_lint(cc, tree / "bump")
        if rc != 1 or "bfs.cpp:2: R8:" not in out or out.count(" R8: ") != 1:
            failures.append(f"R8 flagged set: expected exit 1 and one R8 on "
                            f"line 2, got exit {rc}\n{out}")
        adds = tree / "adds" / "src" / "algo" / "kcore.cpp"
        adds.parent.mkdir(parents=True)
        adds.write_text("\n".join(R8_CLEAN_LINES) + "\n")
        rc, out = run_lint(cc, tree / "adds")
        if rc != 0:
            failures.append(f"R8 clean set: expected exit 0, got {rc}\n{out}")

    if failures:
        for f in failures:
            print(f"check_concurrency selftest FAIL: {f}")
        return 1
    print(f"check_concurrency selftest: ok "
          f"({len(R4_BANNED_LINES)} banned, {len(R4_CLEAN_LINES)} clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
