#!/usr/bin/env python3
"""Project-specific concurrency/I/O lint for the G-Store core.

Eight rule families clang-tidy cannot express for us:

R1 cross-thread annotations.
   A member documented as shared across threads carries the token
   `cross-thread` in the comment block or trailing comment of its
   declaration. The lint enforces that such a member is declared
   std::atomic<...> (or std::atomic_ref-accessed raw storage explicitly
   tagged `cross-thread-via-atomic_ref`), and that no source file mutates it
   with plain `=` / `+=` / `++` / `--` syntax. Atomic types overload those
   operators with seq_cst, which compiles fine but hides the memory-order
   decision — this codebase requires explicit .store()/.load()/.fetch_*().

R2 raw buffer management on I/O paths.
   `new[]` / `delete[]` / malloc / free / aligned_alloc are banned in
   src/io, src/store and src/tile except inside util/aligned_buffer.h.
   I/O buffers must be AlignedBuffer (O_DIRECT alignment, RAII) or
   std::vector (non-DMA scratch).

R3 O_DIRECT alignment.
   Constructing AlignedBuffer with an explicit alignment argument other
   than kIoAlignment on an I/O path defeats the 4096-byte contract that
   O_DIRECT reads rely on.

R4 raw synchronization primitives.
   std::mutex / std::shared_mutex / std::condition_variable and their lock
   helpers (lock_guard, unique_lock, scoped_lock, shared_lock) are banned in
   src/ outside util/sync.{h,cpp}: raw primitives carry no thread-safety
   annotations and bypass lockdep, so misuse is invisible to both the
   compile-time and the runtime checkers. Use gstore::Mutex / MutexLock /
   CondVar etc. from util/sync.h. (Tests and tools may keep raw primitives —
   they model *external* callers.)

R5 audited thread-safety escape hatches.
   Every use of GSTORE_NO_THREAD_SAFETY_ANALYSIS outside util/sync.h must
   carry a `SAFETY:` comment within the three preceding lines (or on the
   same line) explaining the external synchronization contract the analysis
   cannot see. An unexplained escape hatch is indistinguishable from a
   silenced bug.

R6 per-item dynamic scheduling.
   `schedule(dynamic, 1)` is banned in src/: one work item per dispatch is
   either pure scheduling overhead (swarms of near-empty tiles) or load
   imbalance with nothing to steal (one hub tile per item). Chunk by cost
   first (see cost_chunks in src/store/chunking.h) and use
   schedule(dynamic) over the chunks. The clause is matched inside
   `_Pragma("...")` operators too, so a macro cannot hide it.

R7 detached threads.
   `.detach()` is banned in src/: a detached thread outlives every owner,
   cannot be joined at shutdown, and turns clean teardown into a data race
   (ASan/TSan report it as a leak or a use-after-free of whatever the
   thread still touches). Every std::thread in the daemon is tracked and
   joined — see serve::Server's connection registry for the pattern.

R8 per-update counters on shared scalars.
   `std::atomic_ref<T>(member_)` followed by `.fetch_add(1` or
   `.fetch_sub(1` is banned in src/algo: a block kernel that bumps one
   shared counter per successful update moves that counter's cache line
   between cores on every success, and takes a locked add even on
   single-threaded runs (it bypasses algo::concurrent_execution). Count in
   a register and add the block's total once with algo::atomic_fetch_add
   (see src/algo/atomics.h). Per-vertex adds (`live_degree_[v]`) and adds
   of a count stay allowed. The call is matched across line breaks, since
   it is often split before `.fetch_add`.

Exit status 0 when clean, 1 with findings (one per line, grep-style).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CROSS_THREAD = "cross-thread"
VIA_ATOMIC_REF = "cross-thread-via-atomic_ref"
IO_DIRS = ("src/io", "src/store", "src/tile")
RAW_ALLOC = re.compile(
    r"(?<![\w.])(new\s+[\w:<>]+\s*\[|delete\s*\[\]|std::malloc\b|(?<!std::)\bmalloc\s*\(|"
    r"std::free\b|aligned_alloc\s*\(|posix_memalign\s*\()"
)
# Matches "AlignedBuffer(size, alignment)" — two top-level arguments.
ALIGNED_BUFFER_2ARG = re.compile(r"AlignedBuffer\s*\(([^(),]+),([^()]+)\)")
# R4: raw standard synchronization primitives (types, helpers, includes).
# once_flag/call_once and the bare std::lock/std::try_lock algorithms are
# banned alongside the lock types: they take locks invisibly to both the
# thread-safety analysis and gstore-lint's lock modeling (one-time init is
# a function-local static, which the language already initializes once).
RAW_SYNC = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|once_flag)\b"
    r"|std::(?:call_once|try_lock|lock)\s*\("
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)
SYNC_COMPONENT = ("src/util/sync.h", "src/util/sync.cpp")
# R5: escape hatch + its justification marker.
NO_TSA = "GSTORE_NO_THREAD_SAFETY_ANALYSIS"
SAFETY_MARK = re.compile(r"//.*\bSAFETY:")
# R6: one-work-item-per-dispatch OpenMP scheduling, and the string operand
# of a _Pragma operator, which strip_strings would blank out.
DYNAMIC_ONE = re.compile(r"schedule\s*\(\s*dynamic\s*,\s*1\s*\)")
PRAGMA_OPERAND = re.compile(r'_Pragma\s*\(\s*"((?:[^"\\]|\\.)*)"\s*\)')
# R7: fire-and-forget threads.
DETACH = re.compile(r"\.\s*detach\s*\(\s*\)")
# R8: a shared scalar member (no subscript) bumped by one through
# atomic_ref, matched over a whole file's code so a split call still hits.
ALGO_DIR = "src/algo"
SHARED_COUNTER_BUMP = re.compile(
    r"std::atomic_ref\s*<[^;(){}]*>\s*\(\s*(?:this\s*->\s*)?(?P<name>\w+_)"
    r"\s*\)\s*\.\s*fetch_(?:add|sub)\s*\(\s*1\b"
)
MEMBER_DECL = re.compile(
    r"^\s*(?:mutable\s+)?(?P<type>[\w:][\w:<>,\s*&]*?)\s+(?P<name>\w+)\s*(?:=[^;]*|\{[^;]*\})?;"
)
LINE_COMMENT = re.compile(r"//.*$")


def strip_strings(line: str) -> str:
    """Blank out string/char literals so their contents never match rules."""
    out = []
    quote = None
    prev = ""
    for ch in line:
        if quote:
            out.append(" ")
            if ch == quote and prev != "\\":
                quote = None
        elif ch in "\"'":
            quote = ch
            out.append(" ")
        else:
            out.append(ch)
        prev = ch if prev != "\\" else ""
    return "".join(out)


def find_cross_thread_members(path: Path, lines: list[str]):
    """Yields (lineno, name, type, via_ref) for annotated member declarations.

    The annotation may sit in the comment lines directly above the
    declaration or in a trailing comment on the declaration line itself.
    """
    pending = False  # annotation seen in the preceding comment block
    pending_via_ref = False
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        is_comment = stripped.startswith("//")
        annotated_here = CROSS_THREAD in raw
        if is_comment:
            if annotated_here:
                pending = True
                pending_via_ref = pending_via_ref or VIA_ATOMIC_REF in raw
            continue
        m = MEMBER_DECL.match(LINE_COMMENT.sub("", raw))
        if m and (pending or annotated_here):
            via_ref = pending_via_ref or VIA_ATOMIC_REF in raw
            yield i, m.group("name"), m.group("type").strip(), via_ref
        if stripped:  # any non-comment line breaks the comment block
            pending = False
            pending_via_ref = False


PLAIN_WRITE = (
    r"(?<![\w.>])({name})\s*(=(?!=)|\+=|-=|\|=|&=|\+\+|--)",
    r"(\+\+|--)\s*({name})\b",
)


def main(root: Path) -> int:
    findings: list[str] = []
    src = root / "src"
    files = sorted(src.rglob("*.h")) + sorted(src.rglob("*.cpp"))

    # Pass 1: collect annotated members and check their declarations.
    annotated: dict[str, tuple[Path, bool]] = {}
    for path in files:
        lines = path.read_text().splitlines()
        for lineno, name, type_, via_ref in find_cross_thread_members(path, lines):
            annotated[name] = (path, via_ref)
            is_atomic = "atomic" in type_
            if not is_atomic and not via_ref:
                findings.append(
                    f"{path}:{lineno}: R1: member '{name}' is documented "
                    f"cross-thread but declared '{type_}' — make it "
                    f"std::atomic or tag it {VIA_ATOMIC_REF}"
                )

    # Pass 2: per-line rules.
    for path in files:
        rel = path.relative_to(root).as_posix()
        on_io_path = any(rel.startswith(d) for d in IO_DIRS)
        is_allocator = rel == "src/util/aligned_buffer.h"
        is_sync_component = rel in SYNC_COMPONENT
        lines = path.read_text().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            uncommented = LINE_COMMENT.sub("", raw)
            code = strip_strings(uncommented)
            if not code.strip():
                continue
            # A declaration's default initializer (`= 0`) is not a write.
            is_declaration = MEMBER_DECL.match(code) is not None

            for name, (decl_path, _) in annotated.items():
                if is_declaration:
                    break
                # Same component only: the declaring file and its
                # header/source sibling (throttle.h <-> throttle.cpp). A
                # same-named field elsewhere is a different member.
                if decl_path.parent != path.parent or decl_path.stem != path.stem:
                    continue
                for pat in PLAIN_WRITE:
                    if re.search(pat.format(name=name), code):
                        findings.append(
                            f"{path}:{lineno}: R1: plain write to "
                            f"cross-thread member '{name}' — use explicit "
                            f".store()/.fetch_*() (or atomic_ref) with a "
                            f"memory order"
                        )
                        break

            if on_io_path and not is_allocator and RAW_ALLOC.search(code):
                findings.append(
                    f"{path}:{lineno}: R2: raw allocation on an I/O path — "
                    f"use gstore::AlignedBuffer or std::vector"
                )

            if on_io_path:
                for m in ALIGNED_BUFFER_2ARG.finditer(code):
                    align = m.group(2).strip()
                    if align not in ("kIoAlignment", "gstore::kIoAlignment"):
                        findings.append(
                            f"{path}:{lineno}: R3: AlignedBuffer with "
                            f"alignment '{align}' on an I/O path — O_DIRECT "
                            f"requires kIoAlignment"
                        )

            if not is_sync_component:
                # R4 inspects the raw line (not comment-stripped) so banned
                # includes are caught too; doc comments naming std::mutex
                # don't appear in src/ outside sync.h, and a false positive
                # there would be a prompt to reword, not a real cost.
                m = RAW_SYNC.search(strip_strings(raw))
                if m:
                    findings.append(
                        f"{path}:{lineno}: R4: raw '{m.group(0).strip()}' "
                        f"outside util/sync.h — use the annotated wrappers "
                        f"(gstore::Mutex/MutexLock/CondVar...)"
                    )

                if NO_TSA in raw:
                    window = lines[max(0, lineno - 4):lineno]
                    if not any(SAFETY_MARK.search(w) for w in window):
                        findings.append(
                            f"{path}:{lineno}: R5: "
                            f"{NO_TSA} without a SAFETY: justification "
                            f"comment in the preceding 3 lines"
                        )

            if DYNAMIC_ONE.search(code) or any(
                    DYNAMIC_ONE.search(operand)
                    for operand in PRAGMA_OPERAND.findall(uncommented)):
                findings.append(
                    f"{path}:{lineno}: R6: schedule(dynamic, 1) — chunk work "
                    f"items by cost and use schedule(dynamic) over the "
                    f"chunks (see cost_chunks in src/store/chunking.h)"
                )

            if DETACH.search(code):
                findings.append(
                    f"{path}:{lineno}: R7: detached thread — every thread "
                    f"must be tracked and joined at shutdown (see "
                    f"serve::Server's connection registry for the pattern)"
                )

        if rel.startswith(ALGO_DIR + "/"):
            text = "\n".join(strip_strings(LINE_COMMENT.sub("", raw))
                             for raw in lines)
            for m in SHARED_COUNTER_BUMP.finditer(text):
                lineno = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{path}:{lineno}: R8: per-update fetch on shared "
                    f"member '{m.group('name')}' — count in a register and "
                    f"add the block's total once with algo::atomic_fetch_add"
                )

    for f in findings:
        print(f)
    if findings:
        print(f"check_concurrency: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("check_concurrency: clean")
    return 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd()
    if root.name == "src":  # accept either the repo root or src/ itself
        root = root.parent
    sys.exit(main(root))
