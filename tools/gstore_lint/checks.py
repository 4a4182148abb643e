"""The GL1..GL7 checks plus AST-grade R1/R4, over the event IR.

All checks are pure functions of (Program, configuration); waiver
filtering happens in the driver so `--list-waivers` and waiver auditing
see the unfiltered stream.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import lockgraph, taint
from .model import Finding, Program

# -- GL1: blocking-under-lock ------------------------------------------------

# Entry points that block by contract: syscalls, stdio, sleeps. Matched by
# bare name when the callee resolves into std:: / global scope. Formatting
# (snprintf, to_chars) and clock reads (VDSO) are deliberately absent.
SYSCALL_NAMES = {
    "open", "openat", "creat", "close", "read", "write", "pread", "pwrite",
    "pread64", "pwrite64", "preadv", "pwritev", "readv", "writev",
    "fsync", "fdatasync", "sync", "syncfs", "sync_file_range",
    "ftruncate", "truncate", "fallocate", "posix_fallocate",
    "stat", "fstat", "lstat", "stat64", "fstat64", "statx",
    "lseek", "lseek64", "unlink", "unlinkat", "rename", "renameat",
    "mkdir", "rmdir", "opendir", "readdir", "closedir",
    "mmap", "mmap64", "munmap", "msync", "mprotect",
    "ioctl", "fcntl", "flock", "poll", "ppoll", "select", "epoll_wait",
    "nanosleep", "usleep", "sleep", "clock_nanosleep",
    "fopen", "fclose", "fread", "fwrite", "fflush", "fprintf", "vfprintf",
    "printf", "vprintf", "fputs", "fputc", "fgets", "puts", "putc",
    "getline", "getchar", "fgetc", "perror",
    "system", "popen", "pclose", "fork", "execve", "syscall",
    "send", "recv", "sendto", "recvfrom", "connect", "accept",
}
SLEEP_QUALS = {
    "std::this_thread::sleep_for", "std::this_thread::sleep_until",
}
# Allocation entry points flagged when they appear *lexically* inside a
# guarded region (no propagation: guarded containers growing under their
# own lock elsewhere is their callers' audited business).
ALLOC_NAMES = {
    "operator new", "operator new []", "malloc", "calloc", "realloc",
    "strdup", "aligned_alloc", "posix_memalign",
}
ALLOC_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
    "insert", "resize", "reserve", "assign", "append", "make_shared",
    "make_unique", "allocate", "allocate_shared", "to_string",
}
# Cold abort/assert paths: reaching one means the process is going down;
# holding a lock across it is not the fleet-stall GL1 hunts.
COLD_NAMES = {
    "check_failed", "dcheck_failed", "abort", "terminate", "__assert_fail",
    "exit", "_exit", "quick_exit",
}
# The synchronization component itself (lock/unlock/wait plumbing and
# lockdep bookkeeping) is the mechanism, not a subject.
SYNC_PREFIXES = (
    "gstore::Mutex::", "gstore::CondVar::", "gstore::MutexLock",
    "gstore::sync_detail::",
)
SYNC_COMPONENT = ("src/util/sync.h", "src/util/sync.cpp")

GL4_DEFAULT_FILES = {"tile_file.cpp", "wal.cpp", "fault.cpp", "compress.cpp"}
GL4_EXEMPT_FILES = {"checked.h"}
GL5_ROOT_NAMES = {"quiesce", "quiesce_all"}


def _qual(callee_key: str | None) -> str:
    return callee_key.split("(", 1)[0] if callee_key else ""


def _skip_gl1(call) -> bool:
    q = _qual(call.callee)
    if q.startswith(SYNC_PREFIXES):
        return True
    if call.callee_name in COLD_NAMES:
        return True
    return False


def _blocking_leaf(call) -> str | None:
    """Why this call blocks by itself, or None."""
    q = _qual(call.callee)
    if q in SLEEP_QUALS:
        return call.callee_name
    if call.scope in ("std", "global") and \
            call.callee_name in SYSCALL_NAMES:
        return call.callee_name
    return None


def _propagate_blocking(program: Program) -> dict[str, tuple[str, str]]:
    """key -> (leaf name, via key or '') for project functions that can
    reach a blocking entry point."""
    blocking: dict[str, tuple[str, str]] = {}
    changed = True
    while changed:
        changed = False
        for fn in program.fns.values():
            if fn.key in blocking:
                continue
            if fn.key.split("(", 1)[0].startswith(SYNC_PREFIXES):
                continue
            for call in fn.calls:
                if _skip_gl1(call):
                    continue
                leaf = _blocking_leaf(call)
                if leaf is not None:
                    blocking[fn.key] = (leaf, "")
                    changed = True
                    break
                if call.callee in blocking and call.callee != fn.key:
                    blocking[fn.key] = (blocking[call.callee][0],
                                        call.callee)
                    changed = True
                    break
    return blocking


def _chain(program: Program, blocking, start_key: str) -> str:
    names = []
    key = start_key
    for _ in range(6):
        names.append(_qual(key).rsplit("::", 1)[-1] or key)
        nxt = blocking.get(key, ("", ""))[1]
        if not nxt:
            break
        key = nxt
    leaf = blocking.get(start_key, ("?", ""))[0]
    if not names or names[-1] != leaf:
        names.append(leaf)
    return " -> ".join(names)


def check_gl1(program: Program, root: str) -> list[Finding]:
    findings: list[Finding] = []
    blocking = _propagate_blocking(program)
    for fn in program.fns.values():
        if _rel(fn.file, root) in SYNC_COMPONENT:
            continue
        for call in fn.calls:
            if not call.locks or _skip_gl1(call):
                continue
            held = call.locks[-1]
            leaf = _blocking_leaf(call)
            if leaf is not None:
                findings.append(Finding(
                    "GL1", call.file, call.line,
                    f"'{call.callee_name}' may block while '{held}' is "
                    f"held"))
                continue
            if call.callee in blocking:
                findings.append(Finding(
                    "GL1", call.file, call.line,
                    f"call to '{_qual(call.callee)}' may block while "
                    f"'{held}' is held "
                    f"(path: {_chain(program, blocking, call.callee)})"))
                continue
            if call.scope in ("std", "global") and \
                    call.callee_name in (ALLOC_NAMES | ALLOC_METHODS):
                findings.append(Finding(
                    "GL1", call.file, call.line,
                    f"'{call.callee_name}' allocates while '{held}' is "
                    f"held — move the allocation outside the guarded "
                    f"region or waive with the guarded-resource rationale"))
    return findings


# -- GL2: pin escape ---------------------------------------------------------

def check_gl2(program: Program, root: str) -> list[Finding]:
    findings = []
    for fn in program.fns.values():
        for ev in fn.pin_stores:
            findings.append(Finding(
                "GL2", ev.file, ev.line,
                f"{ev.detail} — a pinned slice must not outlive its "
                f"Segment fill scope (audited owners waive with "
                f"GL-SAFE(GL2))"))
    return findings


# -- GL3: unchecked completion ----------------------------------------------

def check_gl3(program: Program, root: str) -> list[Finding]:
    findings = []
    for fn in program.fns.values():
        # Completion's own members (including the compiler-generated
        # copy/move operations) legitimately touch .bytes memberwise.
        if "Completion::" in fn.key:
            continue
        state: dict[str, bool] = {}
        # Initializer-hoisted events are emitted out of order; source line
        # order restores the evaluation sequence (single-pass functions).
        for ev in sorted(fn.completions, key=lambda e: e.line):
            if ev.kind == "check":
                state[ev.var] = True
            elif ev.kind == "reset":
                state[ev.var] = False
            elif ev.kind == "use" and not state.get(ev.var, False):
                name = ev.var.split("@", 1)[0]
                findings.append(Finding(
                    "GL3", ev.file, ev.line,
                    f"Completion '{name}': '{ev.detail}' consumed before "
                    f"ok/error was inspected (short-read/failure results "
                    f"carry partial byte counts)"))
                state[ev.var] = True  # one report per unchecked window
    return findings


# -- GL4: untrusted arithmetic ----------------------------------------------

_GL4_HELPERS = {"*": "checked_mul", "+": "checked_add", "<<": "checked_shl"}


def check_gl4(program: Program, root: str, parser_files=None,
              gl4_all: bool = False) -> list[Finding]:
    files = parser_files or GL4_DEFAULT_FILES
    findings = []
    for fn in program.fns.values():
        base = Path(fn.file).name
        if base in GL4_EXEMPT_FILES:
            continue
        if not gl4_all and base not in files:
            continue
        for ev in fn.ariths:
            helper = _GL4_HELPERS[ev.op]
            findings.append(Finding(
                "GL4", ev.file, ev.line,
                f"'{ev.op}' on untrusted value ({ev.detail}) — route "
                f"through gstore::{helper} (util/checked.h)"))
    return findings


# -- GL5: unwind noexcept ----------------------------------------------------

def check_gl5(program: Program, root: str) -> list[Finding]:
    findings = []
    roots = [fn for fn in program.fns.values()
             if fn.name in GL5_ROOT_NAMES and "gstore" in fn.key]
    for fn in roots:
        if not fn.noexcept:
            findings.append(Finding(
                "GL5", fn.file, fn.line,
                f"unwind-path root '{_qual(fn.key)}' is not noexcept"))
    visited: set[str] = set()
    stack = [fn.key for fn in roots]
    while stack:
        key = stack.pop()
        if key in visited:
            continue
        visited.add(key)
        fn = program.fns.get(key)
        if fn is None:
            continue
        for call in fn.calls:
            if call.shielded or call.scope != "project":
                continue
            q = _qual(call.callee)
            if q.startswith(SYNC_PREFIXES) or \
                    call.callee_name in COLD_NAMES:
                continue
            target = program.fns.get(call.callee)
            if target is None:
                continue  # no body seen; cross-check is per-TU best effort
            if not target.noexcept:
                findings.append(Finding(
                    "GL5", call.file, call.line,
                    f"call to non-noexcept '{q}' on the quiesce/drain "
                    f"unwind path — mark it noexcept or shield with "
                    f"catch(...)"))
                continue
            stack.append(call.callee)
    return findings


# -- R1/R4 (AST versions of check_concurrency rules) -------------------------

def check_r4(program: Program, root: str) -> list[Finding]:
    findings = []
    seen = set()
    for fn in program.fns.values():
        for ev in fn.raw_syncs:
            rel = _rel(ev.file, root)
            # In-tree files only (fixtures included); the sync component
            # itself wraps the primitives and is exempt.
            if rel.startswith("..") or os.path.isabs(rel) or \
                    rel in SYNC_COMPONENT:
                continue
            k = (rel, ev.line, ev.what)
            if k in seen:
                continue
            seen.add(k)
            findings.append(Finding(
                "R4", ev.file, ev.line,
                f"raw '{ev.what}' outside util/sync.h (AST: survives "
                f"typedefs and macros) — use the annotated wrappers "
                f"from util/sync.h"))
    return findings


def check_r1(program: Program, root: str, annotated=None) -> list[Finding]:
    """Plain operator writes to cross-thread members, seen through the
    atomic<T> operator overloads the textual rule can miss."""
    if not annotated:
        return []
    findings = []
    seen = set()
    for fn in program.fns.values():
        for ev in fn.atomic_ops:
            decl_stem = annotated.get(ev.member)
            if decl_stem is None:
                continue
            if Path(ev.file).stem != decl_stem:
                continue
            k = (ev.file, ev.line, ev.member, ev.op)
            if k in seen:
                continue
            seen.add(k)
            findings.append(Finding(
                "R1", ev.file, ev.line,
                f"plain '{ev.op}' on cross-thread member '{ev.member}' "
                f"(atomic overload hides the memory order) — use "
                f".store()/.fetch_*() explicitly"))
    return findings


def _rel(file: str, root: str) -> str:
    try:
        return os.path.relpath(file, root)
    except ValueError:
        return file


# -- GL6/GL7: whole-program taint and lock order ------------------------------
# The heavy lifting lives in taint.py / lockgraph.py; these wrappers keep
# the uniform (Program, root) check signature.

def check_gl6(program: Program, root: str) -> list[Finding]:
    return taint.analyze(program, root)


def check_gl7(program: Program, root: str) -> list[Finding]:
    return lockgraph.analyze(program, root)


ALL_CHECKS = {
    "GL1": check_gl1,
    "GL2": check_gl2,
    "GL3": check_gl3,
    "GL5": check_gl5,
    "GL6": check_gl6,
    "GL7": check_gl7,
    "R4": check_r4,
}


def run_all(program: Program, root: str, enabled: set[str],
            gl4_all: bool = False, annotated=None) -> list[Finding]:
    findings: list[Finding] = []
    for name, fn in ALL_CHECKS.items():
        if name in enabled:
            findings.extend(fn(program, root))
    if "GL4" in enabled:
        findings.extend(check_gl4(program, root, gl4_all=gl4_all))
    if "R1" in enabled:
        findings.extend(check_r1(program, root, annotated=annotated))
    return findings
