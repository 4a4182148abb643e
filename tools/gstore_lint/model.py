"""The event IR between the frontend and the checks.

The frontend (gccfront, with gimplepatch for truncated bodies) lowers
each function body into a FnModel: a qualified identity plus flat,
evaluation-ordered event lists. Checks consume only this IR, never the
dumps themselves.

Function identity is `qualified::name(param-fingerprint)`. Call events
carry the same key form for resolved callees, which is what stitches the
cross-TU call graph together. Template instantiations of one primary
template can share a key; merging their out-edges is conservative in the
right direction for reachability checks (GL1/GL5).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CallEvent:
    callee: str | None      # resolved key, or None (indirect/virtual call)
    callee_name: str        # last name component ('pwrite_full', 'push_back')
    scope: str              # 'project' | 'std' | 'global' | 'unknown'
    file: str
    line: int
    locks: tuple[str, ...]  # guard descriptions lexically held at this site
    shielded: bool          # inside a try body with a catch(...) handler
    is_dtor: bool = False
    lock_ids: tuple[str, ...] = ()  # lock identities held at this site


@dataclass(frozen=True)
class ThrowEvent:
    file: str
    line: int
    shielded: bool


@dataclass(frozen=True)
class CompletionEvent:
    kind: str               # 'check' | 'use' | 'reset'
    var: str                # stable id of the Completion lvalue
    detail: str             # field name or event cause
    file: str
    line: int


@dataclass(frozen=True)
class PinStoreEvent:
    kind: str               # 'member' | 'container'
    detail: str
    file: str
    line: int


@dataclass(frozen=True)
class ArithEvent:
    op: str                 # '*' | '+' | '<<'
    detail: str             # the tainted source, e.g. 'TilesFileHeader.edge_count'
    file: str
    line: int


@dataclass(frozen=True)
class TaintEvent:
    """One GL6 dataflow fact. Atoms are scope-qualified strings:

      p<N>            parameter N of the enclosing function (0 = this)
      l:<name>        a local variable (function-scoped)
      f:<Rec>.<fld>   a field of a tracked record (program-global)
      r:<callee-key>  the return value of a call
      a:<callee-key>:<N>  argument N at a call site (caller side)
      ret             the enclosing function's return value
      src:<label>     an intrinsic untrusted source (wire field, Json
                      accessor) — always tainted
    """
    kind: str               # 'flow' | 'sink' | 'sanitize'
    dst: str                # flow: destination atom; sink: sink kind
    #                         ('alloc'|'index'|'length'|'shift'|'loop');
    #                         sanitize: ''
    atoms: tuple[str, ...]  # source atoms feeding dst / the sink /
    #                         the atoms being range-blessed
    detail: str             # human label for the site
    file: str
    line: int


@dataclass(frozen=True)
class AcquireEvent:
    """A gstore guard construction: `lock` is the lock *identity*
    (member path + owning class, e.g. 'CachePool::mutex_'), `held` the
    identities lexically held when this acquisition happens."""
    lock: str
    held: tuple[str, ...]
    file: str
    line: int


@dataclass(frozen=True)
class RawSyncEvent:
    what: str               # e.g. 'std::once_flag', 'std::call_once'
    file: str
    line: int


@dataclass(frozen=True)
class AtomicOpEvent:
    member: str             # field name the operator was applied to
    op: str                 # 'operator=', 'operator++', ...
    file: str
    line: int


@dataclass
class FnModel:
    key: str
    pretty: str
    file: str
    line: int
    noexcept: bool
    # GENERIC raw dumps omit try_catch_expr subtrees; a truncated FnModel
    # is missing part of its body and is patched from the GIMPLE dump.
    truncated: bool = False
    calls: list[CallEvent] = field(default_factory=list)
    throws: list[ThrowEvent] = field(default_factory=list)
    completions: list[CompletionEvent] = field(default_factory=list)
    pin_stores: list[PinStoreEvent] = field(default_factory=list)
    ariths: list[ArithEvent] = field(default_factory=list)
    raw_syncs: list[RawSyncEvent] = field(default_factory=list)
    atomic_ops: list[AtomicOpEvent] = field(default_factory=list)
    taints: list[TaintEvent] = field(default_factory=list)
    acquires: list[AcquireEvent] = field(default_factory=list)

    @property
    def name(self) -> str:
        head = self.key.split("(", 1)[0]
        return head.rsplit("::", 1)[-1]


# Every event list an FnModel carries; shared by Program.add's merge, the
# driver's path normalization, and the dump cache's (de)serialization.
EVENT_ATTRS = ("calls", "throws", "completions", "pin_stores", "ariths",
               "raw_syncs", "atomic_ops", "taints", "acquires")
EVENT_TYPES = {"calls": CallEvent, "throws": ThrowEvent,
               "completions": CompletionEvent, "pin_stores": PinStoreEvent,
               "ariths": ArithEvent, "raw_syncs": RawSyncEvent,
               "atomic_ops": AtomicOpEvent, "taints": TaintEvent,
               "acquires": AcquireEvent}


class Program:
    """All FnModels merged across TUs, keyed by function identity."""

    def __init__(self) -> None:
        self.fns: dict[str, FnModel] = {}

    def add(self, fn: FnModel) -> None:
        have = self.fns.get(fn.key)
        if have is None:
            self.fns[fn.key] = fn
            return
        # Same function seen from another TU (inline/header definitions) or
        # a ctor's base/complete variants: union the event lists.
        for attr in EVENT_ATTRS:
            seen = set(getattr(have, attr))
            for ev in getattr(fn, attr):
                if ev not in seen:
                    getattr(have, attr).append(ev)
                    seen.add(ev)
        # noexcept must agree; if any definition shows the wrapper, trust it.
        have.noexcept = have.noexcept or fn.noexcept
        have.truncated = have.truncated or fn.truncated

    def by_name(self, name: str) -> list[FnModel]:
        return [f for f in self.fns.values() if f.name == name]


@dataclass(frozen=True)
class Finding:
    check: str              # 'GL1'..'GL7', 'R1', 'R4', 'GL-WAIVER'
    file: str
    line: int
    message: str
    # Enclosing function key at the anchor site ('' when not applicable).
    fn: str = ""
    # Step-by-step explanation (taint path, lock-acquisition chains) for
    # --format=json and verbose reporting.
    trace: tuple[str, ...] = ()
    # Additional (file, line) sites that belong to this finding: any of
    # them carrying a GL-SAFE waiver for `check` suppresses it (a GL7
    # cycle can be waived at either acquisition edge, a GL6 flow at the
    # source or the sink).
    alt: tuple[tuple[str, int], ...] = ()

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.check}] {self.message}"

    def stable_id(self) -> str:
        """Line-independent identity for machine consumers: adding code
        above a finding must not change its ID, so the digest covers the
        check, file, enclosing function, and message with line-number
        noise stripped."""
        import hashlib
        import os
        import re
        rel = os.path.basename(self.file)
        norm = re.sub(r":\d+", "", self.message)
        h = hashlib.sha256(
            f"{self.check}|{rel}|{self.fn}|{norm}".encode()).hexdigest()
        return f"{self.check}-{h[:12]}"
