"""GL6: whole-program taint of untrusted bytes.

The frontend emits per-function TaintEvents (see model.TaintEvent for the
atom grammar); this module runs the interprocedural fixpoint over the
merged Program and turns tainted-atom-reaches-sink into findings.

Trust model
-----------
*Sources.* Wire-record fields (`f:TilesFileHeader.edge_count`, ...) are
intrinsically untrusted: their bytes come off disk or the socket.
`src:Json.as_uint`-style atoms mark Json accessor results, untrusted by
construction. Derived records (JobSpec) start clean; their fields become
tainted only when an unsanitized flow writes into them.

*Granularity.* Record fields are class-level atoms, global across the
program: wire structs are parsed at one trust boundary and fan out
everywhere, so `meta_.tile_count` in scheduler.cpp is the same atom as
the one tile_file.cpp validated. Locals/params/returns are per-function.

*Sanitizers.* Three cuts: (1) calls to util/checked.h helpers and the
ranged Json accessors contribute no atoms at all; (2) an explicit range
check (compare + throw/return/abort branch) emits a sanitize event that
blesses the compared atoms for the whole enclosing function
(flow-insensitive — a check anywhere in the body counts); (3) a sanitize
event over a field atom blesses that field *program-wide*: validating
`meta_.tile_count` once at the load boundary is the documented contract
for every later use. Use-before-validation within one function is
therefore out of scope (the runtime fuzzers cover it); what GL6 hunts is
values that never meet a bound at all.

*Out-params.* Writes through pointer/reference parameters are not
propagated back to callers — except through tracked-record fields, which
are global anyway. This is the main modeled precision loss.
"""

from __future__ import annotations

from .gccfront import WIRE_RECORDS
from .model import Finding, Program

_MAX_ROUNDS = 60


class _State:
    def __init__(self, program: Program):
        self.program = program
        self.blessed: set[str] = set()        # field keys validated anywhere
        self.tainted_fields: set[str] = set()  # derived fields made dirty
        self.fn_in: dict[str, set[int]] = {}   # key -> tainted param slots
        self.fn_ret: set[str] = set()          # keys whose return is tainted
        self.local: dict[str, set[str]] = {}   # key -> tainted local atoms
        self.sanitized: dict[str, set[str]] = {}
        # why-chains for trace rendering
        self.cause: dict[tuple[str, str], tuple] = {}   # (fn, atom) -> (ev, src_atom, src_fn)
        self.field_cause: dict[str, tuple] = {}
        self.in_cause: dict[tuple[str, int], tuple] = {}
        self.ret_cause: dict[str, tuple] = {}

    def atom_tainted(self, key: str, atom: str) -> bool:
        if atom.startswith("src:"):
            return True
        if atom.startswith("f:"):
            fk = atom[2:]
            if fk in self.blessed:
                return False
            return fk.split(".", 1)[0] in WIRE_RECORDS or \
                fk in self.tainted_fields
        if atom.startswith("p") and atom[1:].isdigit():
            return int(atom[1:]) in self.fn_in.get(key, set())
        if atom.startswith("r:"):
            return atom[2:] in self.fn_ret
        return atom in self.local.get(key, set())


def _prime(state: _State) -> None:
    """Sanitize events: collect per-function cuts and global blessings."""
    for fn in state.program.fns.values():
        cuts = state.sanitized.setdefault(fn.key, set())
        for ev in fn.taints:
            if ev.kind != "sanitize":
                continue
            for a in ev.atoms:
                cuts.add(a)
                if a.startswith("f:"):
                    state.blessed.add(a[2:])


def _solve(state: _State) -> None:
    program = state.program
    for _ in range(_MAX_ROUNDS):
        changed = False
        for fn in program.fns.values():
            key = fn.key
            local = state.local.setdefault(key, set())
            cuts = state.sanitized.get(key, set())
            for ev in fn.taints:
                if ev.kind != "flow" or ev.dst in cuts:
                    continue
                hot = next((a for a in ev.atoms if a not in cuts
                            and state.atom_tainted(key, a)), None)
                if hot is None:
                    continue
                dst = ev.dst
                if dst.startswith("f:"):
                    fk = dst[2:]
                    if fk not in state.blessed and \
                            fk not in state.tainted_fields:
                        state.tainted_fields.add(fk)
                        state.field_cause[fk] = (key, ev, hot)
                        changed = True
                elif dst.startswith("a:"):
                    head, _, pos = dst.rpartition(":")
                    callee = head[2:]
                    slot = int(pos)
                    ins = state.fn_in.setdefault(callee, set())
                    if slot not in ins:
                        ins.add(slot)
                        state.in_cause[(callee, slot)] = (key, ev, hot)
                        changed = True
                elif dst == "ret":
                    if key not in state.fn_ret:
                        state.fn_ret.add(key)
                        state.ret_cause[key] = (key, ev, hot)
                        changed = True
                elif dst not in local:
                    local.add(dst)
                    state.cause[(key, dst)] = (ev, hot, key)
                    changed = True
        if not changed:
            return


def _explain(state: _State, key: str, atom: str, depth: int = 0) -> list:
    """Human chain from `atom` (in function `key`) back to a source."""
    if depth > 7:
        return ["..."]
    if atom.startswith("src:"):
        return [f"untrusted source {atom[4:]}"]
    if atom.startswith("f:"):
        fk = atom[2:]
        rec = fk.split(".", 1)[0]
        if rec in WIRE_RECORDS:
            return [f"{fk} is a wire-struct field (raw bytes)"]
        cause = state.field_cause.get(fk)
        if cause is None:
            return [f"field {fk} tainted"]
        cfn, ev, hot = cause
        return [f"{fk} written unsanitized at {ev.file}:{ev.line}"] + \
            _explain(state, cfn, hot, depth + 1)
    if atom.startswith("p") and atom[1:].isdigit():
        cause = state.in_cause.get((key, int(atom[1:])))
        if cause is None:
            return [f"parameter {atom} tainted"]
        cfn, ev, hot = cause
        return [f"{atom} of {_short(key)} tainted by call at "
                f"{ev.file}:{ev.line}"] + _explain(state, cfn, hot,
                                                   depth + 1)
    if atom.startswith("r:"):
        callee = atom[2:]
        cause = state.ret_cause.get(callee)
        if cause is None:
            return [f"return of {_short(callee)} tainted"]
        cfn, ev, hot = cause
        return [f"return of {_short(callee)} tainted at "
                f"{ev.file}:{ev.line}"] + _explain(state, cfn, hot,
                                                   depth + 1)
    cause = state.cause.get((key, atom))
    if cause is None:
        return [f"{atom} tainted"]
    ev, hot, cfn = cause
    return [f"{atom} <- {ev.detail} at {ev.file}:{ev.line}"] + \
        _explain(state, cfn, hot, depth + 1)


def _short(key: str) -> str:
    return key.split("(", 1)[0]


def _alt_sites(state: _State, key: str, atom: str) -> list:
    """(file, line) of every step on the why-chain, so a GL-SAFE(GL6)
    waiver at the *source* suppresses the sink finding too."""
    out = []
    seen = 0
    while seen < 8:
        seen += 1
        if atom.startswith("f:"):
            cause = state.field_cause.get(atom[2:])
        elif atom.startswith("p") and atom[1:].isdigit():
            cause = state.in_cause.get((key, int(atom[1:])))
        elif atom.startswith("r:"):
            cause = state.ret_cause.get(atom[2:])
        elif atom.startswith("src:"):
            return out
        else:
            c = state.cause.get((key, atom))
            cause = (c[2], c[0], c[1]) if c else None
        if cause is None:
            return out
        cfn, ev, hot = cause
        out.append((ev.file, ev.line))
        key, atom = cfn, hot
    return out


_SINK_VERB = {
    "alloc": "an allocation size", "index": "an index",
    "length": "an I/O length", "shift": "a shift amount",
    "loop": "a loop bound",
}


def analyze(program: Program, root: str) -> list[Finding]:
    state = _State(program)
    _prime(state)
    _solve(state)
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for fn in program.fns.values():
        cuts = state.sanitized.get(fn.key, set())
        for ev in fn.taints:
            if ev.kind != "sink":
                continue
            hot = next((a for a in ev.atoms if a not in cuts
                        and state.atom_tainted(fn.key, a)), None)
            if hot is None:
                continue
            k = (ev.file, ev.line, ev.dst, hot)
            if k in seen:
                continue
            seen.add(k)
            chain = _explain(state, fn.key, hot)
            findings.append(Finding(
                "GL6", ev.file, ev.line,
                f"untrusted value reaches {_SINK_VERB.get(ev.dst, ev.dst)}"
                f" ({ev.detail}): {' <- '.join(chain)} — bound it with a "
                f"ranged accessor, util/checked.h, an explicit range "
                f"check, or GL-SAFE(GL6)",
                fn=fn.key, trace=tuple(chain),
                alt=tuple(_alt_sites(state, fn.key, hot))))
    return findings
