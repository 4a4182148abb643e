"""GL7: static lock-order graph over gstore guard acquisitions.

The frontend emits an AcquireEvent per guard construction (lock identity
plus the identities lexically held at that point) and stamp every
CallEvent with the identities held at the call site. This module builds
the global order graph:

  * direct edges: AcquireEvent(lock=B, held=(..., A))  =>  A -> B
  * transitive edges: a call made while holding A into a function whose
    transitive acquisition summary contains B      =>  A -> B (via f)

and reports every cycle as a potential ABBA deadlock with one
representative acquisition chain per edge. Identities are class-level
('CachePool::mutex_'), not instance-level: two instances of one class
share a node, which over-approximates — the safe direction for deadlock
detection. The flip side is that self-edges (A -> A) are *not* reported:
under class-level identity they usually mean two instances locked in a
deliberate address order, which the runtime lockdep already polices
per-instance.

A cycle can be waived at any of its acquisition sites: every edge's
(file, line) lands in Finding.alt.
"""

from __future__ import annotations

from .model import Finding, Program

_MAX_ROUNDS = 60


def _summaries(program: Program) -> dict[str, set[str]]:
    """key -> every lock identity the function can acquire, transitively
    through project calls."""
    acq: dict[str, set[str]] = {}
    for fn in program.fns.values():
        s = acq.setdefault(fn.key, set())
        for ev in fn.acquires:
            s.add(ev.lock)
    for _ in range(_MAX_ROUNDS):
        changed = False
        for fn in program.fns.values():
            s = acq[fn.key]
            for call in fn.calls:
                if call.callee and call.callee in acq:
                    extra = acq[call.callee] - s
                    if extra:
                        s |= extra
                        changed = True
        if not changed:
            break
    return acq


def _edges(program: Program, acq: dict[str, set[str]]):
    """(A, B) -> representative site (file, line, fn key, via)."""
    edges: dict[tuple[str, str], tuple] = {}
    for fn in program.fns.values():
        for ev in fn.acquires:
            for held in ev.held:
                if held != ev.lock:
                    edges.setdefault((held, ev.lock),
                                     (ev.file, ev.line, fn.key, ""))
        for call in fn.calls:
            if not call.lock_ids or not call.callee:
                continue
            for inner in acq.get(call.callee, ()):
                for held in call.lock_ids:
                    if held != inner:
                        edges.setdefault(
                            (held, inner),
                            (call.file, call.line, fn.key,
                             call.callee.split("(", 1)[0]))
    return edges


def _sccs(nodes: set[str], succ: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan, iterative."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = [0]

    for start in sorted(nodes):
        if start in index:
            continue
        work = [(start, iter(sorted(succ.get(start, ()))))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(sorted(succ.get(w, ())))))
                    advanced = True
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def _cycle_in(comp: list[str], succ: dict[str, set[str]]) -> list[str]:
    """One simple cycle through an SCC (DFS from its first node)."""
    inside = set(comp)
    start = comp[0]
    path = [start]
    seen = {start}
    while True:
        cur = path[-1]
        nxts = [w for w in sorted(succ.get(cur, ())) if w in inside]
        step = next((w for w in nxts if w == start), None)
        if step is not None:
            return path
        step = next((w for w in nxts if w not in seen), None)
        if step is None:
            # dead-end inside the SCC (shouldn't happen); backtrack
            path.pop()
            if not path:
                return comp
            continue
        seen.add(step)
        path.append(step)


def analyze(program: Program, root: str) -> list[Finding]:
    acq = _summaries(program)
    edges = _edges(program, acq)
    succ: dict[str, set[str]] = {}
    nodes: set[str] = set()
    for (a, b) in edges:
        succ.setdefault(a, set()).add(b)
        nodes.add(a)
        nodes.add(b)
    findings: list[Finding] = []
    for comp in _sccs(nodes, succ):
        if len(comp) < 2:
            continue
        cyc = _cycle_in(comp, succ)
        pairs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
        trace = []
        alt = []
        for a, b in pairs:
            file, line, fnkey, via = edges[(a, b)]
            hop = f" via {via}()" if via else ""
            trace.append(f"{a} -> {b} at {file}:{line} in "
                         f"{fnkey.split('(', 1)[0]}{hop}")
            alt.append((file, line))
        file0, line0, fn0, _ = edges[pairs[0]]
        ring = " -> ".join(cyc + [cyc[0]])
        findings.append(Finding(
            "GL7", file0, line0,
            f"lock-order cycle (potential ABBA deadlock): {ring}; "
            + "; ".join(trace)
            + " — impose a global order or waive one edge with "
              "GL-SAFE(GL7)",
            fn=fn0, trace=tuple(trace), alt=tuple(alt[1:])))
    return findings
