"""Lowers GCC GENERIC dump sections into the event IR (model.FnModel).

The interesting structural facts, verified against GCC 12 dumps:

  * A guard scope is a `try_finally_expr` whose finalizer calls a
    function_decl carrying `note: destructor` whose class is the gstore
    guard type (MutexLock).
    The guarded region is the try body (`op 0`).
  * A noexcept function's body is rooted at `must_not_throw_expr`.
  * `try_block` + `handler` without a `type:` attribute is catch(...);
    calls in the try body are shielded from unwind propagation.
  * Virtual calls appear as `obj_type_ref` with no resolvable decl; they
    lower to CallEvent(callee=None) and are documented as opaque.
  * Typedef names survive on the type-variant chain, so `BufferPin`
    (= std::shared_ptr<const std::uint8_t>) is identified by name even
    though the underlying record is just `shared_ptr`.
"""

from __future__ import annotations

import re
import sys
from .gccdump import Node, Section
from .model import (AcquireEvent, ArithEvent, AtomicOpEvent, CallEvent,
                    CompletionEvent, FnModel, PinStoreEvent, RawSyncEvent,
                    TaintEvent, ThrowEvent)

GUARD_CLASSES = {"MutexLock"}
PIN_TYPEDEF = "BufferPin"
COMPLETION_RECORD = "Completion"
COMPLETION_CHECK_FIELDS = {"ok", "error"}
COMPLETION_USE_FIELDS = {"bytes"}
CONTAINER_STORE_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace", "insert", "assign", "insert_or_assign", "try_emplace",
}
WIRE_RECORDS = {
    "TilesFileHeader", "WalFileHeader", "WalFrameHeader", "FaultSpec",
    "TileStoreMeta", "TilePayloadHeader",
}
# GL6 field-level tracking. Wire records are *intrinsically* untrusted
# (their bytes come straight off disk/socket); derived records (JobSpec)
# start clean and become tainted only if an unsanitized flow writes into
# them. Both are tracked class-level: one field atom per (record, field),
# not per instance — wire structs are parsed in one place and fan out.
DERIVED_RECORDS = {"JobSpec"}
TRACKED_RECORDS = WIRE_RECORDS | DERIVED_RECORDS
# Json accessor methods whose return value is attacker-controlled.
JSON_SOURCE_METHODS = {"as_int", "as_uint", "as_number"}
# Calls that *cut* taint: their result is range-checked by construction.
# util/checked.h helpers trap overflow; the as_*_in Json accessors and
# clamp_* helpers enforce explicit bounds; std::min/clamp impose a ceiling.
SANITIZER_NAMES = {
    "checked_add", "checked_mul", "checked_shl", "checked_in",
    "as_u32_in", "as_u64_in", "as_i64_in", "as_f64_in",
    "min", "clamp",
}
# Sink table: callee name -> (argument indexes, sink kind). Indexes count
# `this` as 0 for methods, so resize's size is arg 1. Scope is checked at
# the call site: std/global for the libc+container entries, any scope for
# the project I/O lengths.
SINK_CALLS = {
    "resize": ((1,), "alloc"), "reserve": ((1,), "alloc"),
    "malloc": ((0,), "alloc"), "calloc": ((0, 1), "alloc"),
    "realloc": ((1,), "alloc"), "aligned_alloc": ((1,), "alloc"),
    "operator new": ((0,), "alloc"), "operator new []": ((0,), "alloc"),
    "memcpy": ((2,), "length"), "memmove": ((2,), "length"),
    "memset": ((2,), "length"), "strncpy": ((2,), "length"),
    "pread_some": ((2,), "length"), "pread_full": ((2,), "length"),
    "pwrite_full": ((2,), "length"),
}
# operator[] is an indexing sink only on contiguous containers; map/
# unordered_map keys are lookups, not offsets.
INDEX_RECORDS = {"vector", "array", "basic_string", "span", "deque"}
# Calls that never return: a compare branching into one is a range check.
COLD_VALIDATORS = {"abort", "terminate", "check_failed", "dcheck_failed",
                   "__assert_fail", "exit", "_exit"}
_COMPARE_TAGS = {"eq_expr", "ne_expr", "lt_expr", "le_expr", "gt_expr",
                 "ge_expr"}
RAW_SYNC_RECORDS = {
    "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "condition_variable",
    "condition_variable_any", "once_flag", "lock_guard", "unique_lock",
    "scoped_lock", "shared_lock",
}
RAW_SYNC_CALLS = {"std::call_once", "std::lock", "std::try_lock"}
ATOMIC_RECORDS = {"atomic", "__atomic_base", "atomic_ref", "__atomic_float"}
ATOMIC_PLAIN_OPS = {
    "operator=", "operator++", "operator--", "operator+=", "operator-=",
    "operator|=", "operator&=", "operator^=",
}

# Attribute keys whose referents belong to the evaluation tree. Everything
# else (type:, scpe:, size:, ...) leads into the type graph and is not
# walked.
_WALK_NAMED = {"body", "expr", "cond", "then", "else", "init", "clnp",
               "stmt", "hdlr", "decl"}
_CALL_TAGS = {"call_expr", "aggr_init_expr"}
_ARITH_TAGS = {"mult_expr": "*", "plus_expr": "+", "lshift_expr": "<<"}


def _walk_children(node: Node) -> list[int]:
    out = []
    for key, vals in node.attrs.items():
        take = (key.isdigit() or key.startswith("op ")
                or key in _WALK_NAMED)
        if not take:
            continue
        # `decl` only matters on target_expr (the temporary); elsewhere it
        # points at declarations we treat as leaves.
        if key == "decl" and node.tag != "target_expr":
            continue
        for v in vals:
            if v.startswith("@"):
                out.append((key, int(v[1:])))
    # Positional children first in index order, then ops, then named slots
    # in source order of common tags (cond/then/else, body/hdlr).
    def rank(kv):
        k, _ = kv
        if k.isdigit():
            return (0, int(k))
        if k.startswith("op "):
            return (1, int(k[3:]))
        order = ["init", "cond", "then", "else", "decl", "expr", "body",
                 "stmt", "clnp", "hdlr"]
        return (2, order.index(k) if k in order else len(order))
    out.sort(key=rank)
    return [idx for _, idx in out]


class _SectionView:
    """Navigation helpers bound to one dump section."""

    def __init__(self, section: Section):
        self.s = section

    def node(self, idx):
        return self.s.node(idx)

    def ident(self, idx: int | None) -> str | None:
        n = self.node(idx)
        if n is None:
            return None
        if n.tag == "identifier_node":
            return n.strg
        if n.tag == "type_decl":
            return self.ident(n.ref("name"))
        return None

    def decl_name(self, decl: Node | None) -> str | None:
        if decl is None:
            return None
        return self.ident(decl.ref("name"))

    def type_names(self, type_idx: int | None, depth: int = 0) -> set[str]:
        """All names on the type chain: typedef variants, the record's own
        name, and one level through pointers/references."""
        names: set[str] = set()
        seen = set()
        idx = type_idx
        while idx is not None and idx not in seen and len(seen) < 16:
            seen.add(idx)
            n = self.node(idx)
            if n is None:
                break
            nm = self.ident(n.ref("name"))
            if nm:
                names.add(nm)
            if n.tag in ("pointer_type", "reference_type") and depth < 2:
                names |= self.type_names(
                    n.ref("ptd") or n.ref("refd"), depth + 1)
            idx = n.ref("unql")
        return names

    def scope_chain(self, decl: Node | None) -> list[str]:
        chain: list[str] = []
        guard = 0
        cur = decl.ref("scpe") if decl is not None else None
        while cur is not None and guard < 24:
            guard += 1
            n = self.node(cur)
            if n is None or n.tag == "translation_unit_decl":
                break
            if n.tag == "namespace_decl":
                nm = self.ident(n.ref("name"))
                chain.append(nm or "<anon-ns>")
                cur = n.ref("scpe")
            elif n.tag in ("record_type", "union_type"):
                td = self.node(n.ref("name"))
                nm = self.ident(n.ref("name"))
                chain.append(nm or "<anon-record>")
                cur = td.ref("scpe") if td is not None else None
            elif n.tag == "function_decl":
                chain.append(self.decl_name(n) or "<fn>")
                cur = n.ref("scpe")
            elif n.tag == "type_decl":
                chain.append(self.ident(n.ref("name")) or "<type>")
                cur = n.ref("scpe")
            else:
                break
        chain.reverse()
        return chain

    def scope_kind(self, chain: list[str]) -> str:
        if not chain:
            return "global"
        head = chain[0]
        if head == "std" or head.startswith("__"):
            return "std"
        if "gstore" in chain:
            return "project"
        return "unknown"

    def _type_code(self, idx: int | None, depth: int = 0) -> str:
        n = self.node(idx)
        if n is None or depth > 3:
            return "?"
        if n.tag == "pointer_type":
            return "P" + self._type_code(n.ref("ptd"), depth + 1)
        if n.tag == "reference_type":
            return "R" + self._type_code(n.ref("refd"), depth + 1)
        nm = self.ident(n.ref("name"))
        if nm:
            return nm
        if n.ref("unql") is not None:
            return self._type_code(n.ref("unql"), depth + 1)
        return n.tag

    def fingerprint(self, decl: Node) -> str:
        ftype = self.node(decl.ref("type"))
        if ftype is None:
            return ""
        codes = []
        cur = ftype.ref("prms")
        guard = 0
        while cur is not None and guard < 32:
            guard += 1
            tl = self.node(cur)
            if tl is None or tl.tag != "tree_list":
                break
            v = tl.ref("valu")
            if v is not None:
                codes.append(self._type_code(v))
            cur = tl.ref("chan")
        # Non-variadic prms lists terminate with void; that is arity
        # punctuation, not a parameter.
        if codes and codes[-1] == "void":
            codes.pop()
        return ",".join(codes)

    def fn_key(self, decl: Node) -> tuple[str, str, str]:
        """(key, qualified_name, scope_kind) for a function_decl."""
        chain = self.scope_chain(decl)
        name = self.decl_name(decl) or "<unnamed>"
        qual = "::".join(chain + [name]) if chain else name
        return (f"{qual}({self.fingerprint(decl)})", qual,
                self.scope_kind(chain))

    def srcp(self, decl: Node | None) -> tuple[str, int]:
        if decl is None:
            return ("<unknown>", 0)
        v = decl.value("srcp")
        if not v or ":" not in v:
            return ("<unknown>", 0)
        f, _, ln = v.rpartition(":")
        try:
            return (f, int(ln))
        except ValueError:
            return (f, 0)


_PRETTY_NAME = re.compile(r"([~\w]+|operator\s*[^\s(]*)\s*\(")


def _key_from_pretty(pretty: str) -> str | None:
    """'void gstore::quiesce()' -> 'gstore::quiesce()'. Returns None for
    signatures too exotic to parse (operators with spaces, conversions)."""
    paren = pretty.find("(")
    if paren <= 0:
        return None
    head = pretty[:paren].split()
    if not head:
        return None
    qual = head[-1]
    if not re.fullmatch(r"[\w:~]+", qual):
        return None
    params = pretty[paren + 1:pretty.rfind(")")].strip()
    fingerprint = "" if params in ("", "void") else params
    return f"{qual}({fingerprint})"


def _own_decl(view: _SectionView) -> Node | None:
    """The section's own function_decl, found by voting on the scpe anchors
    of its result/parm/var decls (other decls referenced in the section are
    forward declarations whose params rarely appear)."""
    m = _PRETTY_NAME.search(view.s.pretty)
    base = m.group(1) if m else None
    score: dict[int, int] = {}
    for n in view.s.nodes.values():
        w = {"result_decl": 10, "var_decl": 2, "parm_decl": 1}.get(n.tag)
        if w is None:
            continue
        scpe = n.ref("scpe")
        if scpe is None:
            continue
        target = view.node(scpe)
        if target is not None and target.tag == "function_decl":
            score[scpe] = score.get(scpe, 0) + w
    if score:
        best = view.node(max(score, key=lambda k: score[k]))
        # Callee parm_decls also vote; trust the winner only when its name
        # does not contradict the section pretty (operator identifiers dump
        # nameless and cannot be disproved).
        name = view.decl_name(best)
        if base is None or name is None or name == base:
            return best
    # Voting failed or picked a callee: match the pretty base identifier
    # against function_decl nodes directly.
    for n in view.s.nodes.values():
        if n.tag == "function_decl" and view.decl_name(n) == base:
            return n
    return None


def _callee_decl(view: _SectionView, call: Node) -> Node | None:
    fn = view.node(call.ref("fn"))
    if fn is None:
        return None
    if fn.tag == "addr_expr":
        target = view.node(fn.ref("op 0"))
        if target is not None and target.tag == "function_decl":
            return target
    if fn.tag == "function_decl":
        return fn
    return None  # obj_type_ref (virtual), function pointers, std::function


def _subtree(view: _SectionView, root_idx: int, limit: int = 20000):
    """All evaluation-tree nodes under root (pre-order, cycle-safe)."""
    seen: set[int] = set()
    stack = [root_idx]
    while stack and len(seen) < limit:
        idx = stack.pop()
        if idx in seen:
            continue
        seen.add(idx)
        n = view.node(idx)
        if n is None:
            continue
        yield n
        for c in reversed(_walk_children(n)):
            stack.append(c)


def _guard_of_finalizer(view: _SectionView, fin_idx: int):
    """If this try_finally finalizer destroys a gstore guard, return its
    description ('MutexLock lock'); else None."""
    for n in _subtree(view, fin_idx, limit=64):
        if n.tag not in _CALL_TAGS:
            continue
        decl = _callee_decl(view, n)
        if decl is None or "destructor" not in decl.attrs.get("note", []):
            continue
        chain = view.scope_chain(decl)
        if not chain or chain[-1] not in GUARD_CLASSES:
            continue
        if "gstore" not in chain:
            continue
        var = "?"
        arg0 = view.node(n.ref("0"))
        if arg0 is not None and arg0.tag == "addr_expr":
            v = view.node(arg0.ref("op 0"))
            if v is not None:
                var = view.decl_name(v) or "?"
        return f"{chain[-1]} {var}"
    return None


def _bottom_decl(view: _SectionView, idx: int | None, depth: int = 0):
    """Follows component/indirect/array/nop chains to the base decl."""
    n = view.node(idx)
    if n is None or depth > 24:
        return None
    if n.tag in ("var_decl", "parm_decl", "result_decl"):
        return n
    if n.tag in ("component_ref", "array_ref", "indirect_ref", "nop_expr",
                 "convert_expr", "non_lvalue_expr", "addr_expr",
                 "view_convert_expr", "save_expr"):
        return _bottom_decl(view, n.ref("op 0"), depth + 1)
    if n.tag in _CALL_TAGS:
        # std::move / std::forward are casts, not calls; look through them.
        decl = _callee_decl(view, n)
        if decl is not None and view.decl_name(decl) in ("move", "forward"):
            return _bottom_decl(view, n.ref("0"), depth + 1)
    return None


def _int_typed(view: _SectionView, n: Node | None) -> bool:
    """Integer-ish value (what GL6 tracks: sizes, counts, offsets)."""
    if n is None:
        return False
    t = view.node(n.ref("type"))
    seen = 0
    while t is not None and seen < 8:
        seen += 1
        if t.tag in ("integer_type", "enumeral_type", "boolean_type"):
            return True
        if t.ref("unql") is None:
            return False
        t = view.node(t.ref("unql"))
    return False


def _param_indexes(view: _SectionView, own_decl: Node | None) -> dict:
    """parm_decl node idx -> positional index (0 = `this` for methods).

    The raw dump drops the decl chain (`chan:`) from parm_decls, so order
    is reconstructed by matching each parm's passed type (`argt:`) against
    the function type's `prms:` tree_list, which *is* in positional order.
    Same-typed parameters tie-break by node index (creation order tracks
    declaration order in practice); a total failure to match falls back to
    node-index order outright, which only risks swapping same-typed
    neighbors — a flow-precision loss, never a crash."""
    if own_decl is None:
        return {}
    parms = sorted((n for n in view.s.nodes.values()
                    if n.tag == "parm_decl"
                    and n.ref("scpe") == own_decl.idx),
                   key=lambda n: n.idx)
    if not parms:
        return {}
    ftype = view.node(own_decl.ref("type"))
    slots: list[int | None] = []
    cur = ftype.ref("prms") if ftype is not None else None
    guard = 0
    while cur is not None and guard < 32:
        guard += 1
        tl = view.node(cur)
        if tl is None or tl.tag != "tree_list":
            break
        slots.append(tl.ref("valu"))
        cur = tl.ref("chan")
    out: dict[int, int] = {}
    used: set[int] = set()
    for p in parms:
        want = p.ref("argt") or p.ref("type")
        pos = next((j for j, s in enumerate(slots)
                    if j not in used and s == want), None)
        if pos is not None:
            out[p.idx] = pos
            used.add(pos)
    rest = [j for j in range(max(len(slots), len(parms))) if j not in used]
    for p in parms:
        if p.idx not in out and rest:
            out[p.idx] = rest.pop(0)
    # `this` is always position 0 regardless of what matching said.
    this = next((p for p in parms if view.decl_name(p) == "this"), None)
    if this is not None and out.get(this.idx) != 0:
        swapped = next((k for k, v in out.items() if v == 0), None)
        if swapped is not None:
            out[swapped] = out.get(this.idx, 0)
        out[this.idx] = 0
    return out


def _record_contains_pin(view: _SectionView, type_idx: int | None) -> bool:
    """Does this record (directly) carry a BufferPin field?"""
    seen = set()
    idx = type_idx
    while idx is not None and idx not in seen:
        seen.add(idx)
        n = view.node(idx)
        if n is None:
            return False
        if n.tag in ("record_type", "union_type"):
            f = n.ref("flds")
            guard = 0
            while f is not None and guard < 64:
                guard += 1
                fd = view.node(f)
                if fd is None:
                    break
                if fd.tag == "field_decl" and \
                        PIN_TYPEDEF in view.type_names(fd.ref("type")):
                    return True
                f = fd.ref("next")
            return False
        if n.tag in ("reference_type", "pointer_type"):
            idx = n.ref("refd") or n.ref("ptd")
        else:
            idx = n.ref("unql")
    return False


def _is_pin_type(view: _SectionView, type_idx: int | None) -> bool:
    return PIN_TYPEDEF in view.type_names(type_idx)


def _is_completion_decl(view: _SectionView, decl: Node | None) -> bool:
    if decl is None:
        return False
    return COMPLETION_RECORD in view.type_names(decl.ref("type"))


def _collect_taint(view: _SectionView):
    """Returns (tainted decl indexes, expr_tainted checker) for a section."""

    def expr_tainted(idx: int, tainted: set[int]) -> str | None:
        for n in _subtree(view, idx, limit=2000):
            if n.tag == "component_ref":
                fd = view.node(n.ref("op 1"))
                if fd is not None and fd.tag == "field_decl":
                    rec = view.node(fd.ref("scpe"))
                    if rec is not None:
                        rn = view.ident(rec.ref("name"))
                        if rn in WIRE_RECORDS:
                            return f"{rn}.{view.decl_name(fd)}"
            elif n.tag in _CALL_TAGS:
                decl = _callee_decl(view, n)
                if decl is not None:
                    chain = view.scope_chain(decl)
                    if chain and chain[-1] in WIRE_RECORDS:
                        return f"{chain[-1]}::{view.decl_name(decl)}()"
            elif n.tag in ("var_decl", "parm_decl") and n.idx in tainted:
                return view.decl_name(n) or "local"
        return None

    tainted: set[int] = set()
    for _ in range(2):
        for n in view.s.nodes.values():
            if n.tag == "var_decl" and n.idx not in tainted:
                init = n.ref("init")
                if init is not None and expr_tainted(init, tainted):
                    tainted.add(n.idx)
            elif n.tag in ("modify_expr", "init_expr"):
                lhs = _bottom_decl(view, n.ref("op 0"))
                rhs = n.ref("op 1")
                if lhs is not None and lhs.tag == "var_decl" and \
                        lhs.idx not in tainted and rhs is not None and \
                        expr_tainted(rhs, tainted):
                    tainted.add(lhs.idx)
    return tainted, expr_tainted


class _Lowerer:
    def __init__(self, section: Section):
        self.view = _SectionView(section)
        self.fn: FnModel | None = None
        self.taint: set[int] = set()
        self.taint_checker = None
        self.line = 0
        self.params: dict[int, int] = {}     # parm_decl idx -> position
        self.guard_ids: dict[str, str] = {}  # guard var name -> lock id

    def lower(self) -> FnModel | None:
        view = self.view
        root = view.s.root
        if root is None:
            return None
        decl = _own_decl(view)
        if decl is not None:
            key, qual, _kind = view.fn_key(decl)
            file, line = view.srcp(decl)
        else:
            # Anchorless section (no params/locals/returns reference the
            # own function_decl): synthesize identity from the pretty
            # signature. For no-arg functions the key matches the one
            # call sites compute; parameterized anchorless functions get
            # a standalone (unlinkable) key, which only costs call-graph
            # edges, not direct findings.
            key = _key_from_pretty(view.s.pretty)
            if key is None:
                return None
            file, line = "<unknown>", 0
        noexc = root.tag == "must_not_throw_expr"
        if not noexc and root.tag == "bind_expr":
            body = view.node(root.ref("body"))
            noexc = body is not None and body.tag == "must_not_throw_expr"
        ln = root.value("line")
        if line == 0 and ln is not None and ln.isdigit():
            line = int(ln)
        self.fn = FnModel(key=key, pretty=view.s.pretty, file=file,
                          line=line, noexcept=noexc)
        # The raw dumper prints try_catch_expr with no operands and does
        # not queue its subtree, so part of this body never reached the
        # dump. Mark it for recovery from the GIMPLE dump (gimplepatch).
        self.fn.truncated = any(
            n.tag == "try_catch_expr" for n in view.s.nodes.values())
        self.line = line
        self.taint, self.taint_checker = _collect_taint(view)
        self.params = _param_indexes(view, decl)
        self._scan_decls()
        self._walk(root.idx, locks=(), lids=(), shielded=False, depth=0)
        self._walk_var_inits(decl)
        return self.fn

    def _walk_var_inits(self, own_decl: Node | None) -> None:
        """Scalar local initializers (`size_t n = h.len * 8;`) live on the
        var_decl's `init:` attr; the statement stream shows only bare
        decl_expr markers. Walk them explicitly, line-stamped from the
        decl, so GL3/GL4 see initializer expressions. Ordering against
        the statement stream is restored downstream by line sort."""
        view = self.view
        for n in view.s.nodes.values():
            if n.tag != "var_decl":
                continue
            init = n.ref("init")
            if init is None:
                continue
            if own_decl is not None and n.ref("scpe") != own_decl.idx:
                continue
            _, ln = view.srcp(n)
            if ln:
                self.line = ln
            if _int_typed(view, n):
                atoms = self._atoms_of(init)
                if atoms:
                    name = view.decl_name(n)
                    if name:
                        self.fn.taints.append(TaintEvent(
                            kind="flow", dst=f"l:{name}", atoms=atoms,
                            detail=f"init of '{name}'", file=self.fn.file,
                            line=self.line))
            self._walk(init, locks=(), lids=(), shielded=False, depth=0)

    # -- declaration-level scans (R4 raw sync types) --------------------

    def _scan_decls(self) -> None:
        view, fn = self.view, self.fn
        for n in view.s.nodes.values():
            if n.tag not in ("var_decl", "parm_decl", "field_decl"):
                continue
            f, ln = view.srcp(n)
            if f == "<unknown>":
                continue
            names = view.type_names(n.ref("type"))
            hit = names & RAW_SYNC_RECORDS
            if not hit:
                continue
            # The decl itself must be project-owned: std's own internals
            # (call_once's parms, lock_guard fields) use these types too.
            if view.scope_kind(view.scope_chain(n)) == "std":
                continue
            # Only std's primitives count; a project record that happens to
            # share a name would be caught by its scope below.
            tnode = view.node(n.ref("type"))
            std_owned = False
            seen = set()
            idx = n.ref("type")
            while idx is not None and idx not in seen:
                seen.add(idx)
                tnode = view.node(idx)
                if tnode is None:
                    break
                if tnode.tag in ("record_type", "union_type"):
                    td = view.node(tnode.ref("name"))
                    chain = view.scope_chain(td) if td else []
                    std_owned = bool(chain) and (
                        chain[0] == "std" or chain[0].startswith("__"))
                    break
                idx = tnode.ref("unql") or tnode.ref("refd") or \
                    tnode.ref("ptd")
            if std_owned:
                fn.raw_syncs.append(RawSyncEvent(
                    what=f"std::{sorted(hit)[0]}", file=f, line=ln))

    # -- ordered body walk ----------------------------------------------

    def _walk(self, idx: int, locks: tuple, lids: tuple, shielded: bool,
              depth: int) -> None:
        if depth > 4000:
            return
        view, fn = self.view, self.fn
        n = view.node(idx)
        if n is None:
            return
        # Declarations are leaves of the evaluation walk; their initializers
        # surface through the statement stream (target_expr / ctor calls).
        if n.tag in ("var_decl", "parm_decl", "field_decl",
                     "function_decl", "result_decl"):
            return
        ln = n.value("line")
        if ln is not None and ln.isdigit():
            self.line = int(ln)

        if n.tag == "try_finally_expr":
            fin = n.ref("op 1")
            guard = _guard_of_finalizer(view, fin) if fin is not None \
                else None
            body = n.ref("op 0")
            if body is not None:
                inner_lids = lids
                if guard:
                    gid = self.guard_ids.get(guard.split(" ", 1)[-1])
                    if gid and gid not in lids:
                        inner_lids = lids + (gid,)
                self._walk(body, locks + (guard,) if guard else locks,
                           inner_lids, shielded, depth + 1)
            if fin is not None:
                self._walk(fin, locks, lids, shielded, depth + 1)
            return

        if n.tag == "try_block":
            handlers = []
            h = n.ref("hdlr")
            if h is not None:
                hn = view.node(h)
                if hn is not None and hn.tag == "statement_list":
                    handlers = [view.node(i)
                                for _, i in hn.indexed_refs()]
                elif hn is not None:
                    handlers = [hn]
            catch_all = any(hh is not None and not hh.has_attr("type")
                            for hh in handlers)
            body = n.ref("body")
            if body is not None:
                self._walk(body, locks, lids, shielded or catch_all,
                           depth + 1)
            for hh in handlers:
                if hh is not None and hh.ref("body") is not None:
                    self._walk(hh.ref("body"), locks, lids, shielded,
                               depth + 1)
            return

        if n.tag == "throw_expr":
            fn.throws.append(ThrowEvent(file=fn.file, line=self.line,
                                        shielded=shielded))
            return  # the __cxa machinery below is a cold path

        if n.tag in _CALL_TAGS:
            self._handle_call(n, locks, lids, shielded)
            for c in _walk_children(n):
                self._walk(c, locks, lids, shielded, depth + 1)
            return

        if n.tag in ("modify_expr", "init_expr"):
            self._handle_store(n, depth)
            rhs = n.ref("op 1")
            if rhs is not None:
                self._walk(rhs, locks, lids, shielded, depth + 1)
            return

        if n.tag == "component_ref":
            self._handle_field_read(n)
            base = n.ref("op 0")
            if base is not None:
                self._walk(base, locks, lids, shielded, depth + 1)
            return

        if n.tag == "cond_expr":
            self._handle_cond(n)

        if n.tag == "array_ref":
            atoms = self._atoms_of(n.ref("op 1"))
            if atoms:
                fn.taints.append(TaintEvent(
                    kind="sink", dst="index", atoms=atoms,
                    detail="array index", file=fn.file, line=self.line))

        op = _ARITH_TAGS.get(n.tag)
        if op is not None:
            self._handle_arith(n, op)
            if op == "<<":
                atoms = self._atoms_of(n.ref("op 1"))
                if atoms:
                    fn.taints.append(TaintEvent(
                        kind="sink", dst="shift", atoms=atoms,
                        detail="shift amount", file=fn.file,
                        line=self.line))

        for c in _walk_children(n):
            self._walk(c, locks, lids, shielded, depth + 1)

    # -- event emitters --------------------------------------------------

    def _handle_call(self, call: Node, locks: tuple, lids: tuple,
                     shielded: bool) -> None:
        view, fn = self.view, self.fn
        decl = _callee_decl(view, call)
        if decl is None:
            fn.calls.append(CallEvent(
                callee=None, callee_name="<indirect>", scope="unknown",
                file=fn.file, line=self.line, locks=locks,
                shielded=shielded, lock_ids=lids))
        else:
            key, qual, kind = view.fn_key(decl)
            name = qual.rsplit("::", 1)[-1]
            is_dtor = "destructor" in decl.attrs.get("note", [])
            fn.calls.append(CallEvent(
                callee=key, callee_name=name, scope=kind, file=fn.file,
                line=self.line, locks=locks, shielded=shielded,
                is_dtor=is_dtor, lock_ids=lids))
            if qual in RAW_SYNC_CALLS:
                fn.raw_syncs.append(RawSyncEvent(
                    what=qual, file=fn.file, line=self.line))
            self._maybe_atomic_op(call, decl, qual, name)
            self._maybe_container_pin_store(call, decl, name, kind)
            self._maybe_member_pin_store(call, decl)
            self._maybe_guard_ctor(call, decl, lids)
            self._taint_call(call, decl, key, name, kind)
        # Passing a Completion lvalue to a callee transfers the checking
        # obligation (the callee inspects ok/error) — mark it checked.
        for _, argidx in call.indexed_refs():
            base = _bottom_decl(view, argidx)
            if base is not None and _is_completion_decl(view, base):
                fn.completions.append(CompletionEvent(
                    kind="check",
                    var=f"{view.decl_name(base) or 'c'}@{base.idx}",
                    detail="passed-to-callee", file=fn.file,
                    line=self.line))

    def _maybe_atomic_op(self, call: Node, decl: Node, qual: str,
                         name: str) -> None:
        view, fn = self.view, self.fn
        if name not in ATOMIC_PLAIN_OPS:
            return
        chain = view.scope_chain(decl)
        if len(chain) < 2 or chain[-1] not in ATOMIC_RECORDS:
            return
        arg0 = view.node(call.ref("0"))
        target = view.node(arg0.ref("op 0")) if arg0 is not None and \
            arg0.tag == "addr_expr" else None
        member = None
        if target is not None and target.tag == "component_ref":
            fd = view.node(target.ref("op 1"))
            member = view.decl_name(fd)
        if member:
            fn.atomic_ops.append(AtomicOpEvent(
                member=member, op=name, file=fn.file, line=self.line))

    def _maybe_container_pin_store(self, call: Node, decl: Node,
                                   name: str, kind: str) -> None:
        view, fn = self.view, self.fn
        if name not in CONTAINER_STORE_METHODS or kind != "std":
            return
        for _, argidx in call.indexed_refs():
            arg = view.node(argidx)
            if arg is None:
                continue
            # Expression types canonicalize (BufferPin -> shared_ptr), so
            # also consult the *declared* type of the underlying decl,
            # which keeps the typedef spelling.
            t = arg.ref("type")
            hit = _is_pin_type(view, t) or _record_contains_pin(view, t)
            if not hit:
                base = _bottom_decl(view, argidx)
                if base is not None:
                    bt = base.ref("type")
                    hit = _is_pin_type(view, bt) or \
                        _record_contains_pin(view, bt)
            if hit:
                fn.pin_stores.append(PinStoreEvent(
                    kind="container",
                    detail=f"{name}() argument carries a {PIN_TYPEDEF}",
                    file=fn.file, line=self.line))
                return

    def _maybe_member_pin_store(self, call: Node, decl: Node) -> None:
        """`pin_ = ...` lowers to an operator= *call* on the shared_ptr,
        not a modify_expr; member construction lowers to a ctor call. Both
        target `&this->pin_` as argument 0."""
        view, fn = self.view, self.fn
        notes = decl.attrs.get("note", [])
        if "constructor" in notes:
            pass
        elif "operator" in notes:
            # Assignment-like operators return a reference to their own
            # class (filters operator bool / operator-> observers).
            mtype = view.node(decl.ref("type"))
            retn = view.node(mtype.ref("retn")) if mtype is not None \
                else None
            if retn is None or retn.tag != "reference_type" or \
                    mtype.ref("clas") is None:
                return
            refd = view.node(retn.ref("refd"))
            clas = view.node(mtype.ref("clas"))
            while refd is not None and refd.ref("unql") is not None:
                refd = view.node(refd.ref("unql"))
            if refd is None or clas is None or refd.idx != clas.idx:
                return
        else:
            return
        arg0 = view.node(call.ref("0"))
        if arg0 is None or arg0.tag != "addr_expr":
            return
        tgt = view.node(arg0.ref("op 0"))
        if tgt is None or tgt.tag != "component_ref":
            return
        fd = view.node(tgt.ref("op 1"))
        if fd is None or fd.tag != "field_decl" or \
                not _is_pin_type(view, fd.ref("type")):
            return
        base = _bottom_decl(view, tgt.ref("op 0"))
        if base is not None and base.tag == "var_decl":
            return  # member of a local aggregate: judged where *it* escapes
        if self._own_record_field(fd):
            return  # the record's own lifecycle members initialize it
        fn.pin_stores.append(PinStoreEvent(
            kind="member",
            detail=f"store into {PIN_TYPEDEF} member "
                   f"'{view.decl_name(fd)}'",
            file=fn.file, line=self.line))

    def _own_record_field(self, fd: Node) -> bool:
        """True when the current function is a *lifecycle* member (ctor,
        dtor, assignment) of the record that declares `fd`: those touch
        the field to initialize/move it, which is not an escape. Ordinary
        member functions of the record stay in scope for GL2."""
        view = self.view
        rec = view.node(fd.ref("scpe"))
        rec_name = view.ident(rec.ref("name")) if rec is not None else None
        if not rec_name:
            return False
        qual = self.fn.key.split("(", 1)[0]
        parts = qual.split("::")
        if len(parts) < 2 or parts[-2] != rec_name:
            return False
        return (parts[-1] in (rec_name, "~" + rec_name) or
                "operator=" in self.fn.pretty)

    def _handle_store(self, n: Node, depth: int) -> None:
        view, fn = self.view, self.fn
        lhs_idx = n.ref("op 0")
        lhs = view.node(lhs_idx)
        if lhs is not None and lhs.tag == "component_ref":
            fd = view.node(lhs.ref("op 1"))
            if fd is not None and fd.tag == "field_decl" and \
                    _is_pin_type(view, fd.ref("type")):
                base = _bottom_decl(view, lhs.ref("op 0"))
                # Storing through a member of *this* (or of anything that is
                # not a plain local) escapes the pin past the current scope.
                local = base is not None and base.tag == "var_decl"
                if not local and not self._own_record_field(fd):
                    fn.pin_stores.append(PinStoreEvent(
                        kind="member",
                        detail=f"store into {PIN_TYPEDEF} member "
                               f"'{view.decl_name(fd)}'",
                        file=fn.file, line=self.line))
        self._taint_store(n)
        base = _bottom_decl(view, lhs_idx)
        if base is not None and _is_completion_decl(view, base):
            lhs_node = view.node(lhs_idx)
            if lhs_node is not None and lhs_node.tag in (
                    "var_decl", "parm_decl", "result_decl"):
                fn.completions.append(CompletionEvent(
                    kind="reset",
                    var=f"{view.decl_name(base) or 'c'}@{base.idx}",
                    detail="reassigned",
                    file=fn.file, line=self.line))
            # Writes to individual fields are construction, not use.

    def _handle_field_read(self, n: Node) -> None:
        view, fn = self.view, self.fn
        fd = view.node(n.ref("op 1"))
        if fd is None or fd.tag != "field_decl":
            return
        fname = view.decl_name(fd)
        if fname not in COMPLETION_CHECK_FIELDS | COMPLETION_USE_FIELDS:
            return
        rec = view.node(fd.ref("scpe"))
        if rec is None or view.ident(rec.ref("name")) != COMPLETION_RECORD:
            return
        base = _bottom_decl(view, n.ref("op 0"))
        if base is None or not _is_completion_decl(view, base):
            return
        kind = "check" if fname in COMPLETION_CHECK_FIELDS else "use"
        fn.completions.append(CompletionEvent(
            kind=kind, var=f"{view.decl_name(base) or 'c'}@{base.idx}",
            detail=fname, file=fn.file, line=self.line))

    def _handle_arith(self, n: Node, op: str) -> None:
        view, fn = self.view, self.fn
        t = view.node(n.ref("type"))
        if t is None or t.tag not in ("integer_type", "enumeral_type"):
            return
        checker = self.taint_checker
        if checker is None:
            return
        for opk in ("op 0", "op 1"):
            ref = n.ref(opk)
            if ref is None:
                continue
            src = checker(ref, self.taint)
            if src:
                fn.ariths.append(ArithEvent(
                    op=op, detail=src, file=fn.file, line=self.line))
                return

    # -- GL6/GL7 emitters -------------------------------------------------

    def _atoms_of(self, idx: int | None) -> tuple[str, ...]:
        """Taint atoms an expression's value derives from (see
        model.TaintEvent for the grammar). Tracked-record field reads and
        resolved calls are extraction *boundaries*: the field atom / the
        r: atom stands for the whole subexpression, and sanitizer calls
        contribute nothing at all (the cut)."""
        view = self.view
        out: list[str] = []
        seen: set[int] = set()

        def rec(i, d):
            if i is None or i in seen or d > 40 or len(out) > 16:
                return
            seen.add(i)
            n = view.node(i)
            if n is None:
                return
            if n.tag == "component_ref":
                fd = view.node(n.ref("op 1"))
                if fd is not None and fd.tag == "field_decl":
                    recn = view.node(fd.ref("scpe"))
                    rn = view.ident(recn.ref("name")) \
                        if recn is not None else None
                    if rn in TRACKED_RECORDS:
                        out.append(f"f:{rn}.{view.decl_name(fd)}")
                        return
                rec(n.ref("op 0"), d + 1)
                return
            if n.tag == "var_decl":
                nm = view.decl_name(n)
                if nm:
                    out.append(f"l:{nm}")
                return
            if n.tag == "parm_decl":
                pos = self.params.get(n.idx)
                if pos is not None:
                    out.append(f"p{pos}")
                return
            if n.tag in _CALL_TAGS:
                decl = _callee_decl(view, n)
                if decl is None:
                    return               # indirect call: opaque
                key, qual, _kind = view.fn_key(decl)
                name = qual.rsplit("::", 1)[-1]
                if name in SANITIZER_NAMES:
                    return               # sanitized by construction
                chain = view.scope_chain(decl)
                if name in JSON_SOURCE_METHODS and chain and \
                        chain[-1] == "Json":
                    out.append(f"src:Json.{name}")
                    return
                if name in ("move", "forward"):
                    rec(n.ref("0"), d + 1)
                    return
                out.append(f"r:{key}")
                return
            for c in _walk_children(n):
                rec(c, d + 1)

        rec(idx, 0)
        return tuple(dict.fromkeys(out))

    def _taint_store(self, n: Node) -> None:
        view, fn = self.view, self.fn
        lhs = view.node(n.ref("op 0"))
        if lhs is None:
            return
        dst = None
        if lhs.tag == "component_ref":
            fd = view.node(lhs.ref("op 1"))
            if fd is not None and fd.tag == "field_decl":
                recn = view.node(fd.ref("scpe"))
                rn = view.ident(recn.ref("name")) \
                    if recn is not None else None
                if rn in TRACKED_RECORDS:
                    dst = f"f:{rn}.{view.decl_name(fd)}"
        elif lhs.tag == "var_decl" and _int_typed(view, lhs):
            nm = view.decl_name(lhs)
            dst = f"l:{nm}" if nm else None
        elif lhs.tag == "parm_decl" and _int_typed(view, lhs):
            pos = self.params.get(lhs.idx)
            dst = f"p{pos}" if pos is not None else None
        elif lhs.tag == "result_decl":
            dst = "ret"
        if dst is None:
            return
        atoms = self._atoms_of(n.ref("op 1"))
        if atoms:
            fn.taints.append(TaintEvent(
                kind="flow", dst=dst, atoms=atoms,
                detail=f"store to {dst}", file=fn.file, line=self.line))

    def _taint_call(self, call: Node, decl: Node, key: str, name: str,
                    kind: str) -> None:
        """Caller-side GL6 facts: integer argument flows into the callee's
        parameter slots, plus the sink table."""
        view, fn = self.view, self.fn
        args: dict[int, int] = dict(call.indexed_refs())
        for pos, argidx in sorted(args.items()):
            argn = view.node(argidx)
            if not _int_typed(view, argn):
                continue
            atoms = self._atoms_of(argidx)
            if atoms:
                fn.taints.append(TaintEvent(
                    kind="flow", dst=f"a:{key}:{pos}", atoms=atoms,
                    detail=f"arg {pos} of {name}", file=fn.file,
                    line=self.line))
        sink = SINK_CALLS.get(name)
        if sink is not None:
            idxs, skind = sink
            project_ok = name in ("pread_some", "pread_full",
                                  "pwrite_full")
            if (kind in ("std", "global")) or (project_ok and
                                               kind == "project"):
                atoms = []
                for pos in idxs:
                    if pos in args:
                        atoms.extend(self._atoms_of(args[pos]))
                atoms = tuple(dict.fromkeys(atoms))
                if atoms:
                    fn.taints.append(TaintEvent(
                        kind="sink", dst=skind, atoms=atoms,
                        detail=f"{name}()", file=fn.file, line=self.line))
        if name == "operator[]" and kind == "std":
            chain = view.scope_chain(decl)
            if chain and chain[-1] in INDEX_RECORDS and 1 in args:
                atoms = self._atoms_of(args[1])
                if atoms:
                    fn.taints.append(TaintEvent(
                        kind="sink", dst="index", atoms=atoms,
                        detail=f"{chain[-1]}::operator[]", file=fn.file,
                        line=self.line))

    def _handle_cond(self, n: Node) -> None:
        """Two GL6 facts live on cond_expr. A loop latch (both branches
        are gotos in genericized loop form) whose condition compares a
        tainted value is a loop-bound sink. A branch that compares a
        value and then throws/returns/aborts is explicit range
        validation: the compared atoms are sanitized for the rest of the
        function (flow-insensitive blessing; see taint.py)."""
        view, fn = self.view, self.fn
        cond = n.ref("op 0")
        if cond is None:
            return
        catoms: list[str] = []
        for cnode in _subtree(view, cond, limit=200):
            if cnode.tag in _COMPARE_TAGS:
                catoms.extend(self._atoms_of(cnode.ref("op 0")))
                catoms.extend(self._atoms_of(cnode.ref("op 1")))
        atoms = tuple(dict.fromkeys(catoms))
        if not atoms:
            return
        b1 = view.node(n.ref("op 1"))
        b2 = view.node(n.ref("op 2"))
        if b1 is not None and b2 is not None and \
                b1.tag == "goto_expr" and b2.tag == "goto_expr":
            fn.taints.append(TaintEvent(
                kind="sink", dst="loop", atoms=atoms, detail="loop bound",
                file=fn.file, line=self.line))
            return
        for bidx in (n.ref("op 1"), n.ref("op 2")):
            if bidx is None:
                continue
            for bnode in _subtree(view, bidx, limit=300):
                bails = bnode.tag in ("throw_expr", "return_expr")
                if not bails and bnode.tag in _CALL_TAGS:
                    d = _callee_decl(view, bnode)
                    bails = d is not None and \
                        view.decl_name(d) in COLD_VALIDATORS
                if bails:
                    fn.taints.append(TaintEvent(
                        kind="sanitize", dst="", atoms=atoms,
                        detail="range check", file=fn.file,
                        line=self.line))
                    return

    def _maybe_guard_ctor(self, call: Node, decl: Node,
                          lids: tuple) -> None:
        """A gstore guard construction is a lock acquisition; record the
        guard variable's lock identity so the try_finally that scopes it
        (walked next, in statement order) can push the identity."""
        view, fn = self.view, self.fn
        if "constructor" not in decl.attrs.get("note", []):
            return
        chain = view.scope_chain(decl)
        if not chain or chain[-1] not in GUARD_CLASSES or \
                "gstore" not in chain:
            return
        var = None
        arg0 = view.node(call.ref("0"))
        if arg0 is not None and arg0.tag == "addr_expr":
            v = view.node(arg0.ref("op 0"))
            if v is not None:
                var = view.decl_name(v)
        lock = self._lock_identity(call.ref("1"))
        if lock is None:
            return                       # unresolvable: under-approximate
        if var:
            self.guard_ids[var] = lock
        fn.acquires.append(AcquireEvent(
            lock=lock, held=lids, file=fn.file, line=self.line))

    def _lock_identity(self, idx: int | None,
                       depth: int = 0) -> str | None:
        """Lock identity for a guard ctor's mutex argument: member path +
        owning class ('CachePool::mutex_'), or a function-qualified name
        for local/param mutexes. Class-level, not instance-level — two
        instances of one class share an identity, which over-approximates
        in the direction GL7 wants."""
        view = self.view
        n = view.node(idx)
        if n is None or depth > 12:
            return None
        if n.tag in ("addr_expr", "nop_expr", "convert_expr",
                     "non_lvalue_expr", "save_expr", "indirect_ref",
                     "view_convert_expr"):
            return self._lock_identity(n.ref("op 0"), depth + 1)
        if n.tag == "component_ref":
            fd = view.node(n.ref("op 1"))
            if fd is None or fd.tag != "field_decl":
                return None
            recn = view.node(fd.ref("scpe"))
            rn = view.ident(recn.ref("name")) if recn is not None else None
            fname = view.decl_name(fd)
            return f"{rn}::{fname}" if rn and fname else None
        if n.tag in ("var_decl", "parm_decl"):
            nm = view.decl_name(n)
            qual = self.fn.key.split("(", 1)[0]
            return f"{qual}::{nm}" if nm else None
        return None


def lower_section(section: Section) -> FnModel | None:
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    try:
        return _Lowerer(section).lower()
    except RecursionError:
        return None
