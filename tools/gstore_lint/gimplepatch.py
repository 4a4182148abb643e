"""Recovers function bodies the GENERIC raw dumper drops.

GCC's raw tree dumper prints `try_catch_expr` nodes without operands, so
any function whose body genericizes under an EH-only cleanup — typically
one returning a non-trivial value, where the NRVO'd return object must be
destroyed if an exception escapes — dumps as an empty shell. ~6% of
project sections lose some or all of their body this way, including
exactly the value-returning collectors (reap_all, entries) GL1 exists to
police.

The GIMPLE dump of the same compile (`-fdump-tree-gimple-raw-lineno`)
has no such gap: it is printed by the gimple pretty-printer, which
handles every statement kind. It costs different information — callees
appear as unqualified names, and declared types lose template arguments —
so it is used only to *patch* functions the GENERIC dump truncated,
with name-based callee resolution done later against the full program
(see __main__._resolve_gimple_calls). Identity (key, noexcept) still
comes from the GENERIC section; only events are recovered here.

Format sketch (indentation-nested, one statement per line):

    struct vector gstore::io::AsyncEngine::Impl::reap_all (struct Impl * const this)
    gimple_bind <
      struct vector D.1234;
      struct MutexLock lock;

      [/abs/path.cpp:171:13] gimple_call <__ct_comp , NULL, &lock, &this->mutex>
      [/abs/path.cpp:171:13] gimple_try <GIMPLE_TRY_FINALLY,
        EVAL <
          [/abs/path.cpp:176:17] gimple_call <reserve, NULL, &done, _3>
        >
        CLEANUP <
          [/abs/path.cpp:171:13] gimple_call <__dt_comp , NULL, &lock>
        >
      >
    >
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .gccfront import COLD_VALIDATORS, DERIVED_RECORDS, INDEX_RECORDS, \
    JSON_SOURCE_METHODS, SANITIZER_NAMES, SINK_CALLS
from .model import AcquireEvent, ArithEvent, CallEvent, CompletionEvent, \
    FnModel, PinStoreEvent, TaintEvent

GUARD_CLASSES = {"MutexLock"}
WIRE_RECORDS = {
    "TilesFileHeader", "WalFileHeader", "WalFrameHeader", "FaultSpec",
    "TileStoreMeta", "TilePayloadHeader",
}
# Member names whose declared type is a wire record: GIMPLE text types
# only block-local decls, so `store.meta_.tile_count` is recognized by the
# member name rather than by the (invisible) type of `meta_`.
WIRE_MEMBERS = {"meta_": "TileStoreMeta"}
CONTAINER_STORE_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace", "insert", "assign", "insert_or_assign", "try_emplace",
}
COMPLETION_CHECK_FIELDS = {"ok", "error"}
COMPLETION_USE_FIELDS = {"bytes"}
# Structural plumbing that is not a call in the source program.
_PLUMBING = {
    "__ct_comp", "__ct_base", "__dt_comp", "__dt_base",
    "__cxa_begin_catch", "__cxa_end_catch", "__cxa_rethrow",
    "__builtin_eh_pointer", "__cxa_throw", "__cxa_allocate_exception",
}

_LOC = re.compile(r"^\[([^:\]]+):(\d+):\d+\]\s*")
_CALL = re.compile(r"gimple_call <([^,>]+)(.*)")
_ASSIGN = re.compile(r"gimple_assign <(\w+), (.*)")
_FIELD = re.compile(r"(\w+)(?:->|\.)(\w+)")
_CHAIN = re.compile(r"\w+(?:(?:->|\.)\w+)+")
_ADDR_ARG = re.compile(r"&(\w+)\b")
_WORD = re.compile(r"\b([A-Za-z_]\w*(?:\.\d+)?|_\d+|D\.\d+)\b")
_DECL = re.compile(r"(?:struct|class|union|enum)?\s*"
                   r"(?P<type>[\w:]+)[\s*&]+(?P<name>\w+)(?:\[\d*\])?;$")
_ARITH = {"mult_expr": "*", "plus_expr": "+", "lshift_expr": "<<"}
_COND = re.compile(r"gimple_cond <(\w+), ([^,]+), ([^,]+),"
                   r"(?: <([^>]+)>, <([^>]+)>>)?")
_COLD_CALLS = COLD_VALIDATORS
# Tracked records for GL6 field atoms (wire + derived, per gccfront).
_TRACKED = WIRE_RECORDS | DERIVED_RECORDS
# Type/qualifier words that never name a record in a parameter decl.
_PARAM_SKIP = {"const", "struct", "class", "union", "enum", "volatile",
               "unsigned", "signed", "long", "short", "int", "char",
               "bool", "float", "double", "void", "__restrict__"}


def _parse_params(params: str) -> list[tuple[str, str]]:
    """[(name, short record type or '')] in positional order, from the
    textual parameter list of a GIMPLE function header. `this` is the
    first entry for methods, matching gccfront's p0-is-this numbering."""
    out: list[tuple[str, str]] = []
    params = params.strip()
    if params in ("", "void"):
        return out
    depth = 0
    cur = ""
    parts: list[str] = []
    for ch in params:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    for p in parts:
        toks = re.findall(r"[\w:.]+", p)
        if not toks:
            continue
        name = toks[-1]
        ty = ""
        for t in reversed(toks[:-1]):
            base = t.split("::")[-1]
            if base in _PARAM_SKIP:
                continue
            ty = base.split("<")[0]
            break
        out.append((name, ty))
    return out


@dataclass
class Block:
    kind: str                       # bind | try_finally | try_catch |
    header: str                     # eval | cleanup | other
    children: list = field(default_factory=list)   # str stmts and Blocks

    def text(self) -> str:
        out = [self.header]
        for c in self.children:
            out.append(c.text() if isinstance(c, Block) else c)
        return "\n".join(out)


def _block_kind(stripped: str) -> str:
    if "gimple_bind <" in stripped:
        return "bind"
    if "gimple_try <GIMPLE_TRY_FINALLY" in stripped:
        return "try_finally"
    if "gimple_try <GIMPLE_TRY_CATCH" in stripped:
        return "try_catch"
    if stripped == "EVAL <":
        return "eval"
    if stripped == "CLEANUP <":
        return "cleanup"
    return "other"


def _is_header(line: str) -> bool:
    return (bool(line) and not line[0].isspace()
            and " (" in line
            and not line.startswith((">", "gimple_", "__attribute__", ";;")))


def arity(params: str) -> int:
    """Top-level parameter count of a textual parameter list. Tracks <>
    depth so template-argument commas (GENERIC pretty params) don't split."""
    params = params.strip()
    if params in ("", "void"):
        return 0
    depth = 0
    n = 1
    for ch in params:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        elif ch == "," and depth == 0:
            n += 1
    return n


def parse(text: str) -> dict[str, list[tuple[int, str, Block]]]:
    """qualified function name -> [(arity, params-text, body)] (overloads
    share a name; the caller disambiguates by parameter count)."""
    out: dict[str, list[tuple[int, str, Block]]] = {}
    qual: str | None = None
    nargs = 0
    params_text = ""
    root: Block | None = None
    stack: list[Block] = []
    for line in text.splitlines():
        stripped = line.strip()
        if _is_header(line):
            if qual and root is not None:
                out.setdefault(qual, []).append((nargs, params_text, root))
            head, _, params = line.rsplit(" (", 1)[0], None, \
                line.rsplit(" (", 1)[-1]
            params = params.rsplit(")", 1)[0]
            name = head.split()[-1] if head.split() else ""
            qual = name if re.fullmatch(r"[\w:~]+", name) else None
            nargs = arity(params)
            params_text = params
            root = None
            stack = []
            continue
        if qual is None or not stripped:
            # Blank lines still delimit bind decl lists; keep them.
            if stack and not stripped:
                stack[-1].children.append("")
            continue
        # Closers: a line of only '>' tokens pops one level per token.
        if re.fullmatch(r"[>\s,]+", stripped):
            for _ in range(stripped.count(">")):
                if stack:
                    stack.pop()
            continue
        # `gimple_catch <NULL, ` opens a multi-line construct without a
        # trailing '<'; missing it makes the closer over-pop and every
        # later CLEANUP attach one level too shallow (losing guard
        # regions that contain a catch clause).
        opens = (stripped.endswith("<")
                 or "gimple_try <GIMPLE" in stripped
                 or ("gimple_catch <" in stripped
                     and not stripped.endswith(">")))
        if opens:
            blk = Block(_block_kind(stripped), stripped)
            if stack:
                stack[-1].children.append(blk)
            elif root is None:
                root = blk
            else:  # stray second top-level block: nest under root
                root.children.append(blk)
            stack.append(blk)
        elif stack:
            stack[-1].children.append(stripped)
    if qual and root is not None:
        out.setdefault(qual, []).append((nargs, params_text, root))
    return out


class _Recover:
    def __init__(self, fn: FnModel, tu_file: str, params: str = ""):
        self.fn = fn
        self.tu = tu_file
        self.decls: dict[str, str] = {}      # var name -> class-ish name
        self.tainted: dict[str, str] = {}    # tainted name -> origin label
        self.file = tu_file
        self.line = fn.line
        # GL6/GL7 state: positional parameter map (this = slot 0 for
        # methods, as in gccfront), temp/local -> source atoms, and guard
        # variable -> lock identity.
        self.params: dict[str, int] = {}
        for i, (nm, ty) in enumerate(_parse_params(params)):
            self.params[nm] = i
            if ty:
                self.decls.setdefault(nm, ty)
        self.src_of: dict[str, tuple[str, ...]] = {}
        self.addr_of: dict[str, str] = {}    # temp -> '&this->mu_' text
        self.cond_taint: dict[str, tuple] = {}  # iftmp -> compared atoms
        self.guard_ids: dict[str, str] = {}
        self.fnqual = fn.key.split("(", 1)[0]
        self.owner = (self.fnqual.rsplit("::", 1)[0].rsplit("::", 1)[-1]
                      if "::" in self.fnqual else "")

    def _loc(self, stmt: str) -> str:
        m = _LOC.match(stmt)
        if m:
            self.file, self.line = m.group(1), int(m.group(2))
        return _LOC.sub("", stmt)

    def _bind_decls(self, blk: Block) -> None:
        for c in blk.children:
            if not isinstance(c, str):
                continue
            if c == "":
                break                        # decls end at the blank line
            m = _DECL.search(c)
            if m:
                self.decls[m.group("name")] = m.group("type").split("::")[-1]

    def _guard_in_cleanup(self, blk: Block) -> str | None:
        for sub in blk.children:
            if isinstance(sub, Block) and sub.kind == "cleanup":
                for m in re.finditer(
                        r"gimple_call <__dt_\w+ ?,[^>]*&(\w+)", sub.text()):
                    cls = self.decls.get(m.group(1))
                    if cls in GUARD_CLASSES:
                        return f"{cls} {m.group(1)}"
        return None

    def _has_catch(self, blk: Block) -> bool:
        for sub in blk.children:
            if isinstance(sub, Block) and sub.kind == "cleanup":
                if "gimple_catch" in sub.text():
                    return True
        return False

    def walk(self, blk: Block, locks: tuple, lids: tuple,
             shielded: bool) -> None:
        if blk.kind == "bind":
            self._bind_decls(blk)
        guard = None
        shield_eval = False
        if blk.kind == "try_finally":
            guard = self._guard_in_cleanup(blk)
        elif blk.kind == "try_catch":
            shield_eval = self._has_catch(blk)
        kids = blk.children
        for i, c in enumerate(kids):
            if isinstance(c, Block):
                inner_locks = locks
                inner_lids = lids
                inner_shield = shielded
                if c.kind == "eval":
                    if guard:
                        inner_locks = locks + (guard,)
                        gid = self.guard_ids.get(guard.split(" ", 1)[-1])
                        if gid:
                            inner_lids = lids + (gid,)
                    if shield_eval:
                        inner_shield = True
                self.walk(c, inner_locks, inner_lids, inner_shield)
            else:
                self._stmt(c, locks, lids, shielded, kids, i)

    def _stmt(self, stmt: str, locks: tuple, lids: tuple, shielded: bool,
              kids: list = (), at: int = 0) -> None:
        stmt = self._loc(stmt)
        m = _CALL.match(stmt)
        if m:
            self._call(m.group(1).strip(), m.group(2), locks, lids,
                       shielded)
            return
        m = _ASSIGN.match(stmt)
        if m:
            self._assign(m.group(1), m.group(2))
            return
        if stmt.startswith("gimple_cond"):
            self._cond(stmt, kids, at)
        elif stmt.startswith("gimple_return"):
            inner = stmt[len("gimple_return <"):].rstrip(">")
            inner = re.sub(r"\[[^\]]*\]", "", inner)
            if "retval" in inner:
                atoms = (self.src_of.get("*<retval>")
                         or self.src_of.get("<retval>") or ())
            else:
                atoms = self._atoms(inner)
            if atoms:
                self.fn.taints.append(TaintEvent(
                    kind="flow", dst="ret", atoms=atoms,
                    detail="returned value", file=self.file,
                    line=self.line))

    def _wire_source(self, text: str) -> str | None:
        """Untrusted-source label if `text` reads a wire-record field."""
        for m in _CHAIN.finditer(text):
            comps = re.split(r"->|\.", m.group(0))
            if self.decls.get(comps[0]) in WIRE_RECORDS:
                return f"{self.decls[comps[0]]}.{comps[-1]}"
            for i, c in enumerate(comps):
                if c in WIRE_MEMBERS:
                    rec = WIRE_MEMBERS[c]
                    return (f"{rec}.{comps[-1]}" if i < len(comps) - 1
                            else rec)
        return None

    def _completion_vars(self, argtext: str) -> list[str]:
        out = []
        for w in _WORD.findall(argtext):
            if self.decls.get(w) == "Completion":
                out.append(w)
        return out

    def _field_atom(self, chain: str) -> str | None:
        """`f:Rec.fld` if a member chain lands in a tracked record."""
        comps = re.split(r"->|\.", chain.strip().lstrip("&*"))
        rec = self.decls.get(comps[0])
        if rec in _TRACKED and len(comps) > 1:
            return f"f:{rec}.{comps[-1]}"
        if comps[0] == "this" and self.owner in _TRACKED and len(comps) > 1:
            return f"f:{self.owner}.{comps[-1]}"
        for i, c in enumerate(comps):
            if c in WIRE_MEMBERS and i < len(comps) - 1:
                return f"f:{WIRE_MEMBERS[c]}.{comps[-1]}"
        return None

    def _atoms(self, text: str) -> tuple[str, ...]:
        """Source atoms of a textual GIMPLE operand: tracked-record field
        chains, parameters, and temps/locals resolved through src_of."""
        out: dict[str, None] = {}
        spans: list[tuple[int, int]] = []
        for m in _CHAIN.finditer(text):
            a = self._field_atom(m.group(0))
            if a:
                out[a] = None
                spans.append(m.span())
            elif m.group(0) in self.src_of:
                for x in self.src_of[m.group(0)]:
                    out[x] = None
                spans.append(m.span())
        for m in _WORD.finditer(text):
            if any(s <= m.start() < e for s, e in spans):
                continue
            w = m.group(1)
            if w in self.params:
                out[f"p{self.params[w]}"] = None
            elif w in self.src_of:
                for x in self.src_of[w]:
                    out[x] = None
            if len(out) >= 8:
                break
        return tuple(out)

    def _lock_identity(self, text: str) -> str | None:
        """Class-level identity of a guard ctor's lock argument, matching
        gccfront: `&this->mu_` -> Owner::mu_, `&obj.mu_` -> Decl::mu_,
        `&mu` -> fnqual::mu. The address is often computed into an SSA
        temp first (`addr_expr, _1, &this->mu_`); addr_of resolves it."""
        t = re.sub(r"\[[^\]]*\]", "", text).strip()
        t = self.addr_of.get(t, t)
        t = t.lstrip("&").strip()
        comps = re.split(r"->|\.", t)
        if len(comps) >= 2:
            base, fld = comps[0], comps[-1]
            if base == "this":
                return f"{self.owner}::{fld}" if self.owner else None
            cls = self.decls.get(base)
            return f"{cls}::{fld}" if cls else None
        if re.fullmatch(r"\w+", t):
            return f"{self.fnqual}::{t}"
        return None

    def _call(self, name: str, argtext: str, locks: tuple, lids: tuple,
              shielded: bool) -> None:
        fn = self.fn
        argtext = re.sub(r"\[[^\]]*\]", "", argtext)   # strip per-arg locs
        if name not in _PLUMBING:
            fn.calls.append(CallEvent(
                callee=None, callee_name=name, scope="gimple",
                file=self.file, line=self.line, locks=locks,
                shielded=shielded, lock_ids=lids))
        # GL2: container-store of a BufferPin-typed local.
        if name in CONTAINER_STORE_METHODS:
            for v in _ADDR_ARG.findall(argtext):
                if self.decls.get(v) == "BufferPin":
                    fn.pin_stores.append(PinStoreEvent(
                        kind="container",
                        detail=f"{name}() argument carries a BufferPin",
                        file=self.file, line=self.line))
                    break
        # GL3: reassignment resets; any other call taking the lvalue
        # transfers the checking obligation.
        cvars = self._completion_vars(argtext)
        if cvars:
            kind = "reset" if name == "operator=" else "check"
            detail = "reassigned" if kind == "reset" else "passed-to-callee"
            for v in cvars:
                fn.completions.append(CompletionEvent(
                    kind=kind, var=v, detail=detail,
                    file=self.file, line=self.line))
        # GL4: calls on wire-record lvalues taint their destination.
        lhs = argtext.split(",")[1].strip() if "," in argtext else ""
        if lhs and lhs != "NULL":
            src = self._wire_source(argtext)
            if src is None:
                for v in _WORD.findall(argtext):
                    if self.decls.get(v) in WIRE_RECORDS:
                        src = self.decls[v]
                        break
            if src is not None:
                self.tainted[lhs] = f"{src} via {name}()"
        # GL6/GL7 below: positional args (args[0] is the object for
        # method calls, matching GENERIC's this-at-slot-0 indexing).
        parts = [p.strip() for p in argtext.rstrip(">").split(",")]
        args = parts[2:]
        base = (name[len("__builtin_"):] if name.startswith("__builtin_")
                else name)
        # GL7: guard construction -> AcquireEvent with the lock identity.
        if name in ("__ct_comp", "__ct_base") and len(args) >= 2:
            v = _ADDR_ARG.match(args[0])
            if v and self.decls.get(v.group(1)) in GUARD_CLASSES:
                ident = self._lock_identity(args[1])
                if ident:
                    self.guard_ids[v.group(1)] = ident
                    fn.acquires.append(AcquireEvent(
                        lock=ident, held=lids, file=self.file,
                        line=self.line))
        if name in _PLUMBING:
            return
        has_lhs = lhs and lhs != "NULL"
        if base in SANITIZER_NAMES:
            # Ranged/checked helper: its result is clean by construction.
            if has_lhs:
                self.src_of[lhs] = ()
            return
        if base in JSON_SOURCE_METHODS:
            if has_lhs:
                self.src_of[lhs] = (f"src:Json.{base}",)
            return
        # Taint crossing the call: each arg with source atoms flows into
        # the callee (resolved by name later, see _resolve_gimple_calls),
        # and the result may carry the callee's return taint.
        for i, a in enumerate(args):
            atoms = self._atoms(a)
            if atoms:
                fn.taints.append(TaintEvent(
                    kind="flow", dst=f"a:gimple:{name}:{i}", atoms=atoms,
                    detail=f"argument {i} of {name}()", file=self.file,
                    line=self.line))
        if has_lhs:
            self.src_of[lhs] = (f"r:gimple:{name}",)
        # GL6 sinks: allocation/length tables plus operator[] on a
        # known indexable container local.
        sink = SINK_CALLS.get(base)
        if sink is not None:
            positions, verb = sink
            for pos in positions:
                if pos < len(args):
                    atoms = self._atoms(args[pos])
                    if atoms:
                        fn.taints.append(TaintEvent(
                            kind="sink", dst=verb, atoms=atoms,
                            detail=f"{base}()", file=self.file,
                            line=self.line))
        elif base == "operator[]" and len(args) >= 2:
            recv = re.split(r"->|\.", args[0].lstrip("&*"))[0]
            if self.decls.get(recv) in INDEX_RECORDS:
                atoms = self._atoms(args[1])
                if atoms:
                    fn.taints.append(TaintEvent(
                        kind="sink", dst="index", atoms=atoms,
                        detail="operator[]", file=self.file,
                        line=self.line))

    def _assign(self, op: str, rest: str) -> None:
        fn = self.fn
        rest = re.sub(r"\[[^\]]*\]", "", rest)
        parts = [p.strip() for p in rest.rstrip(">").split(",")]
        lhs = parts[0] if parts else ""
        rhs = ", ".join(parts[1:])
        # GL3 field accesses: `c->ok`, `c->bytes`.
        for base, fieldname in _FIELD.findall(rhs):
            if self.decls.get(base) != "Completion":
                continue
            if fieldname in COMPLETION_CHECK_FIELDS:
                fn.completions.append(CompletionEvent(
                    kind="check", var=base, detail=fieldname,
                    file=self.file, line=self.line))
            elif fieldname in COMPLETION_USE_FIELDS:
                fn.completions.append(CompletionEvent(
                    kind="use", var=base, detail=fieldname,
                    file=self.file, line=self.line))
        # GL4 taint: wire-record field read taints the destination...
        tainted_rhs = self._wire_source(rhs)
        if tainted_rhs is None:
            for w in _WORD.findall(rhs):
                if w in self.tainted:
                    tainted_rhs = self.tainted[w]
                    break
        if tainted_rhs is not None and lhs:
            self.tainted[lhs] = tainted_rhs
        # ... and tainted multiply/add/shift is the GL4 event itself.
        arith = _ARITH.get(op)
        if arith and tainted_rhs is not None:
            fn.ariths.append(ArithEvent(
                op=arith, detail=tainted_rhs,
                file=self.file, line=self.line))
        if op == "addr_expr" and lhs and len(parts) > 1:
            self.addr_of[lhs] = parts[1]
        # Short-circuit `a || b` lowers to an iftmp boolean set under the
        # cond's labels; _cond pre-seeded cond_taint so the temp carries
        # the compared atoms into the final `if (iftmp)` test.
        if op == "integer_cst" and lhs in self.cond_taint:
            self.src_of[lhs] = self.cond_taint[lhs]
            return
        # GL6: thread source atoms through the assignment. Stores into a
        # tracked-record field or the return slot become flow events;
        # anything else updates the local resolution map (reassignment
        # overwrites, killing stale taint).
        atoms = self._atoms(rhs)
        if not lhs:
            return
        fa = self._field_atom(lhs)
        if fa:
            if atoms:
                fn.taints.append(TaintEvent(
                    kind="flow", dst=fa, atoms=atoms,
                    detail=f"store to {fa[2:]}", file=self.file,
                    line=self.line))
        elif "retval" in lhs:
            if atoms:
                fn.taints.append(TaintEvent(
                    kind="flow", dst="ret", atoms=atoms,
                    detail="returned value", file=self.file,
                    line=self.line))
            self.src_of[lhs] = atoms
        else:
            self.src_of[lhs] = atoms

    def _cond(self, stmt: str, kids: list, at: int) -> None:
        """A comparison whose failure branch bails (throw / return / a
        never-returns call) is a range check: bless the compared atoms
        for this function — and program-wide for field atoms (taint.py's
        trust-boundary contract). Branch structure is labels-and-gotos at
        this dump stage, so the scan is a bounded window over the
        flattened statements following the cond."""
        m = _COND.match(stmt)
        if not m:
            return
        atoms = tuple(dict.fromkeys(
            self._atoms(m.group(2)) + self._atoms(m.group(3))))
        if not atoms:
            return
        lines: list[str] = []
        for c in kids[at + 1:]:
            lines.extend((c.text() if isinstance(c, Block) else c)
                         .splitlines())
            if len(lines) > 60:
                break
        labels_left = {m.group(4), m.group(5)} - {None}
        bail = False
        for ln in lines[:60]:
            if not labels_left:
                break
            lm = re.search(r"gimple_label <<([^>]+)>>", ln)
            if lm:
                labels_left.discard(lm.group(1))
                continue
            cm = re.search(r"gimple_assign <integer_cst, (\S+),", ln)
            if cm:
                seen = self.cond_taint.get(cm.group(1), ())
                self.cond_taint[cm.group(1)] = tuple(
                    dict.fromkeys(seen + atoms))
            if ("__cxa_throw" in ln or "__cxa_allocate_exception" in ln
                    or "gimple_return" in ln
                    or any(f"gimple_call <{c}" in ln.replace(
                        "gimple_call <__builtin_", "gimple_call <")
                        for c in _COLD_CALLS)):
                bail = True
                break
        if bail:
            self.fn.taints.append(TaintEvent(
                kind="sanitize", dst="", atoms=atoms,
                detail="compare-and-bail", file=self.file,
                line=self.line))


def recover(base: FnModel, body: Block, tu_file: str,
            params: str = "") -> FnModel:
    """Events for `base` (identity reused) re-read from the GIMPLE body."""
    patch = FnModel(key=base.key, pretty=base.pretty, file=base.file,
                    line=base.line, noexcept=base.noexcept)
    r = _Recover(patch, tu_file, params)
    r.walk(body, locks=(), lids=(), shielded=False)
    return patch
