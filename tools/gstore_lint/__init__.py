"""gstore_lint: AST-grade domain-invariant static analysis for G-Store.

Seven domain checks (GL1..GL7) plus AST-grade versions of the
check_concurrency.py rules R1 and R4, computed over real compiler ASTs
rather than source text:

  GL1 blocking-under-lock   no syscall / file I/O / sleep reachable (over the
                            call graph) and no direct allocation while a
                            gstore::Mutex guard is held.
  GL2 pin escape            BufferPin values must not be stored into members
                            or containers outside the audited cache-pool
                            owner.
  GL3 unchecked completion  a Completion's ok/error must be inspected before
                            bytes is consumed.
  GL4 untrusted arithmetic  in parser TUs, * / + / << on disk- or CLI-derived
                            fields must flow through util/checked.h.
  GL5 unwind noexcept       everything reachable from drain()/quiesce() on
                            the unwind path must be noexcept or shielded by
                            catch(...).
  GL6 untrusted-byte taint  whole-program: untrusted bytes must pass a
                            sanitizer before reaching a size, index, I/O
                            length, shift or loop bound.
  GL7 lock order            the global lock-acquisition graph must be
                            acyclic.

One frontend lowers each translation unit into the event IR
(gstore_lint.model): gccfront reads the GCC GENERIC tree dump
(-fdump-tree-original-raw-lineno) of the TU's own compile command, and
gimplepatch recovers the bodies that dump truncates from the GIMPLE dump
of the same compile. It needs nothing beyond the project's own compiler.

Findings are grep-style `file:line: [GLn] message`; exit status is 0 when
clean, 1 with findings, 2 on usage/environment errors. Waivers are audited
source comments: `// GL-SAFE(GLn): reason` (see waivers.py).
"""

__version__ = "1.0"
