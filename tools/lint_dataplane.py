#!/usr/bin/env python3
"""AST lint: no untyped ``meta`` plumbing outside ``repro.dataplane``.

PR 3 replaced the per-hop ``meta`` dicts with the typed
:class:`repro.dataplane.Message`.  This checker keeps the old idiom
from creeping back in.  Outside ``src/repro/dataplane/`` it rejects:

* attribute access ``<expr>.meta`` (the old descriptor field);
* ``meta=...`` keyword arguments (old WR/descriptor constructors);
* ``dict(meta)`` / ``dict(<expr>.meta)`` per-hop header copies;
* subscripts, ``.get(...)``, ``.pop(...)``, or ``.setdefault(...)``
  with a legacy underscore meta-key string literal (``"_ack"``,
  ``"_via"``, ``"_trace"``, ``"_crossed_domain"``, ``"_retries"``).

PR 8 moved all RDMA control-plane charging behind
:class:`repro.rdma.controlplane.RdmaControlPlane`.  Outside
``src/repro/rdma/`` the checker additionally rejects the ad-hoc cost
idiom that layer replaced:

* attribute access ``<expr>.rc_setup_us`` (QP setup must go through
  ``RdmaControlPlane.connect`` / ``ConnectionManager``);
* attribute access ``<expr>.mr_register_time`` (MR registration must
  go through ``RdmaControlPlane.register_region``).

(The bare dataclass/method *definitions* in ``repro/config.py`` are
not attribute accesses and stay legal.)

PR 9 added the hierarchical ingress tier: every gateway-selection
decision (L1 spray) belongs to ``repro.ingress`` — callers hold a
connection, never a gateway.  Outside ``src/repro/ingress/`` (and
``src/repro/hw/``, which owns the RSS primitive itself) the checker
rejects direct spray calls:

* calls to ``rss_queue(...)`` / ``rss_pick(...)`` (gateway/queue
  selection must go through ``IngressLoadBalancer``).

The batched-execution PR moved every CQ consumer to coalesced
draining (``cq.poll_batch()`` — one kernel wakeup per completion
burst).  Outside ``src/repro/rdma/`` (the device layer that owns the
CQ) the checker rejects the per-CQE idiom it replaced:

* calls ``cq.get(...)`` / ``<expr>.cq.get(...)`` (drain with
  ``poll_batch()`` so a burst costs one wakeup, not one per CQE).

Usage::

    python tools/lint_dataplane.py [root ...]

Exits non-zero and prints one ``path:line:col message`` per violation.
With no arguments it checks ``src/repro`` relative to the repo root.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

#: underscore keys the old dict-based header used
LEGACY_META_KEYS = frozenset(
    {"_ack", "_via", "_trace", "_crossed_domain", "_retries"}
)

#: dict methods whose first string argument is a key lookup
_KEY_METHODS = frozenset({"get", "pop", "setdefault"})

#: path fragment that is allowed to talk about the wire format
EXEMPT_PART = "dataplane"

#: path fragment that is allowed to charge control-plane costs
CONTROLPLANE_EXEMPT_PART = "rdma"

#: CostModel members only the control-plane layer may touch
CONTROLPLANE_COSTS = frozenset({"rc_setup_us", "mr_register_time"})

#: path fragments allowed to make gateway/queue spray decisions
SPRAY_EXEMPT_PARTS = frozenset({"ingress", "hw"})

#: the spray/selection primitives reserved to the ingress tier
SPRAY_FUNCS = frozenset({"rss_queue", "rss_pick"})

#: path fragment allowed to pull single CQEs (the device layer)
CQ_EXEMPT_PART = "rdma"

Violation = Tuple[str, int, int, str]


class _MetaVisitor(ast.NodeVisitor):
    def __init__(self, path: str, check_meta: bool = True,
                 check_controlplane: bool = True,
                 check_spray: bool = True,
                 check_cq: bool = True):
        self.path = path
        self.check_meta = check_meta
        self.check_controlplane = check_controlplane
        self.check_spray = check_spray
        self.check_cq = check_cq
        self.violations: List[Violation] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            (self.path, node.lineno, node.col_offset, message)
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.check_meta and node.attr == "meta":
            self._flag(node, "attribute access '.meta' (use the typed "
                             "repro.dataplane.Message instead)")
        if self.check_controlplane and node.attr in CONTROLPLANE_COSTS:
            self._flag(node, f"control-plane cost '.{node.attr}' charged "
                             f"directly (go through repro.rdma."
                             f"controlplane.RdmaControlPlane)")
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if not self.check_meta:
            self.generic_visit(node)
            return
        if node.arg == "meta":
            self._flag(node.value, "keyword argument 'meta=' (pass "
                                   "'message=' with a dataplane Message)")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self.check_spray:
            callee = None
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            if callee in SPRAY_FUNCS:
                self._flag(node, f"direct gateway spray '{callee}()' "
                                 f"outside repro.ingress (route through "
                                 f"IngressLoadBalancer)")
        # cq.get(...) / <expr>.cq.get(...): per-CQE polling
        if self.check_cq and isinstance(func, ast.Attribute) \
                and func.attr == "get":
            base = func.value
            base_name = None
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute):
                base_name = base.attr
            if base_name == "cq":
                self._flag(node, "single-CQE 'cq.get()' polling outside "
                                 "repro.rdma (drain bursts with "
                                 "cq.poll_batch())")
        if not self.check_meta:
            self.generic_visit(node)
            return
        # dict(meta) / dict(x.meta): the per-hop header copy
        if (isinstance(func, ast.Name) and func.id == "dict"
                and len(node.args) == 1):
            arg = node.args[0]
            if (isinstance(arg, ast.Name) and arg.id == "meta") or (
                    isinstance(arg, ast.Attribute) and arg.attr == "meta"):
                self._flag(node, "per-hop 'dict(meta)' copy (ownership "
                                 "transfer replaces header copies)")
        # x.get("_trace") and friends
        if (isinstance(func, ast.Attribute) and func.attr in _KEY_METHODS
                and node.args):
            first = node.args[0]
            if (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and first.value in LEGACY_META_KEYS):
                self._flag(node, f"legacy meta key {first.value!r} via "
                                 f".{func.attr}() (use the typed Message "
                                 f"field)")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not self.check_meta:
            self.generic_visit(node)
            return
        key = node.slice
        if (isinstance(key, ast.Constant) and isinstance(key.value, str)
                and key.value in LEGACY_META_KEYS):
            self._flag(node, f"legacy meta key {key.value!r} subscript "
                             f"(use the typed Message field)")
        self.generic_visit(node)


def _is_exempt(path: Path) -> bool:
    return EXEMPT_PART in path.parts


def _is_controlplane_exempt(path: Path) -> bool:
    return CONTROLPLANE_EXEMPT_PART in path.parts


def _is_spray_exempt(path: Path) -> bool:
    return bool(SPRAY_EXEMPT_PARTS.intersection(path.parts))


def _is_cq_exempt(path: Path) -> bool:
    return CQ_EXEMPT_PART in path.parts


def check_file(path: Path) -> List[Violation]:
    """Return the violations in one Python source file."""
    check_meta = not _is_exempt(path)
    check_controlplane = not _is_controlplane_exempt(path)
    check_spray = not _is_spray_exempt(path)
    check_cq = not _is_cq_exempt(path)
    if not (check_meta or check_controlplane or check_spray or check_cq):
        return []
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - repo should parse
        return [(str(path), exc.lineno or 0, exc.offset or 0,
                 f"syntax error: {exc.msg}")]
    visitor = _MetaVisitor(str(path), check_meta=check_meta,
                           check_controlplane=check_controlplane,
                           check_spray=check_spray,
                           check_cq=check_cq)
    visitor.visit(tree)
    return visitor.violations


def check_tree(roots: Iterable[Path]) -> List[Violation]:
    """Walk ``roots`` and collect violations from every .py file."""
    violations: List[Violation] = []
    for root in roots:
        root = Path(root)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            violations.extend(check_file(path))
    return violations


def main(argv: List[str]) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    roots = [Path(a) for a in argv] or [repo_root / "src" / "repro"]
    violations = check_tree(roots)
    for path, line, col, message in violations:
        print(f"{path}:{line}:{col}: {message}")
    if violations:
        print(f"{len(violations)} dataplane lint violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
