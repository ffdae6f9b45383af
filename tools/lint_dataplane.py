#!/usr/bin/env python3
"""AST lint: idioms the refactors retired stay retired.

Each rule below names the layer that replaced an idiom; outside that
layer the old idiom is rejected.

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

Stores that feed the data plane are consumed through a sink
(``Store.set_sink``): the store hands each item over when it is put,
with no consumer process between the store and the code it feeds.
Every CQ in the model is consumed this way, and so is the network
engine's Comch server inbox.  So the checker rejects a getter on
either store where it belongs to a sink:

* calls ``cq.get(...)`` / ``<expr>.cq.get(...)`` outside
  ``src/repro/rdma/`` (the device layer that owns the CQ), and
  ``server_inbox.get(...)`` / ``<expr>.server_inbox.get(...)`` inside
  ``src/repro/dne/`` (install a sink).

Guard timers are cancelled when the guarded event wins, so the event
heap holds only live work.  Outside ``src/repro/sim/`` (the kernel that
implements it) the checker rejects the uncancelled guarded wait:

* calls ``AnyOf(..., [..., <expr>.timeout(...)])``, or ``AnyOf(...,
  [..., t])`` where the same function bound ``t = <expr>.timeout(...)``
  (wait with ``yield from env.within(event, delay)``, which cancels the
  losing timer).

Metrics are read from the counts their owners keep: an owner registers
its readers with ``MetricsRegistry.collect`` and the exporters call
them.  Only the SLO monitor's inputs stay pushed:
histograms, and the ingress SLI counters.  So the checker rejects a
pushed gauge outside ``src/repro/telemetry/`` and a pushed counter
outside ``src/repro/ingress/``; inside it, only the three SLI counter
families (:data:`SLI_COUNTERS`) may be pushed:

* calls ``<expr>.metrics.gauge(...)`` / ``<expr>.metrics.counter(...)``,
  or ``m.gauge(...)`` / ``m.counter(...)`` where the same function bound
  ``m = <expr>.metrics`` (keep the count on its owner and register a
  reader for it).

Each CPU cost is stated once: a call site names its categories in
``core.run((category, host_us), ...)`` and the core charges the cycle
ledger for the work it runs.  So outside ``src/repro/hw/`` (the cores)
and ``src/repro/telemetry/`` (the ledger) the checker rejects a second,
parallel statement of the cost:

* attribute access ``<expr>.cycles.charge``, called or not, or
  ``c.charge`` where the same function bound ``c = <expr>.cycles``
  (pass the categories to ``run`` instead).

Every server in the model (a core, the SoC DMA engine, a NIC pipe, a
link) knows each hold time when it is claimed, so it is a busy-until
float, and the claim/release FIFO server left the model.  So anywhere
in the tree the checker rejects:

* calls ``Resource(...)`` / ``<expr>.Resource(...)`` (make the server a
  busy-until float: start at ``max(now, free_at)``, end at
  ``start + hold``).

Usage::

    python tools/lint_dataplane.py [root ...]

Exits non-zero and prints one ``path:line:col message`` per violation.
With no arguments it checks ``src/repro`` relative to the repo root.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

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

#: path fragment allowed to get CQEs from a CQ (the device layer)
CQ_EXEMPT_PART = "rdma"

#: path fragment whose Comch server inbox feeds a sink (the engine)
INBOX_SINK_PART = "dne"

#: path fragment allowed to race an event against a raw timer (the kernel)
GUARD_EXEMPT_PART = "sim"

#: the counters the SLO monitor reads in simulated time
SLI_COUNTERS = frozenset({"ingress_requests_total", "ingress_responses_total",
                          "ingress_admission_rejected_total"})

#: path fragments allowed to charge the cycle ledger (cores and ledger)
CYCLES_EXEMPT_PARTS = frozenset({"hw", "telemetry"})

#: metric kinds a site may not push, each with the one path fragment
#: that still may and the families it may push there (None: any)
PUSH_EXEMPTIONS = {"gauge": ("telemetry", None),
                   "counter": ("ingress", SLI_COUNTERS)}

Violation = Tuple[str, int, int, str]


def _callee(func: ast.expr):
    """The called name: ``f`` for ``f(...)`` and ``x.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_timer(node: ast.AST) -> bool:
    """``<expr>.timeout(...)``: a raw timer."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "timeout")


def _is_registry(node: ast.AST) -> bool:
    """``<expr>.metrics``: a metrics registry."""
    return isinstance(node, ast.Attribute) and node.attr == "metrics"


def _is_ledger(node: ast.AST) -> bool:
    """``<expr>.cycles``: the cycle ledger."""
    return isinstance(node, ast.Attribute) and node.attr == "cycles"


def _family_name(call: ast.Call) -> Optional[str]:
    """The family name a metric call passes as a string literal."""
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def _bound_names(scope: ast.AST, is_value) -> Set[str]:
    """Names that ``scope`` itself (not a nested def) binds to a value
    ``is_value`` accepts, as in ``t = env.timeout(d)``."""
    names: Set[str] = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Assign) and is_value(node.value):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        stack.extend(ast.iter_child_nodes(node))
    return names


class _MetaVisitor(ast.NodeVisitor):
    def __init__(self, path: str, check_meta: bool = True,
                 check_controlplane: bool = True,
                 check_spray: bool = True,
                 sink_stores: frozenset = frozenset({"cq"}),
                 check_guard: bool = True,
                 check_cycles: bool = True,
                 push_allowed: Optional[Dict[str, frozenset]] = None):
        self.path = path
        self.check_meta = check_meta
        self.check_controlplane = check_controlplane
        self.check_spray = check_spray
        #: store names whose ``get()`` is rejected here
        self.sink_stores = sink_stores
        self.check_guard = check_guard
        self.check_cycles = check_cycles
        #: metric kind -> the families a site here may still push
        self.push_allowed = ({kind: frozenset() for kind in PUSH_EXEMPTIONS}
                             if push_allowed is None else push_allowed)
        #: per enclosing scope, the names bound to raw timers, to
        #: metrics registries and to the cycle ledger
        self._timers: List[Set[str]] = [set()]
        self._registries: List[Set[str]] = [set()]
        self._ledgers: List[Set[str]] = [set()]
        self.violations: List[Violation] = []

    def _visit_scope(self, node: ast.AST) -> None:
        self._timers.append(_bound_names(node, _is_timer)
                            if self.check_guard else set())
        self._registries.append(_bound_names(node, _is_registry)
                                if self.push_allowed else set())
        self._ledgers.append(_bound_names(node, _is_ledger)
                             if self.check_cycles else set())
        self.generic_visit(node)
        self._timers.pop()
        self._registries.pop()
        self._ledgers.pop()

    visit_Module = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

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
        # x.cycles.charge / c.charge with c = x.cycles: a second
        # statement of a cost the core already charges
        if self.check_cycles and node.attr == "charge" and (
                _is_ledger(node.value) or (
                    isinstance(node.value, ast.Name)
                    and node.value.id in self._ledgers[-1])):
            self._flag(node, "cycle-ledger charge '.cycles.charge' outside "
                             "repro.hw and repro.telemetry (name the "
                             "categories in core.run((category, host_us), "
                             "...); the core charges the ledger)")
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
            callee = _callee(func)
            if callee in SPRAY_FUNCS:
                self._flag(node, f"direct gateway spray '{callee}()' "
                                 f"outside repro.ingress (route through "
                                 f"IngressLoadBalancer)")
        # cq.get() / x.server_inbox.get(): a consumer process between
        # a store and the code it feeds
        if isinstance(func, ast.Attribute) and func.attr == "get" \
                and _callee(func.value) in self.sink_stores:
            self._flag(node, f"'{_callee(func.value)}.get()' on a store "
                             f"that feeds a sink (consume it through the "
                             f"store's sink: Store.set_sink)")
        if _callee(func) == "Resource":
            self._flag(node, "FIFO server 'Resource(...)' in the model "
                             "(make the server a busy-until float: start "
                             "at max(now, free_at), end at start + hold)")
        # AnyOf(env, [event, env.timeout(d)]), or the same race with
        # the timer bound to a name first: an uncancelled guard
        timers = self._timers[-1]
        if self.check_guard and _callee(func) == "AnyOf" and any(
                isinstance(arg, (ast.List, ast.Tuple))
                and any(_is_timer(elt) or (isinstance(elt, ast.Name)
                                           and elt.id in timers)
                        for elt in arg.elts)
                for arg in node.args):
            self._flag(node, "guarded wait 'AnyOf(..., [..., "
                             "x.timeout(...)])' outside repro.sim (use "
                             "'yield from env.within(event, delay)', which "
                             "cancels the losing timer)")
        # x.metrics.counter(...) / m.gauge(...) with m = x.metrics: a
        # pushed metric its owner should expose through a reader
        if isinstance(func, ast.Attribute) \
                and func.attr in self.push_allowed \
                and (_is_registry(func.value) or (
                    isinstance(func.value, ast.Name)
                    and func.value.id in self._registries[-1])) \
                and _family_name(node) not in self.push_allowed[func.attr]:
            part, names = PUSH_EXEMPTIONS[func.attr]
            where = f"repro.{part}" + (" (SLI counters only)" if names else "")
            self._flag(node, f"pushed metric '.{func.attr}()' outside "
                             f"{where} (keep the count on its owner and "
                             f"register a reader: MetricsRegistry.collect)")
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


def _sink_stores(path: Path) -> frozenset:
    """The stores whose ``get()`` is rejected in ``path``."""
    stores = set()
    if CQ_EXEMPT_PART not in path.parts:
        stores.add("cq")
    if INBOX_SINK_PART in path.parts:
        stores.add("server_inbox")
    return frozenset(stores)


def _is_guard_exempt(path: Path) -> bool:
    return GUARD_EXEMPT_PART in path.parts


def _is_cycles_exempt(path: Path) -> bool:
    return bool(CYCLES_EXEMPT_PARTS.intersection(path.parts))


def check_file(path: Path) -> List[Violation]:
    """Return the violations in one Python source file."""
    check_meta = not _is_exempt(path)
    check_controlplane = not _is_controlplane_exempt(path)
    check_spray = not _is_spray_exempt(path)
    check_guard = not _is_guard_exempt(path)
    check_cycles = not _is_cycles_exempt(path)
    push_allowed = {kind: names if part in path.parts else frozenset()
                    for kind, (part, names) in PUSH_EXEMPTIONS.items()
                    if part not in path.parts or names is not None}
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - repo should parse
        return [(str(path), exc.lineno or 0, exc.offset or 0,
                 f"syntax error: {exc.msg}")]
    visitor = _MetaVisitor(str(path), check_meta=check_meta,
                           check_controlplane=check_controlplane,
                           check_spray=check_spray,
                           sink_stores=_sink_stores(path),
                           check_guard=check_guard,
                           check_cycles=check_cycles,
                           push_allowed=push_allowed)
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
