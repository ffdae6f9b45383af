"""Critical-path analysis over :class:`SpanTracer` forests.

Answers "where did my p99 go": for every finished request trace,
attribute **every instant** of the root's wall-clock window to exactly
one stage — the *deepest span active at that instant*, mapped to a
small stable stage vocabulary (``queueing``, ``engine.tx``,
``rdma.send``, ``engine.rx``, ``fn.exec``, ``iolib`` ...).  The spans
form causality chains rather than nested intervals (an ``engine.rx``
child outlives the ``rdma.send`` that caused it), so attribution is an
event sweep over the whole trace, not a tree walk: at each instant the
span furthest from the root wins, and instants where only the root is
active are *queueing* — the request sat in an ingress/dispatch queue
with nobody working on it.  Per-request attributions aggregate into a
p50/p99 stage-attribution table, and two reports diff into a "dominant
stage shift" between sweep points (the tail moved from the wire to the
queue, say, when a baseline saturates).

Attribution streams: :class:`~.spans.SpanTracer` calls
:func:`trace_rows` on each trace as its last span closes and keeps the
rows, so a report covers every request even though only a sample of
traces keeps its spans.  Reads spans only, never the simulation.
"""

from __future__ import annotations

from itertools import count, islice
from operator import itemgetter, sub
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:
    from .spans import Span, SpanTracer

__all__ = ["CriticalPathReport", "analyze", "dominant_shift", "stage_of",
           "trace_rows"]

#: root-name prefixes of the traces a report covers by default
REQUEST_ROOTS = ("request:", "invoke:")

#: canonical display order for known stages (extras append after, sorted)
STAGE_ORDER = [
    "queueing", "ingress", "engine.tx", "rdma.send", "engine.rx",
    "fn.exec", "fn.invoke", "iolib", "migration",
]

_PREFIX_STAGES = [
    ("engine.tx", "engine.tx"),
    ("engine.rx", "engine.rx"),
    ("rdma.", "rdma.send"),
    ("fn.exec", "fn.exec"),
    ("fn.invoke", "fn.invoke"),
    ("iolib.", "iolib"),
    ("gw.", "ingress"),
    ("ingress", "ingress"),
    ("migrate", "migration"),
    ("drain", "migration"),
]


#: name -> stage for the names that decide their stage alone, and
#: (name, category) -> stage for the others (see :func:`_stage`)
_STAGES: Dict[Any, str] = {}

_DEPTH = itemgetter(0)
_START = itemgetter(1)
_END = itemgetter(2)


def _named_stage(name: str) -> str:
    """The stage ``name`` alone decides, or ``""``."""
    if name.startswith(REQUEST_ROOTS):
        # A root's *self* time is queueing: nobody worked the request.
        return "queueing"
    for prefix, stage in _PREFIX_STAGES:
        if name.startswith(prefix):
            return stage
    return ""


def stage_of(span: Span) -> str:
    """Map a span to its stage name (``other:*`` when unrecognized)."""
    stage = _named_stage(span.name)
    if stage:
        return stage
    if span.category == "rdma":
        return "rdma.send"
    if span.category == "function":
        return "fn.exec"
    return f"other:{span.category or span.name.split(':')[0]}"


def _stage(span: Span) -> str:
    """:func:`stage_of`, memoised in ``_STAGES`` (the loop in
    :func:`_attribute` looks the name up there first)."""
    name = span.name
    stage = _STAGES.get(name)
    if stage is None:
        key = (name, span.category)
        stage = _STAGES.get(key)
        if stage is None:
            stage = stage_of(span)
            _STAGES[name if _named_stage(name) else key] = stage
    return stage


class CriticalPathReport:
    """Aggregated critical paths for one run (one tracer)."""

    def __init__(self, requests: List[Dict[str, Any]], label: str = ""):
        #: per-request rows: {trace_id, total_us, stages: {stage: us}}
        self.requests = sorted(requests,
                               key=lambda r: (r["total_us"], r["trace_id"]))
        self.label = label

    # -- per-quantile --------------------------------------------------------
    def quantile_request(self, q: float) -> Optional[Dict[str, Any]]:
        """The request whose total latency sits at quantile ``q``."""
        if not self.requests:
            return None
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        idx = min(int(q * len(self.requests)), len(self.requests) - 1)
        return self.requests[idx]

    def stage_shares(self, q: float) -> Dict[str, float]:
        """Stage -> share of the quantile-``q`` request's latency."""
        req = self.quantile_request(q)
        if req is None or req["total_us"] <= 0:
            return {}
        return {stage: us / req["total_us"]
                for stage, us in req["stages"].items()}

    def dominant_stage(self, q: float = 0.99) -> Tuple[str, float]:
        """(stage, share) with the largest share at quantile ``q``."""
        shares = self.stage_shares(q)
        if not shares:
            return ("", 0.0)
        stage = max(sorted(shares), key=lambda s: shares[s])
        return (stage, shares[stage])

    def named_coverage(self, q: float = 0.99) -> float:
        """Fraction of the quantile-``q`` latency attributed to *named*
        stages (everything except ``other:*``)."""
        req = self.quantile_request(q)
        if req is None or req["total_us"] <= 0:
            return 0.0
        named = sum(us for stage, us in req["stages"].items()
                    if not stage.startswith("other:"))
        return named / req["total_us"]

    # -- table ---------------------------------------------------------------
    def _stage_list(self) -> List[str]:
        seen = set()
        for req in self.requests:
            seen.update(req["stages"])
        ordered = [s for s in STAGE_ORDER if s in seen]
        ordered += sorted(s for s in seen if s not in STAGE_ORDER)
        return ordered

    def table(self) -> List[Dict[str, Any]]:
        """p50/p99 stage-attribution rows (µs and share per stage)."""
        p50 = self.quantile_request(0.50)
        p99 = self.quantile_request(0.99)
        rows: List[Dict[str, Any]] = []
        if p50 is None or p99 is None:
            return rows
        # mean share across every request, weighted by nothing (each
        # request votes once) — robust to a few huge outliers
        mean_shares: Dict[str, float] = {}
        counted = 0
        for req in self.requests:
            if req["total_us"] <= 0:
                continue
            counted += 1
            for stage, us in req["stages"].items():
                mean_shares[stage] = (mean_shares.get(stage, 0.0)
                                      + us / req["total_us"])
        for stage in self._stage_list():
            rows.append({
                "stage": stage,
                "p50_us": round(p50["stages"].get(stage, 0.0), 3),
                "p50_share": round(p50["stages"].get(stage, 0.0)
                                   / p50["total_us"], 4)
                if p50["total_us"] else 0.0,
                "p99_us": round(p99["stages"].get(stage, 0.0), 3),
                "p99_share": round(p99["stages"].get(stage, 0.0)
                                   / p99["total_us"], 4)
                if p99["total_us"] else 0.0,
                "mean_share": round(mean_shares.get(stage, 0.0)
                                    / counted, 4) if counted else 0.0,
            })
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (dashboard + ExperimentResult payload)."""
        p50 = self.quantile_request(0.50)
        p99 = self.quantile_request(0.99)
        dom_stage, dom_share = self.dominant_stage(0.99)
        return {
            "label": self.label,
            "requests": len(self.requests),
            "p50_total_us": round(p50["total_us"], 3) if p50 else 0.0,
            "p99_total_us": round(p99["total_us"], 3) if p99 else 0.0,
            "dominant_stage_p99": dom_stage,
            "dominant_share_p99": round(dom_share, 4),
            "named_coverage_p99": round(self.named_coverage(0.99), 4),
            "table": self.table(),
        }


def _attribute(spans: List[Span], lo: float, hi: float) -> Dict[str, float]:
    """Stage -> µs of the root's window ``[lo, hi)``, ``lo < hi``.

    ``spans`` is the trace in start order, root first, so every parent
    comes before its children: one pass gives each finished span that
    reaches the root through finished spans its depth.  Spans are
    causality chains, not nested intervals — a child routinely outlives
    its parent — so each elementary interval between span boundaries
    is charged to the *deepest* span covering it, ties to the
    later-started one; intervals covered only by the root charge the
    root's own stage (queueing).  Painting the spans over the intervals
    in ascending (depth, start) order leaves each interval with that
    span, and each stage sums its intervals in time order.
    """
    root = spans[0]
    depth_of = {root.span_id: 0}
    #: (depth, start, end, stage) of the spans that cover some of the
    #: window, clipped to it
    members: List[Tuple[int, float, float, str]] = []
    known = _STAGES
    for span in islice(spans, 1, None):
        end = span.end_us
        if end is None:
            continue
        try:
            depth = depth_of[span.parent_id] + 1
        except KeyError:  # the parent is unfinished or unreachable
            continue
        depth_of[span.span_id] = depth
        start = span.start_us
        if start < lo:
            start = lo
        if end > hi:
            end = hi
        if end > start:
            try:
                stage = known[span.name]
            except KeyError:
                stage = _stage(span)
            members.append((depth, start, end, stage))
    bounds = {lo, hi}
    bounds.update(map(_START, members))
    bounds.update(map(_END, members))
    edges = sorted(bounds)
    index = dict(zip(edges, count()))
    owner = [_stage(root)] * (len(edges) - 1)
    members.sort(key=_DEPTH)  # stable: start order within a depth
    for _depth, start, end, stage in members:
        first, last = index[start], index[end]
        owner[first:last] = [stage] * (last - first)
    stages = dict.fromkeys(owner, 0.0)
    for stage, span_us in zip(owner, map(sub, islice(edges, 1, None), edges)):
        stages[stage] += span_us
    return stages


def trace_rows(spans: List[Span]) -> List[Dict[str, Any]]:
    """Critical-path rows of one trace (in start order, root first):
    one row if its root is finished."""
    root = spans[0]
    lo, hi = root.start_us, root.end_us
    if hi is None:
        return []
    return [{
        "trace_id": root.trace_id,
        "name": root.name,
        "total_us": hi - lo,
        "stages": _attribute(spans, lo, hi) if hi > lo else {},
    }]


def analyze(tracer: SpanTracer,
            root_prefixes: Sequence[str] = REQUEST_ROOTS,
            label: str = "") -> CriticalPathReport:
    """Build a critical-path report from one tracer's finished roots.

    Closed traces were attributed as they closed; a trace that is
    still live (a child outlived its finished root) is attributed here
    from the spans it has so far.
    """
    rows = list(tracer.attributed)
    for spans in tracer.live_traces():
        rows.extend(trace_rows(spans))
    prefixes = tuple(root_prefixes)
    return CriticalPathReport(
        [row for row in rows
         if not prefixes or row["name"].startswith(prefixes)],
        label=label)


def dominant_shift(reports: "Dict[Any, CriticalPathReport]",
                   q: float = 0.99) -> List[Dict[str, Any]]:
    """Diff dominant stages across sweep points.

    ``reports`` maps sweep-point label -> report (insertion order is
    sweep order).  Each row carries the point's dominant stage at
    quantile ``q`` and whether it *shifted* from the previous point —
    the "the tail moved from the wire into the queue" signal.
    """
    rows: List[Dict[str, Any]] = []
    prev_stage: Optional[str] = None
    for point, report in reports.items():
        stage, share = report.dominant_stage(q)
        rows.append({
            "point": point,
            "dominant_stage": stage,
            "share": round(share, 4),
            "p99_total_us": round(
                (report.quantile_request(q) or {}).get("total_us", 0.0), 3),
            "shifted": prev_stage is not None and stage != prev_stage,
        })
        prev_stage = stage
    return rows
