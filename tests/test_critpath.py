"""Critical-path attribution: stage mapping, the deepest-active-span
sweep, report quantiles, and the dominant-stage shift.

The synthetic tests build tiny span forests on a fake clock and check
the attribution arithmetic exactly; the acceptance test runs a real
instrumented boutique point and requires >= 90% of the p99 latency to
land in *named* stages.  The streaming tests hold the tracer's
close-time attribution to a post-hoc oracle over every span started.
"""

import heapq
import json
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import run_boutique_point
from repro.telemetry import CriticalPathReport, SpanTracer, analyze, dominant_shift
from repro.telemetry import spans as spans_mod
from repro.telemetry.critpath import stage_of
from repro.telemetry.spans import Span


class FakeClock:
    def __init__(self):
        self.now = 0.0


def span_at(tracer, clock, name, start, end, parent=None, category=""):
    clock.now = start
    s = tracer.start_span(name, parent=parent, category=category)
    clock.now = end
    tracer.end_span(s)
    return s


@pytest.fixture
def clock_tracer():
    clock = FakeClock()
    return clock, SpanTracer(clock)


class TestStageOf:
    def test_known_prefixes(self, clock_tracer):
        clock, tracer = clock_tracer
        cases = [
            ("request:/home", "", "queueing"),
            ("invoke:cart", "", "queueing"),
            ("engine.tx", "", "engine.tx"),
            ("engine.rx", "", "engine.rx"),
            ("rdma.write", "", "rdma.send"),
            ("fn.exec:frontend", "", "fn.exec"),
            ("fn.invoke:cart", "", "fn.invoke"),
            ("iolib.send", "", "iolib"),
            ("gw.accept", "", "ingress"),
            ("migrate.state", "", "migration"),
        ]
        for name, category, stage in cases:
            s = span_at(tracer, clock, name, 0, 1, category=category)
            assert stage_of(s) == stage, name

    def test_category_fallbacks_and_other(self, clock_tracer):
        clock, tracer = clock_tracer
        assert stage_of(span_at(tracer, clock, "weird", 0, 1,
                                category="rdma")) == "rdma.send"
        assert stage_of(span_at(tracer, clock, "weird", 0, 1,
                                category="function")) == "fn.exec"
        assert stage_of(span_at(tracer, clock, "weird.thing", 0, 1,
                                category="custom")) == "other:custom"


class TestAttribution:
    def test_childless_root_is_pure_queueing(self, clock_tracer):
        clock, tracer = clock_tracer
        span_at(tracer, clock, "request:/x", 0.0, 50.0)
        report = analyze(tracer)
        assert len(report.requests) == 1
        assert report.requests[0]["stages"] == {"queueing": 50.0}

    def test_gaps_around_a_child_are_queueing(self, clock_tracer):
        clock, tracer = clock_tracer
        clock.now = 0.0
        root = tracer.start_span("request:/x")
        span_at(tracer, clock, "fn.exec:f", 10.0, 30.0, parent=root)
        clock.now = 40.0
        tracer.end_span(root)
        stages = analyze(tracer).requests[0]["stages"]
        assert stages == {"queueing": 20.0, "fn.exec": 20.0}

    def test_child_outliving_its_parent_still_attributes(self, clock_tracer):
        # The causality-chain shape: rdma.send hands off to engine.rx
        # which outlives it, then fn.exec outlives that — each instant
        # must charge the deepest span active at that instant.
        clock, tracer = clock_tracer
        clock.now = 0.0
        root = tracer.start_span("request:/x")
        clock.now = 0.0
        rdma = tracer.start_span("rdma.send", parent=root)
        clock.now = 5.0
        rx = tracer.start_span("engine.rx", parent=rdma)
        clock.now = 6.0
        tracer.end_span(rdma)
        clock.now = 10.0
        fn = tracer.start_span("fn.exec:f", parent=rx)
        clock.now = 12.0
        tracer.end_span(rx)
        clock.now = 90.0
        tracer.end_span(fn)
        clock.now = 100.0
        tracer.end_span(root)
        stages = analyze(tracer).requests[0]["stages"]
        # 0-5 rdma (depth 1), 5-10 engine.rx (deeper than rdma in
        # 5-6), 10-90 fn.exec (deepest), 90-100 root self = queueing
        assert stages["rdma.send"] == pytest.approx(5.0)
        assert stages["engine.rx"] == pytest.approx(5.0)
        assert stages["fn.exec"] == pytest.approx(80.0)
        assert stages["queueing"] == pytest.approx(10.0)
        assert sum(stages.values()) == pytest.approx(100.0)

    def test_unfinished_children_are_ignored(self, clock_tracer):
        clock, tracer = clock_tracer
        clock.now = 0.0
        root = tracer.start_span("request:/x")
        clock.now = 2.0
        tracer.start_span("fn.exec:f", parent=root)  # never ended
        clock.now = 10.0
        tracer.end_span(root)
        stages = analyze(tracer).requests[0]["stages"]
        assert stages == {"queueing": 10.0}

    def test_unfinished_roots_and_foreign_roots_excluded(self, clock_tracer):
        clock, tracer = clock_tracer
        clock.now = 0.0
        tracer.start_span("request:/open")  # never finished
        span_at(tracer, clock, "gc.sweep", 0.0, 5.0)  # not a request
        span_at(tracer, clock, "request:/done", 0.0, 5.0)
        report = analyze(tracer)
        assert len(report.requests) == 1
        assert report.requests[0]["name"] == "request:/done"

    def test_stage_totals_cover_every_request_exactly(self, clock_tracer):
        clock, tracer = clock_tracer
        for i in range(5):
            t0 = i * 100.0
            clock.now = t0
            root = tracer.start_span("request:/x")
            span_at(tracer, clock, "fn.exec:f", t0 + 1.0, t0 + 7.0,
                    parent=root)
            clock.now = t0 + 10.0
            tracer.end_span(root)
        for req in analyze(tracer).requests:
            assert sum(req["stages"].values()) == pytest.approx(
                req["total_us"])


class TestReport:
    def _report(self, totals):
        return CriticalPathReport([
            {"trace_id": i, "name": "request:/x", "total_us": t,
             "stages": {"fn.exec": t * 0.7, "queueing": t * 0.3}}
            for i, t in enumerate(totals)
        ])

    def test_quantile_request_picks_sorted_index(self):
        report = self._report([30.0, 10.0, 20.0, 40.0])
        assert report.quantile_request(0.0)["total_us"] == 10.0
        assert report.quantile_request(0.5)["total_us"] == 30.0
        assert report.quantile_request(1.0)["total_us"] == 40.0

    def test_empty_report_is_graceful(self):
        report = CriticalPathReport([])
        assert report.quantile_request(0.5) is None
        assert report.stage_shares(0.99) == {}
        assert report.dominant_stage() == ("", 0.0)
        assert report.named_coverage() == 0.0
        assert report.table() == []

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            self._report([1.0]).quantile_request(1.5)

    def test_named_coverage_excludes_other(self):
        report = CriticalPathReport([{
            "trace_id": 1, "name": "request:/x", "total_us": 10.0,
            "stages": {"fn.exec": 6.0, "other:gc": 4.0},
        }])
        assert report.named_coverage(0.99) == pytest.approx(0.6)

    def test_table_lists_stages_in_canonical_order(self):
        rows = self._report([10.0, 20.0]).table()
        assert [r["stage"] for r in rows] == ["queueing", "fn.exec"]
        assert rows[1]["p99_share"] == pytest.approx(0.7)
        assert rows[1]["mean_share"] == pytest.approx(0.7)

    def test_dominant_shift_flags_transitions(self):
        low = self._report([10.0])
        high = CriticalPathReport([{
            "trace_id": 1, "name": "request:/x", "total_us": 100.0,
            "stages": {"queueing": 80.0, "fn.exec": 20.0},
        }])
        rows = dominant_shift({"1x": low, "2x": low, "4x": high})
        assert [r["shifted"] for r in rows] == [False, False, True]
        assert rows[2]["dominant_stage"] == "queueing"


class TestBoutiqueAcceptance:
    @pytest.fixture(scope="class")
    def report(self):
        metrics = run_boutique_point(
            "palladium-dne", "Home Query", clients=4,
            duration_us=40_000.0, with_telemetry=True)
        return analyze(metrics["telemetry"].tracer)

    def test_named_stages_cover_90pct_of_p99(self, report):
        assert len(report.requests) > 50
        assert report.named_coverage(0.99) >= 0.90

    def test_attribution_is_exhaustive(self, report):
        for req in report.requests:
            assert sum(req["stages"].values()) == pytest.approx(
                req["total_us"], rel=1e-9)

    def test_to_dict_is_json_safe_and_complete(self, report):
        import json
        d = json.loads(json.dumps(report.to_dict()))
        assert d["requests"] == len(report.requests)
        assert d["p99_total_us"] >= d["p50_total_us"] > 0
        assert d["table"]
        stages = {row["stage"] for row in d["table"]}
        assert "fn.exec" in stages


# -- streaming attribution against a post-hoc oracle -------------------------
#
# ``_attribute`` and ``_subtree`` are the oracle's own attribution — a
# child map and a depth-first walk per root, then the sweep — kept
# apart from ``critpath`` so the oracle never checks the module against
# itself.

def _attribute(root: Span, members: List[Tuple[Span, int]],
               out: Dict[str, float]) -> None:
    """Attribute [root.start, root.end) to stages by an event sweep.

    ``members`` is the root's subtree as (span, depth) pairs.  Spans
    are causality chains, not nested intervals — a child routinely
    outlives its parent — so each elementary interval between span
    boundaries is charged to the *deepest* span covering it (ties to
    the later-started one).  Intervals covered only by the root charge
    the root's own stage (queueing).
    """
    lo, hi = root.start_us, root.end_us
    if hi <= lo:
        return
    clipped: List[Tuple[float, float, int, Span]] = []
    bounds = {lo, hi}
    for span, depth in members:
        cs, ce = max(span.start_us, lo), min(span.end_us, hi)
        if ce <= cs:
            continue
        clipped.append((cs, ce, depth, span))
        bounds.add(cs)
        bounds.add(ce)
    clipped.sort(key=lambda item: item[0])
    edges = sorted(bounds)
    # Active-set sweep: a max-heap of (depth, start, span_id) with lazy
    # expiry — the top after popping expired entries is the deepest
    # span covering the current elementary interval.
    heap: List[Tuple[float, float, float, float, str]] = []
    nxt = 0
    for t0, t1 in zip(edges, edges[1:]):
        while nxt < len(clipped) and clipped[nxt][0] <= t0:
            cs, ce, depth, span = clipped[nxt]
            nxt += 1
            heapq.heappush(heap,
                           (-depth, -cs, -span.span_id, ce, stage_of(span)))
        while heap and heap[0][3] <= t0:
            heapq.heappop(heap)
        stage = heap[0][4] if heap else stage_of(root)
        out[stage] = out.get(stage, 0.0) + (t1 - t0)


def _subtree(root: Span,
             children_of: Dict[int, List[Span]]) -> List[Tuple[Span, int]]:
    """Finished spans reachable from ``root`` with their tree depth."""
    members: List[Tuple[Span, int]] = []
    stack: List[Tuple[Span, int]] = [(root, 0)]
    while stack:
        span, depth = stack.pop()
        members.append((span, depth))
        for child in children_of.get(span.span_id, ()):
            if child.finished:
                stack.append((child, depth + 1))
    return members


def oracle(spans, root_prefixes=("request:", "invoke:")):
    """Post-hoc attribution over every span started: the whole-run
    ``analyze`` from before attribution streamed, kept verbatim."""
    children_of = {}
    for span in spans:
        if span.parent_id is not None:
            children_of.setdefault(span.parent_id, []).append(span)
    for siblings in children_of.values():
        siblings.sort(key=lambda s: (s.start_us, s.span_id))

    requests = []
    for root in [s for s in spans if s.parent_id is None]:
        if not root.finished:
            continue
        if root_prefixes and not any(root.name.startswith(p)
                                     for p in root_prefixes):
            continue
        stages = {}
        _attribute(root, _subtree(root, children_of), stages)
        requests.append({
            "trace_id": root.trace_id,
            "name": root.name,
            "total_us": root.end_us - root.start_us,
            "stages": stages,
        })
    return CriticalPathReport(requests)


def assert_same_report(streamed, expected):
    assert json.dumps(streamed.requests) == json.dumps(expected.requests)
    assert streamed.to_dict() == expected.to_dict()


_ROOT_NAMES = ["request:/home", "invoke:cart", "migrate:fn"]
_CHILD_NAMES = [("engine.tx", "engine"), ("rdma.send", "rdma"),
                ("engine.rx", "engine"), ("fn.exec:f", "function"),
                ("iolib.send", "iolib"), ("gc.sweep", "custom")]

_ops = st.lists(st.one_of(
    st.tuples(st.just("root"), st.integers(0, len(_ROOT_NAMES) - 1)),
    # parent picked from every span so far: open, finished, or in a
    # trace that already closed (a late span)
    st.tuples(st.just("child"), st.integers(0, 10_000),
              st.integers(0, len(_CHILD_NAMES) - 1)),
    st.tuples(st.just("end"), st.integers(0, 10_000),
              st.sampled_from(["ok", "ok", "ok", "error"])),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("incident")),
), max_size=80)


def _replay(ops, keep_every):
    """Run ``ops`` on a fresh tracer; return (tracer, every span)."""
    clock = FakeClock()
    tracer = SpanTracer(clock)
    started = []
    with mock.patch.object(spans_mod, "KEEP_EVERY", keep_every):
        for op in ops:
            if op[0] == "root":
                started.append(tracer.start_span(_ROOT_NAMES[op[1]]))
            elif op[0] == "child" and started:
                name, category = _CHILD_NAMES[op[2]]
                started.append(tracer.start_span(
                    name, parent=started[op[1] % len(started)],
                    category=category))
            elif op[0] == "end":
                still_open = [s for s in started if not s.finished]
                if still_open:
                    tracer.end_span(still_open[op[1] % len(still_open)],
                                    status=op[2])
            elif op[0] == "tick":
                clock.now += op[1]
            elif op[0] == "incident":
                tracer.incident("node-crash", "worker1")
    return tracer, started


class TestStreamingAttribution:
    @settings(max_examples=200, deadline=None)
    @given(_ops, st.sampled_from([1, 2, 64]))
    # the root ends first; its child still counts up to the root's end
    @example([("root", 0), ("child", 0, 3), ("tick", 1.0), ("end", 0, "ok"),
              ("tick", 1.0), ("end", 0, "ok")], 64)
    # a finished grandchild of a span that never ends stays excluded
    @example([("root", 0), ("child", 0, 0), ("child", 1, 2), ("tick", 1.0),
              ("end", 2, "ok"), ("tick", 1.0), ("end", 0, "ok")], 64)
    # a child that starts exactly at its sibling's end
    @example([("root", 0), ("child", 0, 0), ("tick", 1.0), ("end", 1, "ok"),
              ("child", 0, 1), ("tick", 1.0), ("end", 1, "ok"),
              ("tick", 1.0), ("end", 0, "ok")], 64)
    # late spans of closed traces: trace 1 is kept, trace 2 is not
    @example([("root", 0), ("tick", 1.0), ("end", 0, "ok"),
              ("child", 0, 3), ("tick", 1.0), ("end", 0, "ok"),
              ("root", 0), ("tick", 1.0), ("end", 0, "ok"),
              ("child", 2, 2), ("tick", 1.0), ("end", 0, "ok")], 64)
    def test_streamed_report_equals_post_hoc_oracle(self, ops, keep_every):
        tracer, started = _replay(ops, keep_every)
        assert_same_report(analyze(tracer), oracle(started))
        assert_same_report(analyze(tracer, root_prefixes=()),
                           oracle(started, root_prefixes=()))
        assert tracer.recorded == len(started)
        # a trace is stored whole (late spans included) or not at all
        stored = {s.trace_id for s in tracer.spans}
        for trace_id in stored:
            assert [s for s in tracer.spans if s.trace_id == trace_id] \
                == [s for s in started if s.trace_id == trace_id]
        live = {spans[0].trace_id for spans in tracer.live_traces()}
        assert not stored & live

    def test_cap_bounds_only_retained_spans(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        tracer.max_spans = 9
        for i in range(20):
            clock.now = i * 10.0
            root = tracer.start_span("request:/x")
            span_at(tracer, clock, "fn.exec:f", i * 10.0 + 1.0,
                    i * 10.0 + 4.0, parent=root)
            clock.now = i * 10.0 + 5.0
            # errored: every trace asks to be kept, only four fit whole
            tracer.end_span(root, status="error")
        report = analyze(tracer)
        assert len(report.requests) == 20
        assert len(tracer.spans) == 8 and tracer.dropped == 32
        assert tracer.recorded == 40
        assert tracer.check_integrity() == []

    def test_sampled_out_trace_frees_its_spans_and_late_children(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        first = span_at(tracer, clock, "request:/kept", 0.0, 5.0)
        second = span_at(tracer, clock, "request:/freed", 5.0, 9.0)
        late = tracer.start_span("iolib.send", parent=second)
        tracer.end_span(late)
        assert first.trace_id == 1 and second.trace_id == 2
        assert tracer.spans == [first]
        assert tracer.recorded == 3
        assert [r["name"] for r in analyze(tracer).requests] == [
            "request:/freed", "request:/kept"]


    def test_faulted_and_non_request_traces_are_always_kept(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        span_at(tracer, clock, "request:/sampled", 0.0, 1.0)
        faulted = tracer.start_span("request:/faulted")
        tracer.incident("node-crash", "worker1")
        clock.now = 2.0
        tracer.end_span(faulted)
        span_at(tracer, clock, "request:/quiet", 2.0, 3.0)
        span_at(tracer, clock, "migrate:fn", 3.0, 4.0)
        assert [s.name for s in tracer.spans] == [
            "request:/sampled", "request:/faulted", "migrate:fn"]


class TestStreamingOnARealRun:
    def test_keep_all_run_matches_oracle_over_every_span(self, monkeypatch):
        monkeypatch.setattr(spans_mod, "KEEP_EVERY", 1)
        metrics = run_boutique_point(
            "palladium-dne", "Home Query", clients=4,
            duration_us=40_000.0, with_telemetry=True)
        tracer = metrics["telemetry"].tracer
        every = tracer.spans + [s for spans in tracer.live_traces()
                                for s in spans]
        assert len(every) == tracer.recorded
        assert_same_report(analyze(tracer), oracle(every))
        assert len(analyze(tracer).requests) > 50
