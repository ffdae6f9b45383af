"""Telemetry subsystem: spans, metrics, profiler, and the no-perturb
guarantee.

Covers the observability acceptance criteria:

* a multi-hop boutique request produces a well-formed span tree that
  exports as valid Chrome trace-event JSON;
* histogram bucket boundaries follow Prometheus ``le`` (inclusive
  upper-bound) semantics;
* the exporters are deterministic (golden files);
* enabling telemetry changes **nothing** about the simulation — the
  experiment output is identical with and without it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import run_boutique_point
from repro.sim import Environment
from repro.telemetry import (
    CYCLE_CATEGORIES,
    CycleLedger,
    Histogram,
    MetricsRegistry,
    Telemetry,
    validate_chrome_trace,
)

GOLDEN = Path(__file__).parent / "golden"


# -- an instrumented multi-hop run, shared across the span tests ------------
@pytest.fixture(scope="module")
def boutique_telemetry():
    metrics = run_boutique_point("palladium-dne", "Home Query", clients=4,
                                 duration_us=40_000.0, with_telemetry=True)
    return metrics["telemetry"]


class TestSpanTree:
    def test_integrity_on_multi_hop_run(self, boutique_telemetry):
        tracer = boutique_telemetry.tracer
        assert tracer.dropped == 0
        assert len(tracer.spans) > 100
        assert tracer.check_integrity() == []

    def test_request_trace_spans_the_stack(self, boutique_telemetry):
        tracer = boutique_telemetry.tracer
        roots = [s for s in tracer.spans
                 if s.parent_id is None and s.name.startswith("request:")]
        assert roots, "ingress should open request root spans"
        # Find a request trace that crossed nodes (Home Query fans out
        # from worker0's frontend to the worker1 leaves).
        names_by_trace = {root.trace_id: set() for root in roots}
        for s in tracer.spans:
            if s.trace_id in names_by_trace:
                names_by_trace[s.trace_id].add(s.name.split(":")[0])
        best = max(names_by_trace.values(), key=len)
        assert "engine.tx" in best
        assert "engine.rx" in best
        assert "rdma.send" in best or "rdma.write" in best
        assert "fn.exec" in best
        assert "fn.invoke" in best
        assert "iolib.send" in best

    def test_parent_chain_reaches_the_ingress_root(self, boutique_telemetry):
        tracer = boutique_telemetry.tracer
        execs = [s for s in tracer.spans if s.name.startswith("fn.exec")]
        assert execs
        deepest = 0
        for span in execs:
            by_id = {s.span_id: s for s in tracer.spans
                     if s.trace_id == span.trace_id}
            hops = 0
            node = span
            while node.parent_id is not None:
                node = by_id[node.parent_id]
                hops += 1
            if node.name.startswith("request:"):
                deepest = max(deepest, hops)
        # ingress -> engine.tx -> rdma -> engine.rx -> fn.exec is 4 hops
        assert deepest >= 4

    def test_chrome_export_is_schema_valid(self, boutique_telemetry):
        trace = boutique_telemetry.tracer.to_chrome()
        assert validate_chrome_trace(trace) == []
        # round-trips through JSON
        reloaded = json.loads(boutique_telemetry.tracer.to_chrome_json())
        assert validate_chrome_trace(reloaded) == []
        phases = {e["ph"] for e in reloaded["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_cycle_ledger_attributes_dne_work(self, boutique_telemetry):
        ledger = boutique_telemetry.cycles
        fractions = ledger.fractions()
        assert set(fractions) == set(CYCLE_CATEGORIES)
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        # the DNE is zero-copy; its overhead is descriptor-dominated
        assert ledger.us("copy") == 0.0
        assert fractions["descriptor"] > fractions["protocol"]


@pytest.fixture
def pinned_ids(monkeypatch):
    """Reset the remaining process-global id counters before a run.

    Connection ids (and the ingress request ids) are per-environment,
    so RSS worker selection no longer depends on prior runs in the
    process; http/function request ids are still global, so pin them
    to isolate the variable under test: with ids equal, only telemetry
    could make two runs differ.
    """
    import itertools

    from repro.net import http
    from repro.platform import function as function_mod

    def reset():
        monkeypatch.setattr(http, "_request_ids", itertools.count(1))
        monkeypatch.setattr(function_mod, "_rids", itertools.count(1))

    return reset


class TestDeterminism:
    def test_telemetry_changes_no_experiment_output(self, pinned_ids):
        kwargs = dict(chain="Home Query", clients=4, duration_us=40_000.0)
        pinned_ids()
        plain = run_boutique_point("palladium-dne", **kwargs)
        pinned_ids()
        instrumented = run_boutique_point("palladium-dne",
                                          with_telemetry=True, **kwargs)
        instrumented.pop("telemetry")
        assert plain == instrumented

    def test_exporters_are_deterministic(self, pinned_ids):
        kwargs = dict(chain="Home Query", clients=2, duration_us=25_000.0)
        pinned_ids()
        a = run_boutique_point("palladium-dne", with_telemetry=True, **kwargs)
        pinned_ids()
        b = run_boutique_point("palladium-dne", with_telemetry=True, **kwargs)

        def digest(text):
            # compare digests: a failure diff of the multi-MB exports
            # would take pytest minutes to render
            import hashlib
            return hashlib.sha256(text.encode()).hexdigest()

        assert digest(a["telemetry"].metrics.prometheus_text()) == \
            digest(b["telemetry"].metrics.prometheus_text())
        assert digest(a["telemetry"].tracer.to_chrome_json()) == \
            digest(b["telemetry"].tracer.to_chrome_json())


class TestHistogram:
    def test_bucket_bounds_are_log_linear(self):
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        assert h.bounds == (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

    def test_exact_bound_lands_in_its_le_bucket(self):
        # Prometheus le semantics: bucket counts value <= bound.
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        for value, idx in [(0.5, 0), (1.0, 0), (1.2, 1), (1.5, 1),
                           (2.0, 2), (3.0, 3), (16.0, 8)]:
            before = list(h.counts)
            h.observe(value)
            assert [c - b for c, b in zip(h.counts, before)].index(1) \
                == idx, value
        # past the top bound: the +Inf bucket
        h.observe(16.1)
        assert h.counts[-1] == 1

    def test_observe_tracks_count_sum_min_max(self):
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        for v in (0.5, 2.0, 100.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 102.5
        assert h.min == 0.5 and h.max == 100.0
        snap = h.snapshot()
        assert snap["overflow"] == 1
        assert [b for b, _ in snap["buckets"]] == [1.0, 2.0]

    def test_quantile_is_bounded_by_observations(self):
        h = Histogram(low=1.0, high=1024.0, sub_buckets=4)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        assert h.quantile(1.0) == 100.0
        # log-linear relative error stays bounded (25% per octave here)
        assert h.quantile(0.5) == pytest.approx(50.0, rel=0.25)

    def test_registry_rejects_kind_mismatch(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total")


class TestQuantileEdges:
    def test_empty_histogram_reports_zero(self):
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_q0_is_min_and_q1_is_max(self):
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        for v in (0.3, 2.0, 7.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.3
        assert h.quantile(1.0) == 7.0

    def test_single_sample_answers_every_quantile(self):
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        h.observe(3.7)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.7, rel=0.25)

    def test_overflow_bucket_reports_observed_max(self):
        # All mass past the top bound: the +Inf bucket must answer with
        # the observed max, not a bucket bound.
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        for v in (100.0, 250.0, 999.0):
            h.observe(v)
        assert h.quantile(0.5) == 999.0
        assert h.quantile(1.0) == 999.0

    def test_answers_clamp_into_observed_range(self):
        # A sparse layout can never report outside [min, max].
        h = Histogram(low=1.0, high=1024.0, sub_buckets=1)
        for v in (5.0, 5.5, 6.0):
            h.observe(v)
        for q in (0.0, 0.5, 1.0):
            assert 5.0 <= h.quantile(q) <= 6.0

    def test_out_of_range_quantile_raises(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(-0.01)
        with pytest.raises(ValueError):
            h.quantile(1.01)


class TestPrometheusEscaping:
    def test_label_values_escape_specials(self):
        reg = MetricsRegistry()
        c = reg.counter("odd_total", "Odd labels.", labels=("path",))
        c.labels('say "hi"\\now\nplease').inc()
        text = reg.prometheus_text()
        assert r'path="say \"hi\"\\now\nplease"' in text
        assert "\n\n" not in text  # no raw newline leaked into a line

    def test_help_escapes_backslash_and_newline_keeps_quotes(self):
        reg = MetricsRegistry()
        reg.counter("h_total", 'back\\slash and\nnewline "quoted"')
        text = reg.prometheus_text()
        assert r'# HELP h_total back\\slash and\nnewline "quoted"' in text

    def test_escaping_round_trips_each_line_parseable(self):
        reg = MetricsRegistry()
        reg.counter("t_total", "Tricky.", labels=("k",)).labels('a\\b"c').inc(2)
        for line in reg.prometheus_text().splitlines():
            assert line == line.strip()
            if not line.startswith("#"):
                # value separates from the series by a single space
                series, value = line.rsplit(" ", 1)
                assert float(value) == 2.0
                assert series.endswith("}")


class TestExemplars:
    def test_reservoir_keeps_value_and_trace_id(self):
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        h.observe(2.0, trace_id=7)
        h.observe(100.0, trace_id=9)
        rows = h.exemplars()
        assert (2.0, 2.0, 7) in rows
        assert (float("inf"), 100.0, 9) in rows

    def test_rotation_is_deterministic(self):
        from repro.telemetry.metrics import EXEMPLAR_RESERVOIR

        def fill():
            h = Histogram(low=1.0, high=16.0, sub_buckets=2)
            for i in range(10):
                h.observe(2.0, trace_id=100 + i)
            return h.exemplars()

        rows = fill()
        assert rows == fill()  # identical runs, identical exemplars
        assert len(rows) == EXEMPLAR_RESERVOIR

    def test_no_trace_id_no_exemplar(self):
        h = Histogram()
        h.observe(5.0)
        assert h.exemplars() == []
        assert "exemplars" not in h.snapshot()

    def test_snapshot_serializes_inf_bound(self):
        h = Histogram(low=1.0, high=16.0, sub_buckets=2)
        h.observe(99.0, trace_id=3)
        snap = h.snapshot()
        assert snap["exemplars"] == [["+Inf", 99.0, 3]]
        json.dumps(snap)  # JSON-safe


class TestCardinalityGuard:
    def test_overflow_tuples_share_a_detached_child(self):
        reg = MetricsRegistry()
        reg.max_series_per_family = 2
        c = reg.counter("req_total", labels=("tenant",))
        c.labels("a").inc()
        c.labels("b").inc()
        c.labels("c").inc()   # over the cap
        c.labels("d").inc(2)  # shares the same overflow sink
        exported = {key for key, _ in reg.get("req_total").children()}
        assert exported == {("a",), ("b",)}
        assert 'tenant="c"' not in reg.prometheus_text()

    def test_drops_counted_in_self_metric(self):
        reg = MetricsRegistry()
        reg.max_series_per_family = 1
        c = reg.counter("req_total", labels=("tenant",))
        c.labels("a").inc()
        c.labels("b").inc()
        c.labels("b").inc()
        dropped = reg.get(MetricsRegistry.DROPPED_SERIES)
        assert dropped is not None
        assert dropped.labels("req_total").value == 2.0

    def test_capped_family_keeps_existing_series_working(self):
        reg = MetricsRegistry()
        reg.max_series_per_family = 1
        c = reg.counter("req_total", labels=("tenant",))
        c.labels("a").inc()
        c.labels("b").inc()  # dropped
        c.labels("a").inc()  # still the real child
        assert c.labels("a").value == 2.0


class TestLabelKeys:
    """A child is keyed by ``str()`` of each label value, however
    ``labels`` finds it again."""

    def test_equal_values_that_print_differently_stay_apart(self):
        for order in ([True, 1, "1", 1.0], ["1", 1.0, 1, True]):
            reg = MetricsRegistry()
            family = reg.counter("hits_total", labels=("v",))
            for rounds in (1, 2, 3):
                for value in order:
                    family.labels(value).inc(rounds)
            assert {key: child.value for key, child in family.children()} \
                == {("1",): 12.0, ("1.0",): 6.0, ("True",): 6.0}

    def test_a_str_subclass_keeps_its_own_str(self):
        class Shout(str):
            def __str__(self):
                return self.upper()

        reg = MetricsRegistry()
        family = reg.counter("hits_total", labels=("node", "ok"))
        for _ in range(2):
            family.labels("w0", False).inc()
            family.labels(Shout("w0"), False).inc()
        assert {key: child.value for key, child in family.children()} == {
            ("W0", "False"): 2.0, ("w0", "False"): 2.0}

    def test_a_repeated_over_cap_tuple_is_counted_every_time(self):
        reg = MetricsRegistry()
        reg.max_series_per_family = 1
        family = reg.counter("req_total", labels=("tenant",))
        family.labels("a").inc()
        for _ in range(5):
            family.labels("b").inc()
        assert reg.get(MetricsRegistry.DROPPED_SERIES).labels(
            "req_total").value == 5.0
        assert [key for key, _ in family.children()] == [("a",)]
        assert family.labels("a").value == 1.0

    def test_a_wrong_label_count_raises_on_every_call(self):
        reg = MetricsRegistry()
        family = reg.counter("req_total", labels=("tenant", "node"))
        family.labels("a", "w0").inc()
        for _ in range(2):
            with pytest.raises(ValueError):
                family.labels("a")


def _golden_registry() -> MetricsRegistry:
    """A small hand-built registry with stable, exporter-covering state."""
    reg = MetricsRegistry()
    c = reg.counter("requests_total", "Requests seen.",
                    labels=("tenant", "node"))
    c.labels("acme", "worker0").inc()
    c.labels("acme", "worker0").inc()
    c.labels("beta", "worker1").inc(3)
    reg.gauge("queue_depth", "Messages queued.",
              labels=("engine",)).labels("dne:worker0").set(7)
    h = reg.histogram("latency_us", "Request latency.", labels=("tenant",),
                      low=1.0, high=16.0, sub_buckets=2)
    for value in (0.5, 1.0, 1.5, 2.0, 5.0, 100.0):
        h.labels("acme").observe(value)
    return reg


class TestExporterGoldens:
    def test_prometheus_text_matches_golden(self):
        text = _golden_registry().prometheus_text()
        assert text == (GOLDEN / "metrics.prom").read_text()

    def test_json_snapshot_matches_golden(self):
        snap = json.dumps(_golden_registry().snapshot(), indent=2,
                          sort_keys=True) + "\n"
        assert snap == (GOLDEN / "metrics.json").read_text()


class TestTraceSchema:
    def test_rejects_malformed_events(self):
        assert validate_chrome_trace([]) == ["top level must be an object"]
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        bad = {"traceEvents": [
            {"name": "", "ph": "X", "ts": 0, "pid": 1, "tid": 1, "dur": 1},
            {"name": "n", "ph": "Z", "ts": 0, "pid": 1, "tid": 1},
            {"name": "n", "ph": "X", "ts": -1, "pid": 1, "tid": 1},
            {"name": "n", "ph": "i", "ts": 0, "pid": 1, "tid": 1, "s": "q"},
            {"name": "n", "ph": "M", "ts": 0, "pid": 1, "tid": 0, "args": {}},
        ]}
        errors = validate_chrome_trace(bad)
        assert len(errors) == 6  # two violations on the ts<0 event


class TestIncidents:
    def test_incident_marks_open_roots_and_exports_globally(self):
        env = Environment()
        tel = Telemetry.install(env)
        root = tel.tracer.start_span("request:/home", node="ingress",
                                     actor="gw")
        tel.tracer.incident("node-crash", "worker1", detail=3)
        tel.tracer.end_span(root, status="error")
        assert [e["name"] for e in root.events] == ["fault:node-crash"]
        trace = tel.tracer.to_chrome()
        assert validate_chrome_trace(trace) == []
        globals_ = [e for e in trace["traceEvents"]
                    if e["ph"] == "i" and e.get("s") == "g"]
        assert len(globals_) == 1
        assert globals_[0]["name"] == "fault:node-crash"


class TestCycleLedger:
    def test_charge_and_fractions(self):
        ledger = CycleLedger()
        ledger.host_ghz = 2.0
        ledger.charge("app", 60.0)
        ledger.charge("copy", 30.0)
        ledger.charge("copy", 10.0)
        ledger.charge("protocol", 0.0)  # no-op
        assert ledger.total_us() == 100.0
        assert ledger.fractions()["copy"] == pytest.approx(0.4)
        assert ledger.overhead_fraction() == pytest.approx(0.4)
        assert ledger.cycles("app") == pytest.approx(60.0 * 2.0 * 1e3)
        with pytest.raises(ValueError):
            ledger.charge("disk", 1.0)
        ledger.reset()
        assert ledger.total_us() == 0.0


# -- end to end: the Chrome trace export and the span memory budget --------
def test_chrome_trace_export_passes_schema_and_integrity(tmp_path):
    from repro.experiments import run_trace_smoke

    path = tmp_path / "trace.json"
    smoke = run_trace_smoke(str(path), clients=4, duration_us=40_000.0)
    assert smoke["spans"] > 0, "instrumented run produced no spans"
    assert smoke["schema_errors"] == [], smoke["schema_errors"][:5]
    assert smoke["integrity_violations"] == [], \
        smoke["integrity_violations"][:5]
    assert validate_chrome_trace(json.loads(path.read_text())) == []


def test_streamed_spans_stay_within_their_memory_budget():
    """The bench point runs in a fresh interpreter, so its peak RSS is
    the point's own: under 48 MB, keeping under 1/16 of the spans.

    The peak is the child's ``VmHWM``: on Linux ``ru_maxrss`` carries
    over the spawning process's peak across ``exec``, and here that
    process is the whole test session.
    """
    script = textwrap.dedent("""
        import json
        from repro.experiments import run_boutique_point
        point = run_boutique_point("palladium-dne", "Home Query", 20,
                                   duration_us=80_000, with_telemetry=True)
        tracer = point["telemetry"].tracer
        with open("/proc/self/status") as status:
            hwm_kb = next(int(line.split()[1]) for line in status
                          if line.startswith("VmHWM:"))
        print(json.dumps([hwm_kb / 1024, len(tracer.spans), tracer.recorded]))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    rss_mb, kept, recorded = json.loads(out.stdout)
    assert rss_mb < 48, f"peak RSS {rss_mb:.1f} MB >= 48 MB"
    assert 0 < kept < recorded // 16


def test_telemetry_off_runs_no_telemetry_code():
    """With telemetry off every instrumentation site is one attribute
    read: no function under ``repro/telemetry/`` is ever called."""
    import repro.telemetry

    package = os.path.dirname(repro.telemetry.__file__)
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            called.add(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        point = run_boutique_point("palladium-dne", "Home Query", clients=4,
                                   duration_us=5_000.0, with_telemetry=False)
    finally:
        sys.setprofile(None)
    assert point["rps"] > 0
    assert called == set()
