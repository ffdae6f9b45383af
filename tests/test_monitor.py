"""The SLO monitor: recording rules, burn-rate alerting, arming, and
the monitor-flavored no-perturb guarantee.

Unit tests drive the monitor off a fake clock (it only ever reads
``env.now``), so rule arithmetic is tested without a simulation; the
determinism tests then run real experiment points monitor-on vs
monitor-off and require byte-identical results outside the
``telemetry`` key.
"""

import pytest

from repro.sim import Environment
from repro.telemetry import (
    BurnWindow,
    MetricsRegistry,
    Monitor,
    QuantileRule,
    RateRule,
    RatioRule,
    Selector,
    Slo,
    SpanTracer,
    Telemetry,
)


class FakeClock:
    """The monitor's whole environment contract is ``.now``."""

    def __init__(self):
        self.now = 0.0


def make_monitor(**kwargs):
    env = FakeClock()
    reg = MetricsRegistry()
    mon = Monitor(env, reg, **kwargs)
    reg.observer = mon.catch_up
    return env, reg, mon


def tick(env, reg, to_us):
    """Advance the clock and fire one observation (the piggyback)."""
    env.now = to_us
    reg.counter("heartbeat_total").labels().inc(0)


class TestSelector:
    def test_key_is_promql_ish(self):
        assert Selector("m").key == "m"
        assert (Selector("m", {"tenant": "a", "node": "w0"}).key
                == 'm{node="w0",tenant="a"}')

    def test_where_filters_children(self):
        reg = MetricsRegistry()
        c = reg.counter("m_total", labels=("tenant", "node"))
        c.labels("a", "w0").inc(3)
        c.labels("a", "w1").inc(5)
        c.labels("b", "w0").inc(7)
        assert Selector("m_total", {"tenant": "a"}).scalar(reg) == 8.0
        assert Selector("m_total").scalar(reg) == 15.0

    def test_unknown_label_name_matches_nothing(self):
        reg = MetricsRegistry()
        reg.counter("m_total", labels=("tenant",)).labels("a").inc()
        assert Selector("m_total", {"zone": "x"}).scalar(reg) == 0.0

    def test_missing_family_reads_zero(self):
        assert Selector("nope_total").scalar(MetricsRegistry()) == 0.0


class TestRecordingRules:
    def test_rate_rule_is_per_second_delta(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_rule(RateRule("rps", "req_total", window_us=10_000.0))
        for t in range(0, 21):
            env.now = t * 1_000.0
            reg.counter("req_total").labels().inc(5)  # 5 events per ms
        # 50 events over the 10 ms window -> 5000/s
        assert mon.series["rps"][-1][1] == pytest.approx(5_000.0)

    def test_ratio_rule_default_on_no_traffic(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_rule(RatioRule("err", "errors_total", "req_total",
                               window_us=5_000.0, default=0.25))
        tick(env, reg, 1_000.0)
        tick(env, reg, 2_000.0)
        assert mon.series["err"][-1][1] == 0.25

    def test_ratio_rule_accepts_bare_string_metric(self):
        # Regression: a bare string must become ONE selector, not one
        # selector per character.
        rule = RatioRule("r", "shed_total", "req_total", 5_000.0)
        assert [s.key for s in rule.num] == ["shed_total"]
        assert [s.key for s in rule.den] == ["req_total"]

    def test_quantile_rule_tracks_the_window_not_the_lifetime(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_rule(QuantileRule("p99", "lat_us", 0.99,
                                  window_us=5_000.0))
        h = reg.histogram("lat_us", low=1.0, high=100_000.0).labels()
        for t in range(1, 8):
            env.now = t * 1_000.0
            for _ in range(10):
                h.observe(10.0)
            reg.counter("heartbeat_total").labels().inc(0)
        early = mon.series["p99"][-1][1]
        # the distribution shifts: recent observations are 100x slower
        for t in range(8, 15):
            env.now = t * 1_000.0
            for _ in range(10):
                h.observe(1_000.0)
            reg.counter("heartbeat_total").labels().inc(0)
        late = mon.series["p99"][-1][1]
        assert early <= 20.0
        assert late >= 500.0

    def test_duplicate_rule_name_rejected(self):
        _, _, mon = make_monitor()
        mon.add_rule(RateRule("a", "m_total", 1_000.0))
        with pytest.raises(ValueError):
            mon.add_rule(RateRule("a", "other_total", 1_000.0))

    def test_quantile_rule_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QuantileRule("bad", "lat_us", 1.5, 1_000.0)


def availability_slo(objective=0.9, **kwargs):
    kwargs.setdefault("min_events", 5)
    kwargs.setdefault("windows", (
        BurnWindow("fast", 5_000.0, 2_000.0, threshold=2.0,
                   severity="page"),))
    return Slo("slo-avail", objective=objective,
               good=[Selector("good_total")],
               total=[Selector("req_total")], **kwargs)


def drive(env, reg, mon, t_us, good, bad):
    env.now = t_us
    reg.counter("req_total").labels().inc(good + bad)
    reg.counter("good_total").labels().inc(good)


class TestSloAlerting:
    def test_fires_on_burn_and_resolves_on_recovery(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_slo(availability_slo())
        for t in range(1, 6):
            drive(env, reg, mon, t * 1_000.0, good=10, bad=0)
        assert mon.timeline == []
        for t in range(6, 12):  # total outage: burn = 1/0.1 = 10 > 2
            drive(env, reg, mon, t * 1_000.0, good=0, bad=10)
        assert mon.first_firing_us() is not None
        firing = [tr for tr in mon.timeline if tr["state"] == "firing"]
        assert firing[0]["severity"] == "page"
        assert firing[0]["burn"] > 2.0
        for t in range(12, 25):  # full recovery
            drive(env, reg, mon, t * 1_000.0, good=10, bad=0)
        states = [tr["state"] for tr in mon.timeline]
        assert states == ["firing", "resolved"]
        spans = mon.alert_spans()
        assert len(spans) == 1
        assert spans[0]["resolved_ts"] > spans[0]["fired_ts"]

    def test_min_events_gates_the_long_window(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_slo(availability_slo(min_events=50))
        for t in range(1, 12):
            drive(env, reg, mon, t * 1_000.0, good=0, bad=2)
        # 100% failure but only ~10 events per long window: muted
        assert mon.timeline == []

    def test_both_windows_must_burn(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_slo(availability_slo())
        # long window accumulates failures, but the last 2 ms (the
        # short window) are clean — no alert, the problem already ended
        for t in range(1, 6):
            drive(env, reg, mon, t * 1_000.0, good=0, bad=10)
        for t in range(6, 9):
            drive(env, reg, mon, t * 1_000.0, good=10, bad=0)
        firing_at = mon.first_firing_us()
        assert firing_at is None or firing_at <= 5_000.0

    def test_arm_at_us_suppresses_early_alerts(self):
        env, reg, mon = make_monitor(step_us=1_000.0, arm_at_us=20_000.0)
        mon.add_slo(availability_slo())
        for t in range(1, 15):  # constant outage, but unarmed
            drive(env, reg, mon, t * 1_000.0, good=0, bad=10)
        assert mon.timeline == []
        for t in range(15, 30):  # still burning once armed
            drive(env, reg, mon, t * 1_000.0, good=0, bad=10)
        assert mon.first_firing_us() >= 20_000.0

    def test_latency_sli_counts_threshold_bucket_as_good(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_slo(Slo("slo-lat", objective=0.9,
                        hist_metric="lat_us", threshold_us=1_000.0,
                        min_events=5,
                        windows=(BurnWindow("fast", 5_000.0, 2_000.0,
                                            threshold=2.0),)))
        h = reg.histogram("lat_us", low=1.0, high=1_000_000.0).labels()
        for t in range(1, 10):
            env.now = t * 1_000.0
            for _ in range(10):
                h.observe(100.0)  # well under the threshold
            reg.counter("heartbeat_total").labels().inc(0)
        assert mon.timeline == []
        for t in range(10, 20):
            env.now = t * 1_000.0
            for _ in range(10):
                h.observe(50_000.0)  # way over
            reg.counter("heartbeat_total").labels().inc(0)
        assert mon.first_firing_us() is not None

    def test_duplicate_slo_name_rejected(self):
        _, _, mon = make_monitor()
        mon.add_slo(availability_slo())
        with pytest.raises(ValueError):
            mon.add_slo(availability_slo())

    def test_slo_requires_exactly_one_sli_shape(self):
        with pytest.raises(ValueError):
            Slo("x", objective=0.9)  # neither shape
        with pytest.raises(ValueError):
            Slo("x", objective=0.9, hist_metric="lat_us",
                threshold_us=1.0, good=[Selector("g")],
                total=[Selector("t")])  # both shapes
        with pytest.raises(ValueError):
            Slo("x", objective=1.5, hist_metric="lat_us",
                threshold_us=1.0)  # bad objective

    def test_alert_transitions_mark_the_tracer(self):
        env = FakeClock()
        reg = MetricsRegistry()
        tracer = SpanTracer(env)
        mon = Monitor(env, reg, tracer=tracer, step_us=1_000.0)
        reg.observer = mon.catch_up
        mon.add_slo(availability_slo())
        for t in range(1, 12):
            drive(env, reg, mon, t * 1_000.0, good=0, bad=10)
        assert mon.first_firing_us() is not None
        marks = [m for m in tracer.marks if m["category"] == "alert"]
        assert marks and marks[0]["name"] == "alert:slo-avail"
        assert marks[0]["state"] == "firing"


class TestMonitorMechanics:
    def test_quiet_stretch_catchup_is_clamped(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.catchup_steps = 8
        tick(env, reg, 1_000.0)
        tick(env, reg, 500_000.0)  # a 499-step silence
        # only the clamp's worth of boundaries were evaluated
        assert mon.evaluations <= 2 + 8

    def test_series_capped_at_max_points(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.max_points = 5
        mon.add_rule(RateRule("rps", "req_total", 2_000.0))
        for t in range(1, 20):
            tick(env, reg, t * 1_000.0)
        assert len(mon.series["rps"]) == 5
        assert mon.dropped_points > 0

    def test_a_site_past_a_boundary_sees_its_own_increment_after_it(self):
        # Each site looks its family up (firing the observer) before it
        # increments its child, so the boundary a site crosses is
        # evaluated on the count from before that site's increment —
        # also when the child comes back from the family's cache.
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_rule(RateRule("rps", "req_total", 1_000.0,
                              where={"tenant": "a"}))
        for t_us, amount in ((500.0, 1), (1_500.0, 10), (2_500.0, 100),
                             (3_500.0, 1_000)):
            env.now = t_us
            reg.counter("req_total", labels=("tenant",)).labels("a").inc(
                amount)
        # samples: 1 at 1 ms, 11 at 2 ms, 111 at 3 ms (not 11/111/1111)
        assert mon.series["rps"] == [
            (1_000.0, 0.0), (2_000.0, 10_000.0), (3_000.0, 100_000.0)]

    def test_install_publishes_on_telemetry(self):
        env = Environment()
        tel = Telemetry.install(env)
        mon = tel.attach_monitor(step_us=2_000.0)
        assert tel.monitor is mon
        assert tel.metrics.observer == mon.catch_up
        assert tel.attach_monitor() is mon  # idempotent

    def test_catch_up_evaluates_boundaries_after_the_last_site(self):
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_rule(RateRule("rps", "req_total", 2_000.0))
        tick(env, reg, 1_500.0)
        assert mon.evaluations == 1
        env.now = 3_200.0  # the run ends with no pushed site after 1.5 ms
        mon.catch_up()
        assert mon.evaluations == 3
        assert [t for t, _ in mon.series["rps"]] == [1_000.0, 2_000.0, 3_000.0]

    def test_snapshot_is_json_safe(self):
        import json
        env, reg, mon = make_monitor(step_us=1_000.0)
        mon.add_rule(RateRule("rps", "req_total", 2_000.0))
        mon.add_slo(availability_slo())
        for t in range(1, 10):
            drive(env, reg, mon, t * 1_000.0, good=0, bad=10)
        snap = json.loads(json.dumps(mon.snapshot()))
        assert snap["rules"]["rps"]
        assert snap["alerts"] == mon.timeline
        assert snap["slos"][0]["name"] == "slo-avail"


class TestMonitorDeterminism:
    """The PR's acceptance gate: the monitor observes, never perturbs."""

    def test_overload_point_identical_with_monitor(self):
        from repro.experiments import run_overload_point

        kwargs = dict(multiplier=0.8, duration_us=40_000.0)
        plain = run_overload_point("palladium-dne", **kwargs)
        monitored = run_overload_point("palladium-dne",
                                       with_monitor=True, **kwargs)
        telemetry = monitored.pop("telemetry")
        assert telemetry.monitor is not None
        assert telemetry.monitor.evaluations > 0
        assert plain == monitored

    def test_fault_point_identical_with_monitor(self):
        from repro.experiments import run_fault_point

        kwargs = dict(clients=4, down_us=40_000.0, post_us=30_000.0)
        plain = run_fault_point("palladium-dne", **kwargs)
        monitored = run_fault_point("palladium-dne",
                                    with_monitor=True, **kwargs)
        monitored.pop("telemetry")
        assert plain == monitored

    def test_alert_marks_export_into_the_chrome_trace(self):
        from repro.telemetry import validate_chrome_trace

        env = FakeClock()  # Environment.now is read-only
        tel = Telemetry(env)
        mon = tel.attach_monitor(step_us=1_000.0)
        mon.add_slo(availability_slo())
        root = tel.tracer.start_span("request:/x", node="w0", actor="gw")
        for t in range(1, 12):
            drive(env, tel.metrics, mon, t * 1_000.0, good=0, bad=10)
        tel.tracer.end_span(root)
        trace = tel.tracer.to_chrome()
        assert validate_chrome_trace(trace) == []
        alert_events = [e for e in trace["traceEvents"]
                        if e["ph"] == "i" and e["name"].startswith("alert:")]
        assert alert_events
