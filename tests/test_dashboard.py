"""The stdlib dashboard renderer: HTML structure, terminal summary,
and the structural self-check the CI smoke job relies on.

All tests run on a hand-built bundle — no simulation, so they're
instant; the end-to-end render from live monitored runs is covered by
the CI monitor-smoke job, which runs ``dashboard.py --check``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "dashboard", Path(__file__).resolve().parents[1] / "tools"
    / "dashboard.py")
dashboard = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("dashboard", dashboard)
_SPEC.loader.exec_module(dashboard)


@pytest.fixture
def bundle():
    series = [[float(t), float(t % 7)] for t in range(0, 50_000, 1_000)]
    snapshot = {
        "step_us": 1_000.0,
        "evaluations": 50,
        "rules": {rule: list(series) for rule in dashboard.SPARK_RULES},
        "alerts": [
            {"alert": "slo-latency-gold", "state": "firing",
             "ts": 20_000.0, "window": "fast", "severity": "page",
             "burn": 9.1, "tenant": "gold"},
            {"alert": "slo-latency-gold", "state": "resolved",
             "ts": 30_000.0, "window": "fast", "severity": "info",
             "burn": 0.4, "tenant": "gold"},
        ],
        "alert_spans": [
            {"alert": "slo-latency-gold", "fired_ts": 20_000.0,
             "resolved_ts": 30_000.0, "window": "fast",
             "severity": "page", "burn": 9.1},
            {"alert": "slo-availability-gold", "fired_ts": 40_000.0,
             "resolved_ts": None, "window": "slow",
             "severity": "ticket", "burn": 3.2},
        ],
        "slos": [
            {"name": "slo-latency-gold", "objective": 0.95,
             "firing": False, "tenant": "gold"},
            {"name": "slo-availability-gold", "objective": 0.95,
             "firing": True, "tenant": "gold"},
        ],
    }
    run = {
        "config": "spright", "multiplier": 2.0,
        "offered_rps": 17_000.0, "goodput_rps": 0.0, "rejected": 0,
        "timeline": snapshot["alerts"],
        "alert_spans": snapshot["alert_spans"],
        "first_firing_us": 20_000.0,
        "snapshot": snapshot,
    }
    critpath = {
        "points": [{
            "label": "20 clients", "requests": 500,
            "p50_total_us": 840.0, "p99_total_us": 900.0,
            "dominant_stage_p99": "fn.exec", "dominant_share_p99": 0.61,
            "named_coverage_p99": 1.0, "rps": 4_000.0,
            "table": [
                {"stage": "queueing", "p50_us": 20.0, "p50_share": 0.02,
                 "p99_us": 30.0, "p99_share": 0.03, "mean_share": 0.03},
                {"stage": "fn.exec", "p50_us": 520.0, "p50_share": 0.62,
                 "p99_us": 560.0, "p99_share": 0.61, "mean_share": 0.62},
            ],
        }],
        "shift": [
            {"point": "20 clients", "dominant_stage": "fn.exec",
             "share": 0.61, "p99_total_us": 900.0, "shifted": False},
        ],
    }
    return {"title": "Test <dashboard> & co",
            "overload": [run], "critpath": critpath}


class TestRenderHtml:
    def test_structural_check_passes(self, bundle):
        page = dashboard.render_html(bundle)
        assert dashboard.check_html(page, bundle) == []

    def test_title_and_config_are_escaped(self, bundle):
        page = dashboard.render_html(bundle)
        assert "Test &lt;dashboard&gt; &amp; co" in page
        assert "<dashboard>" not in page

    def test_alerts_render_with_status_badges(self, bundle):
        page = dashboard.render_html(bundle)
        assert "slo-latency-gold" in page
        assert 'class="badge critical"' in page  # page severity
        assert 'class="badge warning"' in page   # ticket severity
        assert "still firing" in page            # unresolved span

    def test_sparklines_carry_alert_bands(self, bundle):
        page = dashboard.render_html(bundle)
        assert page.count("<polyline") == len(dashboard.SPARK_RULES)
        assert 'fill="var(--critical)"' in page

    def test_critpath_table_renders(self, bundle):
        page = dashboard.render_html(bundle)
        assert ">fn.exec<" in page
        assert "61.0%" in page

    def test_quiet_run_says_quiet(self, bundle):
        bundle["overload"][0]["alert_spans"] = []
        page = dashboard.render_html(bundle)
        assert "no SLO alerts fired" in page

    def test_empty_series_render_without_error(self, bundle):
        bundle["overload"][0]["snapshot"]["rules"] = {}
        page = dashboard.render_html(bundle)
        assert dashboard.check_html(page, bundle) == []


class TestCheckHtml:
    def test_detects_missing_alert(self, bundle):
        page = dashboard.render_html(bundle).replace("slo-latency-gold",
                                                     "redacted")
        problems = dashboard.check_html(page, bundle)
        assert any("slo-latency-gold" in p for p in problems)

    def test_detects_unbalanced_tags_and_missing_doctype(self, bundle):
        problems = dashboard.check_html("<html><body></html>", bundle)
        assert "missing doctype" in problems
        assert any("unbalanced" in p for p in problems)

    def test_detects_missing_sparklines(self, bundle):
        page = dashboard.render_html(bundle).replace("<polyline", "<p")
        problems = dashboard.check_html(page, bundle)
        assert any("sparklines" in p for p in problems)

    def test_detects_bundle_without_overload_cells(self, bundle):
        bundle["overload"] = []
        problems = dashboard.check_html(dashboard.render_html(bundle), bundle)
        assert "no overload cells in the bundle" in problems

    def test_detects_bundle_without_alert_spans(self, bundle):
        bundle["overload"][0]["alert_spans"] = []
        problems = dashboard.check_html(dashboard.render_html(bundle), bundle)
        assert "no alert spans in any overload cell" in problems

    def test_detects_bundle_without_critpath_points(self, bundle):
        bundle["critpath"]["points"] = []
        problems = dashboard.check_html(dashboard.render_html(bundle), bundle)
        assert "no critical-path points in the bundle" in problems


class TestRenderText:
    def test_summary_lists_alerts_and_shift(self, bundle):
        text = dashboard.render_text(bundle)
        assert "spright @ 2.0x" in text
        assert "slo-latency-gold" in text
        assert "20.0ms -> 30.0ms" in text
        assert "fn.exec (61%" in text

    def test_quiet_run_in_text(self, bundle):
        bundle["overload"][0]["alert_spans"] = []
        assert "alerts: none" in dashboard.render_text(bundle)
