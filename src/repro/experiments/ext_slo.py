"""Extension — SLO monitoring sweeps + critical-path attribution.

Three monitored views over existing experiments, all built on the
:mod:`repro.telemetry.monitor` burn-rate engine and the
:mod:`repro.telemetry.critpath` analyzer:

* :func:`run_slo_overload` — the overload sweep with the standard SLO
  bundle attached.  The acceptance shape: the tail-drop baselines'
  first burn-rate firing coincides with the sweep point where their
  goodput collapses, while palladium-dne (which sheds at the edge)
  stays alert-free across the whole sweep.
* :func:`run_slo_fault` — the node-crash runs with the availability
  SLO attached: the no-recovery configuration pages during the outage
  window, every recovering configuration stays quiet.
* :func:`run_critpath` — "where did my p99 go": per-stage latency
  attribution for Online Boutique at increasing client counts, plus
  the dominant-stage shift between sweep points (compute-bound at low
  load, queueing-bound past saturation).

Monitored points run through :func:`parallel_map` like every other
sweep, so each point reduces its run to a JSON-safe summary before
returning: the :class:`Telemetry` bundle itself (it holds the live
simulation graph) never crosses a process boundary.

:func:`build_dashboard_bundle` packages a small set of monitored runs
into one JSON-safe dict for ``tools/dashboard.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import CostModel
from ..telemetry import analyze

from .ext_fault_recovery import run_fault_point
from .ext_overload import OVERLOAD_CONFIGS, run_overload_point
from .fig16_boutique import run_boutique_point
from .parallel import Plan, sweep
from .runner import ExperimentResult

__all__ = [
    "build_dashboard_bundle",
    "run_critpath",
    "run_slo_fault",
    "run_slo_overload",
]

#: sweep points for the monitored overload run — brackets the collapse
#: (baselines hold at 0.8/1.0, collapse by 1.5)
SLO_MULTIPLIERS = (0.8, 1.0, 1.5, 2.0)

#: the monitored sweeps keep the calibrated default warmup (shrinking
#: it moves every configuration's saturation point) and arm the
#: monitor one slow-long-window after traffic starts
SLO_WARMUP_US = 160_000.0

#: monitored points need enough armed time to observe: the monitor
#: arms 60 ms after traffic starts, so anything under ~100 ms of
#: driven time would leave the alert engine almost no armed window
SLO_DURATION_US = 100_000.0


def _span_counts(spans: List[Dict[str, Any]]) -> Tuple[int, int]:
    pages = sum(1 for s in spans if s["severity"] == "page")
    tickets = sum(1 for s in spans if s["severity"] == "ticket")
    return pages, tickets


def _alert_summary(monitor) -> Dict[str, Any]:
    """A monitor's alert timeline, spans and SLO states, JSON-safe."""
    return {
        "timeline": list(monitor.timeline),
        "alert_spans": monitor.alert_spans(),
        "first_firing_us": monitor.first_firing_us(),
        "snapshot": monitor.snapshot(),
    }


def _monitored_overload_cell(config: str, multiplier: float,
                             duration_us: float, warmup_us: float,
                             cost: Optional[CostModel] = None,
                             ) -> Dict[str, Any]:
    """One monitored sweep cell, reduced to a JSON-safe summary."""
    point = run_overload_point(config, multiplier, duration_us=duration_us,
                               warmup_us=warmup_us, cost=cost,
                               with_monitor=True)
    return {
        "config": config,
        "multiplier": multiplier,
        "offered_rps": point["offered_rps"],
        "goodput_rps": point["goodput_rps"],
        "rejected": point["rejected"],
        **_alert_summary(point.pop("telemetry").monitor),
    }


@sweep
def run_slo_overload(
    configs: Sequence[str] = OVERLOAD_CONFIGS,
    multipliers: Sequence[float] = SLO_MULTIPLIERS,
    duration_us: float = SLO_DURATION_US,
    warmup_us: float = SLO_WARMUP_US,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Burn-rate alerts across the overload sweep, per data plane."""
    configs = tuple(configs)
    multipliers = tuple(multipliers)
    cells = yield [(_monitored_overload_cell,
                    (config, m, duration_us, warmup_us), {"cost": cost})
                   for config in configs for m in multipliers]
    result = ExperimentResult(
        "EXT - SLO burn-rate alerts under overload",
        columns=["config", "multiplier", "goodput_rps", "pct_peak",
                 "pages", "tickets", "first_alert_ms"],
    )
    collapse_vs_alert: List[str] = []
    for ci, config in enumerate(configs):
        points = cells[ci * len(multipliers):(ci + 1) * len(multipliers)]
        peak = max(p["goodput_rps"] for p in points) or 1.0
        collapse_mult = alert_mult = None
        for m, p in zip(multipliers, points):
            pages, tickets = _span_counts(p["alert_spans"])
            first = p["first_firing_us"]
            pct = 100.0 * p["goodput_rps"] / peak
            if collapse_mult is None and pct < 50.0:
                collapse_mult = m
            if alert_mult is None and first is not None:
                alert_mult = m
            result.add_row(config, m, round(p["goodput_rps"]),
                           round(pct, 1), pages, tickets,
                           round(first / 1000.0, 1)
                           if first is not None else -1.0)
            result.attach_alerts(p["timeline"], config=config, multiplier=m)
        collapse_vs_alert.append(
            f"{config}: collapse at "
            f"{collapse_mult if collapse_mult is not None else 'never'}x, "
            f"first alert at "
            f"{alert_mult if alert_mult is not None else 'never'}x")
    result.note(
        "multi-window burn-rate alerts (page 5ms/1ms, ticket 60ms/5ms) "
        "on per-tenant latency + availability SLOs; first_alert_ms=-1 "
        "means no alert fired at that point"
    )
    result.note("; ".join(collapse_vs_alert))
    return result


def _monitored_fault_cell(config: str, **kwargs: Any) -> Dict[str, Any]:
    """One monitored crash run, reduced to a JSON-safe summary."""
    point = run_fault_point(config, with_monitor=True, **kwargs)
    return {
        "config": config,
        "restored_pct": point["restored_pct"],
        "recover_ms": point["recover_ms"],
        **_alert_summary(point.pop("telemetry").monitor),
    }


@sweep
def run_slo_fault(
    configs: Sequence[str] = ("palladium-dne", "palladium-dne-no-recovery",
                              "spright"),
    clients: int = 8,
    crash_at_us: float = 140_000.0,
    down_us: float = 80_000.0,
    post_us: float = 60_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Availability burn-rate alerts through a worker-node crash."""
    cells = yield [(_monitored_fault_cell, (config,),
                    dict(clients=clients, crash_at_us=crash_at_us,
                         down_us=down_us, post_us=post_us, cost=cost))
                   for config in configs]
    result = ExperimentResult(
        "EXT - SLO alerts through a node crash",
        columns=["config", "restored_pct", "recover_ms", "pages",
                 "tickets", "first_alert_ms", "crash_ms"],
    )
    for p in cells:
        pages, tickets = _span_counts(p["alert_spans"])
        first = p["first_firing_us"]
        result.add_row(p["config"], round(p["restored_pct"], 1),
                       round(p["recover_ms"], 1), pages, tickets,
                       round(first / 1000.0, 1)
                       if first is not None else -1.0,
                       round(crash_at_us / 1000.0, 1))
        result.attach_alerts(p["timeline"], config=p["config"])
    result.note(
        "the no-recovery configuration should page shortly after the "
        "crash (clients surface failures after their 30 ms timeout) "
        "and resolve once the node restarts; every recovering "
        "configuration stays alert-free"
    )
    return result


def _critpath_cell(config: str, chain: str, clients: int,
                   duration_us: float,
                   cost: Optional[CostModel] = None) -> Dict[str, Any]:
    """One instrumented boutique run reduced to its critpath report."""
    point = run_boutique_point(config, chain, clients,
                               duration_us=duration_us, cost=cost,
                               with_telemetry=True)
    telemetry = point.pop("telemetry")
    report = analyze(telemetry.tracer, label=f"{clients} clients")
    summary = report.to_dict()
    summary["rps"] = point["rps"]
    return summary


def _shift_rows(client_counts: Sequence[int],
                cells: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The dominant p99 stage per sweep point, marking where it moves."""
    rows: List[Dict[str, Any]] = []
    for clients, summary in zip(client_counts, cells):
        stage = summary["dominant_stage_p99"]
        rows.append({
            "point": f"{clients} clients",
            "dominant_stage": stage,
            "share": summary["dominant_share_p99"],
            "p99_total_us": summary["p99_total_us"],
            "named_coverage": summary["named_coverage_p99"],
            "shifted": bool(rows) and stage != rows[-1]["dominant_stage"],
        })
    return rows


@sweep
def run_critpath(
    config: str = "palladium-dne",
    chain: str = "Home Query",
    client_counts: Sequence[int] = (20, 80),
    duration_us: float = 120_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Per-stage latency attribution across a client-count sweep."""
    client_counts = tuple(client_counts)
    cells = yield [(_critpath_cell, (config, chain, clients, duration_us),
                    {"cost": cost}) for clients in client_counts]
    result = ExperimentResult(
        f"EXT - critical path ({config}, {chain})",
        columns=["clients", "stage", "p50_us", "p50_share", "p99_us",
                 "p99_share", "mean_share"],
    )
    for clients, summary in zip(client_counts, cells):
        for row in summary["table"]:
            result.add_row(clients, row["stage"], row["p50_us"],
                           row["p50_share"], row["p99_us"],
                           row["p99_share"], row["mean_share"])
    shift_rows = _shift_rows(client_counts, cells)
    result.add_series("dominant_shift", shift_rows)
    shifts = " -> ".join(
        f"{r['point']}: {r['dominant_stage']} ({r['share']:.0%} of "
        f"p99={r['p99_total_us'] / 1000.0:.2f}ms)" for r in shift_rows)
    result.note(f"dominant p99 stage {shifts}")
    coverage = min((r["named_coverage"] for r in shift_rows), default=0.0)
    result.note(f"named-stage coverage of p99 >= {coverage:.1%} "
                "(acceptance floor: 90%)")
    return result


@sweep
def build_dashboard_bundle(
    overload_configs: Sequence[str] = ("palladium-dne", "spright"),
    overload_multiplier: float = 2.0,
    critpath_clients: Sequence[int] = (20, 80),
    duration_us: float = SLO_DURATION_US,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Everything ``tools/dashboard.py`` renders, as one JSON-safe dict.

    A couple of monitored overload runs at a collapsing multiplier
    (rule series + alert timelines + SLO states) and a critical-path
    client sweep.  Keep the run list small — this backs the CI smoke
    job as well as the human-facing dashboard.
    """
    n = len(overload_configs)
    cells = yield (
        [(_monitored_overload_cell,
          (config, overload_multiplier, duration_us, SLO_WARMUP_US),
          {"cost": cost}) for config in overload_configs]
        + [(_critpath_cell, ("palladium-dne", "Home Query", clients,
                             120_000.0), {"cost": cost})
           for clients in critpath_clients])
    return {
        "title": "Palladium repro - SLO dashboard",
        "overload": cells[:n],
        "critpath": {"points": cells[n:],
                     "shift": _shift_rows(critpath_clients, cells[n:])},
    }
