"""Extension — Fig. 4/5-style CPU cycle breakdown via the profiler.

Not a figure reproduction in the throughput sense: this experiment
reproduces the *motivating measurement* of the paper.  Fig. 4/5 argue
that SPRIGHT-style data planes burn most of their CPU cycles on data
copies and kernel protocol processing, while Palladium's DNE spends
host cycles on application work and cheap descriptor handling.

The run instruments the Online Boutique testbed with the telemetry
subsystem (:mod:`repro.telemetry`): every core charges the work it
runs to one of the :data:`~repro.telemetry.CYCLE_CATEGORIES` and the
:class:`~repro.telemetry.CycleLedger` reports the per-category split.

Expected contrast (the acceptance anchor):

* ``spright`` — copy + protocol dominate the non-application cycles
  (two kernel TCP traversals plus serialize/deserialize copies on
  every inter-node hop);
* ``palladium-dne`` / ``palladium-cne`` — zero copy cycles; overhead
  is mostly descriptor handling, which the paper counts as the cheap
  cost of doing business.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import CostModel
from ..telemetry import CYCLE_CATEGORIES, validate_chrome_trace

from .fig16_boutique import run_boutique_point
from .parallel import Plan, sweep
from .runner import ExperimentResult

__all__ = ["run_cycle_point", "run_ext_cycle_breakdown", "run_trace_smoke",
           "CYCLE_CONFIGS"]

#: the compared data planes: the paper's motivation target (SPRIGHT)
#: against the DNE and its host-core twin
CYCLE_CONFIGS = ("spright", "palladium-cne", "palladium-dne")


def run_cycle_point(
    config: str,
    chain: str = "Home Query",
    clients: int = 20,
    duration_us: float = 150_000.0,
    cost: Optional[CostModel] = None,
) -> Dict[str, object]:
    """One instrumented boutique run; returns the cycle attribution.

    The returned dict carries the per-category fractions (keys of
    :data:`CYCLE_CATEGORIES`), the overhead fraction, total attributed
    core-microseconds, the run's rps, and the live ``telemetry``
    bundle for drill-down (spans, metrics, the cycle ledger).
    """
    m = run_boutique_point(config, chain, clients, duration_us,
                           cost=cost, with_telemetry=True)
    telemetry = m["telemetry"]
    ledger = telemetry.cycles
    point: Dict[str, object] = dict(ledger.fractions())
    point.update(
        overhead_fraction=ledger.overhead_fraction(),
        total_core_us=ledger.total_us(),
        rps=m["rps"],
        telemetry=telemetry,
    )
    return point


def _cycle_cell(config: str, chain: str, clients: int, duration_us: float,
                cost: Optional[CostModel]) -> Dict[str, object]:
    """:func:`run_cycle_point`, its live telemetry cut to a snapshot."""
    point = run_cycle_point(config, chain, clients, duration_us, cost=cost)
    point["metrics"] = point.pop("telemetry").metrics.snapshot()
    return point


@sweep
def run_ext_cycle_breakdown(
    configs: Tuple[str, ...] = CYCLE_CONFIGS,
    chain: str = "Home Query",
    clients: int = 20,
    duration_us: float = 150_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """The Fig. 4/5-style breakdown table across data planes."""
    points = yield [(_cycle_cell, (config, chain, clients, duration_us, cost),
                     {}) for config in configs]
    result = ExperimentResult(
        "Ext - CPU cycle breakdown (Fig 4/5 motivation)",
        columns=["config"] + [f"{c}_pct" for c in CYCLE_CATEGORIES]
                + ["overhead_pct", "total_core_us", "rps"],
    )
    for config, point in zip(configs, points):
        result.add_row(
            config,
            *(round(100.0 * point[c], 1) for c in CYCLE_CATEGORIES),
            round(100.0 * point["overhead_fraction"], 1),
            round(point["total_core_us"]),
            round(point["rps"]),
        )
    if points:
        result.metrics = points[-1]["metrics"]
    result.note(
        "paper Fig. 4/5: SPRIGHT's cycles go mostly to copies + kernel "
        "protocol; the DNE eliminates copies and leaves descriptor work"
    )
    return result


def run_trace_smoke(
    path: Optional[str] = None,
    config: str = "palladium-dne",
    chain: str = "Home Query",
    clients: int = 8,
    duration_us: float = 60_000.0,
) -> Dict[str, object]:
    """CI smoke: run instrumented, export + validate the Chrome trace.

    Returns a summary dict (span/trace counts, integrity and schema
    violation lists — both empty on success) and, when ``path`` is
    given, writes the Chrome trace-event JSON there for loading into
    Perfetto / ``chrome://tracing``.
    """
    point = run_cycle_point(config, chain, clients, duration_us)
    tracer = point["telemetry"].tracer
    trace = tracer.to_chrome()
    errors = validate_chrome_trace(trace)
    violations = tracer.check_integrity()
    if path:
        with open(path, "w") as fh:
            fh.write(tracer.to_chrome_json())
    return {
        "spans": len(tracer.spans),
        "recorded": tracer.recorded,
        "traces": len({s.trace_id for s in tracer.spans}),
        "events": len(trace["traceEvents"]),
        "schema_errors": errors,
        "integrity_violations": violations,
        "rps": point["rps"],
    }
