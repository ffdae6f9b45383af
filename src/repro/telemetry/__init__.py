"""First-class observability for the simulated stack.

Three pillars (ISSUE 2 / the paper's Fig. 4-5 methodology):

``spans``
    Per-invocation trace contexts that ride the typed dataplane
    message through ingress -> DNE -> RDMA/Comch -> function ->
    response, exportable as Chrome trace-event JSON (load in Perfetto).
``metrics``
    Labeled counters/gauges and bounded log-linear histograms with a
    Prometheus-text and JSON snapshot exporter.
``profiler``
    A cycle ledger attributing consumed core-microseconds to the
    paper's breakdown categories (app / copy / descriptor / protocol /
    scheduling).

Two derived layers build on the pillars (ISSUE 7):

``monitor``
    Declarative recording rules + per-tenant SLOs with multi-window
    burn-rate alerts, evaluated in simulated time by piggybacking on
    metric observations (attach with ``tel.attach_monitor()``).
``critpath``
    Critical-path analysis over the span forest, run on each trace as
    its last span closes: per-request stage attribution (queueing /
    engine.tx / rdma.send / fn.exec / iolib ...) aggregated into
    p50/p99 tables and sweep-point diffs.

Everything hangs off :class:`Telemetry`, installed on an
``Environment`` via ``Telemetry.install(env)``.  When not installed
(``env.telemetry is None``, the default) every instrumentation site in
the stack reduces to one attribute read — zero simulation overhead.
Telemetry never creates simulation events, never yields, and never
draws random numbers, so even *enabled* telemetry cannot perturb
results (tested in ``tests/test_telemetry.py``).
"""

from .critpath import CriticalPathReport, analyze, dominant_shift
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .monitor import (BurnWindow, Monitor, QuantileRule, RateRule, RatioRule,
                      Selector, Slo)
from .profiler import CYCLE_CATEGORIES, CycleLedger
from .runtime import Telemetry
from .spans import Span, SpanTracer, validate_chrome_trace

__all__ = [
    "CYCLE_CATEGORIES",
    "BurnWindow",
    "Counter",
    "CriticalPathReport",
    "CycleLedger",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Monitor",
    "QuantileRule",
    "RateRule",
    "RatioRule",
    "Selector",
    "Slo",
    "Span",
    "SpanTracer",
    "Telemetry",
    "analyze",
    "dominant_shift",
    "validate_chrome_trace",
]
