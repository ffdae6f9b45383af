"""The ``Telemetry`` facade and its on/off switch.

Instrumentation sites all follow the same pattern::

    tel = self.env.telemetry
    if tel is not None:
        tel.metrics.histogram(...).labels(...).observe(value)

``env.telemetry`` defaults to ``None`` (set in ``Environment``), so
the disabled cost is one attribute read per site.  Installing a
:class:`Telemetry` flips every site on at once.  Only histograms and
the ingress SLI counters are pushed this way; other metrics are read
at export from counts their owners keep (``tel.metrics.collect``).

Enabled, a site stays cheap because nothing in it is rebuilt per call
that could be built once: ``labels()`` hands back a cached child for
a label tuple it has seen, and a component keeps its constant span
and actor names as attributes (the RNIC's ``agent``, a function's
execution-span name).  A site never keeps its family or child
across calls: the family lookup is where the SLO monitor's
``observer`` fires, before the site's increment or observation.

Invariant (enforced by the determinism test): nothing reachable from
``Telemetry`` ever creates simulation events, yields, schedules, or
draws random numbers.  Telemetry observes the simulation; it is never
part of it.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .profiler import CycleLedger
from .spans import SpanTracer

__all__ = ["Telemetry"]


class Telemetry:
    """Bundles the three pillars behind one switch.

    A fourth, optional consumer — the SLO :class:`Monitor` — attaches
    with :meth:`attach_monitor` and hangs off ``self.monitor``.
    """

    def __init__(self, env):
        self.env = env
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(env)
        self.cycles = CycleLedger()
        self.monitor = None

    @classmethod
    def install(cls, env) -> "Telemetry":
        """Create a Telemetry and enable it on ``env``."""
        tel = cls(env)
        env.telemetry = tel
        return tel

    def attach_monitor(self, **kwargs):
        """Attach an SLO monitor (idempotent; returns it)."""
        if self.monitor is None:
            from .monitor import Monitor
            Monitor.install(self, **kwargs)
        return self.monitor
