"""The one hysteresis scaling controller.

Palladium's ingress master process spawns a gateway worker above 60 %
mean useful utilization and reaps one below 30 % (§3.6), and the paper
adapts that autoscaler to the F-Ingress (§4.1.3).  :class:`Autoscaler`
is that loop over any signal: the gateways'
:class:`~repro.ingress.gateway.WorkerPool` feeds it utilization, and
:meth:`~repro.platform.elasticity.ElasticPlatform.autoscaler` a
service's mean per-replica backlog, scaling replicas through the
coordinator (the provisioning churn of §1).
"""

from __future__ import annotations

from typing import Callable

from ..sim import Environment, TimeSeries

__all__ = ["Autoscaler"]


class Autoscaler:
    """Periodic hysteresis control of a count of workers or replicas.

    Every ``period_us`` it reads ``signal()`` and then ``count()`` and
    records both; it calls ``grow()`` when the signal is above ``high``
    and the count below ``max_count``, and ``shrink()`` when the signal
    is below ``low`` and the count above ``min_count``.
    """

    def __init__(
        self,
        env: Environment,
        signal: Callable[[], float],
        count: Callable[[], int],
        grow: Callable[[], object],
        shrink: Callable[[], object],
        low: float,
        high: float,
        min_count: int = 1,
        max_count: int = 8,
        period_us: float = 20_000.0,
        name: str = "autoscale",
    ):
        if min_count < 1 or max_count < min_count:
            raise ValueError("need 1 <= min_count <= max_count")
        if low >= high:
            raise ValueError("low watermark must be below high watermark")
        self.env = env
        self.signal = signal
        self.count = count
        self.grow = grow
        self.shrink = shrink
        self.low = low
        self.high = high
        self.min_count = min_count
        self.max_count = max_count
        self.period_us = period_us
        self.name = name
        self.signal_series = TimeSeries(f"{name}:signal")
        self.count_series = TimeSeries(f"{name}:count")
        self.scale_outs = 0
        self.scale_ins = 0
        self._running = False

    @property
    def scale_events(self) -> int:
        return self.scale_outs + self.scale_ins

    def start(self) -> None:
        if self._running:
            raise RuntimeError("autoscaler already started")
        self._running = True
        self.env.process(self._loop(), name=self.name)

    def _loop(self):
        while True:
            yield self.env.timeout(self.period_us)
            signal = self.signal()
            count = self.count()
            self.signal_series.record(self.env.now, signal)
            self.count_series.record(self.env.now, count)
            if signal > self.high and count < self.max_count:
                self.grow()
                self.scale_outs += 1
            elif signal < self.low and count > self.min_count:
                self.shrink()
                self.scale_ins += 1
