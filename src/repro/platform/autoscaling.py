"""Function autoscaling on top of the elastic platform.

Serverless platforms scale function replicas with load — the very
churn the paper says demands flexible network provisioning (§1).  This
controller watches each service's request backlog and applies the same
hysteresis discipline as Palladium's ingress autoscaler (§3.6): scale
out when the mean per-replica backlog exceeds a high watermark, scale
in below a low watermark.

Every scale event flows through the coordinator, so routing tables —
intra-node, DNE inter-node, and ingress — stay consistent while
replicas come and go, exercising exactly the control-plane path of
§3.5.5.
"""

from __future__ import annotations

from typing import List

from ..sim import Environment, TimeSeries

from .elasticity import ElasticPlatform
from .function import FunctionSpec

__all__ = ["FunctionAutoscaler"]


class FunctionAutoscaler:
    """Backlog-driven replica controller for one service."""

    def __init__(
        self,
        platform: ElasticPlatform,
        spec: FunctionSpec,
        nodes: List[str],
        min_replicas: int = 1,
        max_replicas: int = 8,
        high_watermark: float = 4.0,
        low_watermark: float = 0.5,
        period_us: float = 20_000.0,
    ):
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if low_watermark >= high_watermark:
            raise ValueError("low watermark must be below high watermark")
        self.platform = platform
        self.env: Environment = platform.env
        self.spec = spec
        self.nodes = nodes
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.period_us = period_us
        self.scale_outs = 0
        self.scale_ins = 0
        #: (time, replica count) history for inspection
        self.replica_series = TimeSeries(f"replicas:{spec.name}")
        self._node_rr = 0
        self._running = False

    # -- observation -----------------------------------------------------------
    def _live_instances(self):
        group = self.platform.services[self.spec.name]
        return [self.platform.functions[rid] for rid in group.replicas]

    def mean_backlog(self) -> float:
        """Mean queued-requests per live replica."""
        instances = self._live_instances()
        if not instances:
            return 0.0
        backlog = sum(len(inst._requests.items) + len(inst.inbox.items)
                      for inst in instances)
        return backlog / len(instances)

    # -- control loop --------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("autoscaler already started")
        self._running = True
        self.env.process(self._loop(), name=f"fn-autoscale:{self.spec.name}")

    def _loop(self):
        while True:
            yield self.env.timeout(self.period_us)
            count = self.platform.replica_count(self.spec.name)
            backlog = self.mean_backlog()
            self.replica_series.record(self.env.now, count)
            if backlog > self.high_watermark and count < self.max_replicas:
                node = self.nodes[self._node_rr % len(self.nodes)]
                self._node_rr += 1
                self.platform.scale_out(self.spec, node)
                self.scale_outs += 1
            elif backlog < self.low_watermark and count > self.min_replicas:
                self.platform.scale_in(self.spec.name)
                self.scale_ins += 1
