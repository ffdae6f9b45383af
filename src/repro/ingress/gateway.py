"""Ingress gateway common machinery.

All three evaluated gateways (§4.1.3) share this scaffolding:

* :class:`ClientConnection` — one external HTTP/TCP connection; the
  load generator blocks on its ``inbox`` for responses.
* :class:`GatewayWorker` — one data-plane worker process pinned to a
  CPU core running a run-to-completion loop over an event inbox.
* :class:`Autoscaler` — the master process' hysteresis policy (§3.6):
  spawn a worker when mean *useful* utilization exceeds 60 %, reap one
  when it drops below 30 %.  Scale events briefly pause the data plane
  (worker restart, visible as the dips in Fig. 14 (2)).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional

from ..config import CostModel
from ..hw import rss_queue
from ..sim import Environment, Event, Store, TimeSeries

__all__ = ["ClientConnection", "GatewayWorker", "Autoscaler", "GatewayStats"]


def _next_conn_id(env: Environment) -> int:
    # Connection ids seed the RSS hash that picks a gateway worker, so
    # they must be scoped to the simulation: a process-global counter
    # would make a run's worker assignment depend on how many
    # simulations ran before it in the same interpreter.
    n = getattr(env, "_conn_id_seq", 0) + 1
    env._conn_id_seq = n
    return n


class ClientConnection:
    """One external client connection terminated at the gateway."""

    def __init__(self, env: Environment):
        self.conn_id = _next_conn_id(env)
        self.env = env
        #: responses delivered back to the client
        self.inbox: Store = Store(env, name=f"conn{self.conn_id}")
        self.open = True
        self.requests_sent = 0
        self.responses_received = 0

    def close(self) -> None:
        """Client-side teardown; balancers sweep closed connections."""
        self.open = False


class GatewayStats:
    """Aggregate gateway counters.

    ``dropped`` counts every request the gateway failed to serve —
    no-route, flushed sends, orphaned responses, and (QoS) admission
    rejections; ``drops`` splits it by reason (``admission-*`` are the
    deliberate sheds).
    """

    def __init__(self):
        self.accepted = 0
        self.completed = 0
        #: requests the gateway failed to serve, by reason
        self.drops: Dict[str, int] = Counter()

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())


class GatewayWorker:
    """One gateway worker process: pinned core + event inbox."""

    def __init__(self, env: Environment, index: int, core, name: str = ""):
        self.env = env
        self.index = index
        self.core = core
        self.name = name or f"gw-worker{index}"
        self.inbox: Store = Store(env, name=f"{self.name}-inbox")
        self.active = True
        self._pause_until = 0.0

    def pause(self, duration_us: float) -> None:
        """Service interruption while the worker process restarts."""
        self._pause_until = max(self._pause_until, self.env.now + duration_us)

    def maybe_pause(self):
        """Generator: honor any pending restart pause."""
        if self.env.now < self._pause_until:
            yield self.env.timeout(self._pause_until - self.env.now)


class Autoscaler:
    """Hysteresis-based horizontal scaling of gateway workers (§3.6)."""

    def __init__(
        self,
        env: Environment,
        cost: CostModel,
        spawn: Callable[[], None],
        reap: Callable[[], None],
        workers: Callable[[], List[GatewayWorker]],
        min_workers: int = 1,
        max_workers: int = 8,
    ):
        self.env = env
        self.cost = cost
        self._spawn = spawn
        self._reap = reap
        self._workers = workers
        self.min_workers = min_workers
        self.max_workers = max_workers
        #: time series of (time, active workers) for Fig. 14
        self.worker_series = TimeSeries("workers")
        #: time series of (time, mean useful utilization)
        self.util_series = TimeSeries("utilization")
        self.scale_events = 0
        self._snapshots = {}

    def _mean_useful_utilization(self, period_us: float) -> float:
        workers = self._workers()
        if not workers:
            return 0.0
        utils = []
        for worker in workers:
            prev = self._snapshots.get(worker.name, 0.0)
            current = worker.core.useful
            utils.append((current - prev) / period_us)
            self._snapshots[worker.name] = current
        return sum(utils) / len(utils)

    def run(self):
        """Generator: the master process' periodic scaling loop."""
        period = self.cost.ingress_autoscale_period_us
        while True:
            yield self.env.timeout(period)
            util = self._mean_useful_utilization(period)
            workers = self._workers()
            self.util_series.record(self.env.now, util)
            self.worker_series.record(self.env.now, len(workers))
            if util > self.cost.ingress_scale_up_threshold and len(workers) < self.max_workers:
                self._spawn()
                self.scale_events += 1
                self._pause_all()
            elif util < self.cost.ingress_scale_down_threshold and len(workers) > self.min_workers:
                self._reap()
                self.scale_events += 1
                self._pause_all()

    def _pause_all(self) -> None:
        for worker in self._workers():
            worker.pause(self.cost.ingress_scale_event_pause_us)


def rss_pick(workers: List[GatewayWorker], conn_id: int) -> GatewayWorker:
    """RSS-style stable assignment of a connection to a worker."""
    if not workers:
        raise RuntimeError("gateway has no active workers")
    return workers[rss_queue(conn_id, len(workers))]
