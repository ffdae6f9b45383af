"""Ingress gateway common machinery.

All three evaluated gateways (§4.1.3) share this scaffolding:

* :class:`ClientConnection` — one external HTTP/TCP connection; the
  load generator blocks on its ``inbox`` for responses.
* :class:`GatewayWorker` — one data-plane worker process pinned to a
  CPU core running a run-to-completion loop over an event inbox.
* :class:`WorkerPool` — the master process (§3.6): it spawns and reaps
  workers, spreads connections over them by RSS, and, when the pool may
  grow, runs the one hysteresis
  :class:`~repro.platform.autoscaling.Autoscaler` on their mean
  *useful* utilization (spawn above 60 %, reap below 30 %).  Scale
  events briefly pause the data plane (worker restart, visible as the
  dips in Fig. 14 (2)).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional

from ..config import CostModel
from ..hw import rss_queue
from ..platform.autoscaling import Autoscaler
from ..sim import Environment, Store

__all__ = ["ClientConnection", "GatewayWorker", "WorkerPool", "GatewayStats"]


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


class WorkerPool:
    """The gateway's workers, run by its master process (§3.6).

    Each worker pins a core of ``cpu`` as ``<prefix>-w<n>`` and runs
    ``loop(worker)``, which unpins it on reaching the ``("shutdown",
    None)`` event :meth:`reap` queues.  When ``max_workers`` exceeds
    ``min_workers`` the pool carries an
    :class:`~repro.platform.autoscaling.Autoscaler` on the workers'
    mean useful utilization, and each scale event pauses every worker.
    """

    def __init__(self, env: Environment, cost: CostModel, cpu, prefix: str,
                 loop: Callable[[GatewayWorker], object],
                 min_workers: int = 1, max_workers: Optional[int] = None):
        self.env = env
        self.cost = cost
        self.cpu = cpu
        self.prefix = prefix
        self._loop = loop
        self.min_workers = min_workers
        #: live workers in spawn order; the newest is reaped first
        self.workers: List[GatewayWorker] = []
        self._seq = 0
        #: worker name -> useful µs at the last utilization reading
        self._useful: Dict[str, float] = {}
        self.autoscaler: Optional[Autoscaler] = None
        if max_workers is not None and max_workers > min_workers:
            self.autoscaler = Autoscaler(
                env, self.useful_utilization, lambda: len(self.workers),
                lambda: self._scale_event(self.spawn),
                lambda: self._scale_event(self.reap),
                low=cost.ingress_scale_down_threshold,
                high=cost.ingress_scale_up_threshold,
                min_count=min_workers, max_count=max_workers,
                period_us=cost.ingress_autoscale_period_us,
                name=f"{prefix}-autoscale")

    def start(self) -> None:
        for _ in range(self.min_workers):
            self.spawn()

    def spawn(self) -> GatewayWorker:
        name = f"{self.prefix}-w{self._seq}"
        worker = GatewayWorker(self.env, self._seq,
                               self.cpu.allocate_pinned(name), name=name)
        self._seq += 1
        self.workers.append(worker)
        self.env.process(self._loop(worker), name=name)
        return worker

    def reap(self) -> None:
        """Retire the newest worker: it serves what is already queued."""
        worker = self.workers.pop()
        worker.active = False
        worker.inbox.put_nowait(("shutdown", None))

    def pick(self, key: int) -> GatewayWorker:
        """RSS-style stable assignment of a connection to a live worker."""
        if not self.workers:
            raise RuntimeError("gateway has no active workers")
        return self.workers[rss_queue(key, len(self.workers))]

    def useful_utilization(self) -> float:
        """Mean useful utilization of the live workers over the last
        autoscaler period."""
        if not self.workers:
            return 0.0
        period_us = self.cost.ingress_autoscale_period_us
        utils = [(w.core.useful - self._useful.get(w.name, 0.0)) / period_us
                 for w in self.workers]
        self._useful = {w.name: w.core.useful for w in self.workers}
        return sum(utils) / len(utils)

    def _scale_event(self, change: Callable[[], object]) -> None:
        # a worker restart: visible as the dips in Fig. 14 (2)
        change()
        for worker in self.workers:
            worker.pause(self.cost.ingress_scale_event_pause_us)
