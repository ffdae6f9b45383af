"""Applies a :class:`FaultPlan` against a running platform.

The injector is one simulation process that sleeps until each
scheduled event and applies it through the platform's public fault
hooks (``crash_node``, ``Link.fail``, ``ConnectionManager.
fail_connections``, ...).  Everything it does is recorded on
``timeline`` — ``(time, kind, target, detail)`` tuples — which is what
the determinism property test compares across replays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..memory import PoolExhausted
from ..sim import Environment

from .plan import FaultEvent, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Walks a fault plan against a :class:`ServerlessPlatform`."""

    AGENT = "fault-injector"

    def __init__(
        self,
        env: Environment,
        platform,
        plan: FaultPlan,
        recovery: bool = True,
    ):
        self.env = env
        self.platform = platform
        self.plan = plan
        self.recovery = recovery
        #: what actually happened: (time, kind, target, detail)
        self.timeline: List[Tuple[float, str, str, Any]] = []
        #: buffers held hostage by pool-exhaust faults
        self._hostages: Dict[str, list] = {}
        #: ingress gateways addressable by gateway-crash/-restart
        self._gateways: Dict[str, Any] = {}
        #: node -> the control-plane ceiling a cp-throttle replaced,
        #: put back by its cp-restore
        self._ceilings: Dict[str, Optional[float]] = {}
        self.started = False
        if env.telemetry is not None:
            env.telemetry.metrics.collect(
                "fault_events_total", "Fault-plan events applied.", ("kind",),
                lambda: ((e[1], 1) for e in self.timeline))

    def register_gateway(self, name: str, ingress) -> None:
        """Make an ingress instance a target for ``gateway-crash``.

        ``ingress`` needs ``fail()``/``recover()`` and a ``healthy``
        flag (:class:`~repro.ingress.PalladiumIngress` has them); the
        balancer fails a connection over on its first request after
        the ``healthy`` flip.
        """
        self._gateways[name] = ingress

    def start(self):
        """Spawn the injector process; a no-op for an empty plan."""
        if self.started:
            raise RuntimeError("fault injector already started")
        self.started = True
        if not self.plan:
            return None
        return self.env.process(self._run(), name="fault-injector")

    def _run(self):
        for event in self.plan.events:
            at = event.at_us
            if at > self.env.now:
                yield self.env.timeout(at - self.env.now)
            detail = yield from self._apply(event)
            self.timeline.append((self.env.now, event.kind, event.target, detail))
            tel = self.env.telemetry
            if tel is not None:
                tel.tracer.incident(event.kind, event.target, detail=detail)

    # -- appliers ---------------------------------------------------------------
    def _apply(self, event: FaultEvent):
        kind = event.kind
        if kind == "node-crash":
            self.platform.crash_node(event.target, recovery=self.recovery)
            return None
        if kind == "node-restart":
            self.platform.restart_node(event.target, recovery=self.recovery)
            return None
        if kind == "engine-crash":
            self.platform.engines[event.target].crash()
            return None
        if kind == "engine-restart":
            self.platform.engines[event.target].restart()
            return None
        if kind in ("link-down", "link-up", "link-degrade", "link-restore"):
            src, dst = event.target.split("->", 1)
            link = self.platform.cluster.fabric_link(src, dst)
            if kind == "link-down":
                link.fail()
            elif kind == "link-up":
                link.recover()
            elif kind == "link-degrade":
                link.degrade(event.params["factor"])
            else:
                link.restore()
            return None
        if kind == "qp-error":
            engine = self.platform.engines[event.target]
            failed = engine.conn_mgr.fail_connections(
                remote=event.params.get("remote"),
                tenant=event.params.get("tenant"),
                count=event.params.get("count"),
                cause="injected qp error",
            )
            return failed
        if kind in ("cp-throttle", "cp-restore"):
            cp = self.platform.fabric.control_plane(event.target)
            if kind == "cp-throttle":
                self._ceilings.setdefault(event.target, cp.ops_per_sec)
                cp.set_ceiling(event.params["ops_per_sec"])
                return cp.ops_per_sec
            cp.set_ceiling(self._ceilings.pop(event.target, None))
            return cp.ops_per_sec
        if kind == "pool-exhaust":
            node, tenant = event.target.split(":", 1)
            pool = self.platform.pool_for(tenant, node)
            held = self._hostages.setdefault(event.target, [])
            while True:
                try:
                    held.append(pool.get(self.AGENT))
                except PoolExhausted:
                    break
            return len(held)
        if kind == "node-drain":
            # Graceful maintenance drain runs as its own process so the
            # injector can keep walking the schedule while migrations
            # are in flight; deadline expiry inside drain_node falls
            # back to crash semantics on its own.
            params = {k: v for k, v in event.params.items() if v is not None}
            self.env.process(
                self.platform.drain_node(event.target, **params),
                name=f"drain:{event.target}")
            return "scheduled"
        if kind in ("gateway-crash", "gateway-restart"):
            try:
                gateway = self._gateways[event.target]
            except KeyError:
                raise ValueError(
                    f"gateway {event.target!r} not registered; call "
                    "register_gateway() before start()") from None
            if kind == "gateway-crash":
                gateway.fail()
            else:
                gateway.recover()
            return gateway.healthy
        if kind == "pool-release":
            held = self._hostages.pop(event.target, [])
            node, tenant = event.target.split(":", 1)
            pool = self.platform.pool_for(tenant, node)
            for buffer in held:
                pool.put(buffer, self.AGENT)
            return len(held)
        raise ValueError(f"unknown fault kind {kind!r}")  # pragma: no cover
        yield  # pragma: no cover - makes this a generator
