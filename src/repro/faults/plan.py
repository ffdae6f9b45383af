"""Declarative fault schedules.

A plan is built fluently and stays inert data until handed to a
:class:`repro.faults.FaultInjector`::

    plan = (FaultPlan()
            .node_crash(at_us=140_000, node="worker1", down_us=80_000)
            .link_flap(at_us=60_000, src="worker0", dst="worker1",
                       down_us=5_000))

Every ``*_us`` is absolute simulation time; faults with a duration
expand into an apply event and a recovery event so the injector never
needs timers of its own beyond plain timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["FaultEvent", "FaultPlan"]

#: every event kind an injector knows how to apply
KINDS = frozenset({
    "node-crash", "node-restart",
    "engine-crash", "engine-restart",
    "link-down", "link-up",
    "link-degrade", "link-restore",
    "qp-error",
    "cp-throttle", "cp-restore",
    "pool-exhaust", "pool-release",
    "node-drain",
    "gateway-crash", "gateway-restart",
})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (or recovery) action."""

    at_us: float
    kind: str
    target: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_us < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_us}")


class FaultPlan:
    """An ordered schedule of :class:`FaultEvent`."""

    def __init__(self, events: Optional[List[FaultEvent]] = None):
        self._events: List[FaultEvent] = list(events or [])

    # -- builders ---------------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        return self

    def node_crash(self, at_us: float, node: str,
                   down_us: Optional[float] = None) -> "FaultPlan":
        """Fail-stop node crash; restarts after ``down_us`` if given."""
        self.add(FaultEvent(at_us, "node-crash", node))
        if down_us is not None:
            self.add(FaultEvent(at_us + down_us, "node-restart", node))
        return self

    def engine_crash(self, at_us: float, node: str,
                     down_us: Optional[float] = None) -> "FaultPlan":
        """Crash just the node's network engine (node stays up)."""
        self.add(FaultEvent(at_us, "engine-crash", node))
        if down_us is not None:
            self.add(FaultEvent(at_us + down_us, "engine-restart", node))
        return self

    def gateway_crash(self, at_us: float, gateway: str,
                      down_us: Optional[float] = None) -> "FaultPlan":
        """Fail-stop an ingress gateway registered with the injector.

        The ingress tier's health machinery notices the unhealthy
        instance and re-sprays its flows across the surviving ring;
        with ``down_us`` the gateway recovers (empty flow table) and
        rejoins the ring.
        """
        self.add(FaultEvent(at_us, "gateway-crash", gateway))
        if down_us is not None:
            self.add(FaultEvent(at_us + down_us, "gateway-restart", gateway))
        return self

    def link_flap(self, at_us: float, src: str, dst: str, down_us: float,
                  bidirectional: bool = True) -> "FaultPlan":
        """Take a fabric link down for ``down_us`` then bring it back."""
        target = f"{src}->{dst}"
        self.add(FaultEvent(at_us, "link-down", target))
        self.add(FaultEvent(at_us + down_us, "link-up", target))
        if bidirectional:
            back = f"{dst}->{src}"
            self.add(FaultEvent(at_us, "link-down", back))
            self.add(FaultEvent(at_us + down_us, "link-up", back))
        return self

    def link_degrade(self, at_us: float, src: str, dst: str, factor: float,
                     duration_us: Optional[float] = None) -> "FaultPlan":
        """Stretch a link's serialization by ``factor`` (>= 1)."""
        target = f"{src}->{dst}"
        self.add(FaultEvent(at_us, "link-degrade", target,
                            {"factor": factor}))
        if duration_us is not None:
            self.add(FaultEvent(at_us + duration_us, "link-restore", target))
        return self

    def qp_error(self, at_us: float, node: str, remote: Optional[str] = None,
                 tenant: Optional[str] = None,
                 count: Optional[int] = None) -> "FaultPlan":
        """Force QPs on ``node``'s engine into the ERROR state."""
        self.add(FaultEvent(at_us, "qp-error", node,
                            {"remote": remote, "tenant": tenant,
                             "count": count}))
        return self

    def cp_throttle(self, at_us: float, node: str, ops_per_sec: float,
                    duration_us: Optional[float] = None) -> "FaultPlan":
        """Clamp a node's RDMA control-plane verbs ceiling.

        Models degraded RNIC firmware / a management-path brownout:
        QP setup and MR registration commands on ``node`` queue behind
        an ``ops_per_sec`` FIFO until ``cp-restore`` puts back the
        ceiling the clamp replaced.
        The data plane is untouched — established QPs keep flowing.
        """
        self.add(FaultEvent(at_us, "cp-throttle", node,
                            {"ops_per_sec": ops_per_sec}))
        if duration_us is not None:
            self.add(FaultEvent(at_us + duration_us, "cp-restore", node))
        return self

    def node_drain(self, at_us: float, node: str,
                   deadline_us: Optional[float] = None,
                   state_bytes: Optional[int] = None) -> "FaultPlan":
        """Planned maintenance: gracefully drain then withdraw a node.

        Every function on the node is live-migrated off before the
        node withdraws.  With ``deadline_us`` the drain must finish
        within the maintenance window; expiry falls back to crash
        semantics for whatever is left (the injector's platform hook
        handles the fallback).
        """
        params = {"deadline_us": deadline_us, "state_bytes": state_bytes}
        self.add(FaultEvent(at_us, "node-drain", node, params))
        return self

    def mempool_exhaust(self, at_us: float, node: str, tenant: str,
                        duration_us: float) -> "FaultPlan":
        """Drain a tenant's pool on one node, holding the buffers."""
        target = f"{node}:{tenant}"
        self.add(FaultEvent(at_us, "pool-exhaust", target))
        self.add(FaultEvent(at_us + duration_us, "pool-release", target))
        return self

    # -- access -----------------------------------------------------------------
    @property
    def events(self) -> List[FaultEvent]:
        """The schedule, sorted by time (stable for ties)."""
        return sorted(self._events, key=lambda e: e.at_us)

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self):
        return iter(self.events)
