"""Bounded queues: per-tenant capacity + a shed policy.

The engine's tenant schedulers are unbounded by default, which models
infinite patience: past saturation, backlog (and therefore queueing
delay) grows without limit.  A :class:`QueueBounds` gives each tenant's
queue a capacity and a policy that decides *which* message to shed when
the capacity is hit:

``tail-drop``
    Reject the arriving message (what SPRIGHT/Fuyao-style stacks do
    implicitly when a socket buffer fills).  Simple, but under
    sustained overload the queue stays full of *old* messages whose
    deadlines are already blown — the classic goodput-collapse shape.

``codel``
    A CoDel-style sojourn-time dropper (Nichols & Jacobson, CACM '12)
    driven by sim time: once the head-of-line sojourn time has stayed
    above ``target`` for a full ``interval``, drop heads at a rate that
    increases with the square root of the drop count until the sojourn
    dips below target.  Applied at dequeue, so it needs per-item
    enqueue timestamps — the bounded scheduler records them whenever a
    clock is configured.

The scheduler reports every shed message through an ``on_drop``
callback so the owner (the engine) can retire the dataplane header,
recycle the buffer, repay flow-control credits, and count the drop —
bounded queues never *silently* lose an owned message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "DROP_TAIL",
    "DROP_CODEL",
    "DROP_POLICIES",
    "QueueBounds",
    "CodelState",
]

DROP_TAIL = "tail-drop"
DROP_CODEL = "codel"
DROP_POLICIES = (DROP_TAIL, DROP_CODEL)


@dataclass(frozen=True)
class QueueBounds:
    """Per-tenant queue capacity and shed policy for a scheduler."""

    capacity: int
    policy: str = DROP_TAIL
    #: CoDel knobs (sim-time microseconds); defaults scale the classic
    #: 5 ms / 100 ms down to the microsecond RPC regime.
    codel_target_us: float = 50.0
    codel_interval_us: float = 1_000.0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.policy not in DROP_POLICIES:
            raise ValueError(
                f"unknown drop policy {self.policy!r}; "
                f"expected one of {DROP_POLICIES}"
            )
        if self.codel_target_us <= 0 or self.codel_interval_us <= 0:
            raise ValueError("CoDel target/interval must be positive")


class CodelState:
    """Per-tenant CoDel control law over head-of-line sojourn times.

    Tracks the classic state machine: ``first_above_time`` arms when
    sojourn first exceeds target; after a full interval above target
    the dropper enters the dropping state and schedules drops at
    ``interval / sqrt(count)`` spacing until sojourn recovers.
    """

    def __init__(self, target_us: float, interval_us: float):
        self.target_us = target_us
        self.interval_us = interval_us
        self.first_above_time = 0.0
        self.dropping = False
        self.drop_next = 0.0
        self.count = 0

    def _control_law(self, now: float) -> float:
        return now + self.interval_us / (self.count ** 0.5)

    def should_drop(self, sojourn_us: float, now: float) -> bool:
        """One head-of-line inspection; True means shed this message."""
        if sojourn_us < self.target_us:
            # Below target: disarm everything.
            self.first_above_time = 0.0
            if self.dropping:
                self.dropping = False
            return False
        if not self.dropping:
            if self.first_above_time == 0.0:
                self.first_above_time = now + self.interval_us
                return False
            if now < self.first_above_time:
                return False
            # Sojourn has stayed above target for a full interval:
            # enter the dropping state and shed this head.
            self.dropping = True
            # Start close to the last drop rate if we were recently
            # dropping (classic CoDel hysteresis), else from one.
            self.count = max(1, self.count - 2) if self.count > 2 else 1
            self.drop_next = self._control_law(now)
            return True
        if now >= self.drop_next:
            self.count += 1
            self.drop_next = self._control_law(now)
            return True
        return False


class BoundedQueueMixin:
    """Scheduler mixin: capacity enforcement + drop accounting.

    Schedulers call :meth:`_admit` on enqueue (False → reject arriving
    item) and :meth:`_shed` for every dropped item.  Bounds are off by
    default (``configure_bounds`` never called): zero overhead, zero
    behaviour change.
    """

    _bounds: Optional[QueueBounds] = None
    _on_drop = None
    _clock = None
    #: lifetime items shed by the bounds policy
    dropped: int = 0

    def configure_bounds(self, bounds: Optional[QueueBounds],
                         on_drop=None, clock=None) -> None:
        """Install (or clear, with ``None``) queue bounds.

        ``on_drop(tenant, item, nbytes, reason)`` is invoked for every
        shed item so the caller can retire/recycle what it owns;
        ``clock`` (→ sim-time us) enables sojourn timestamps, required
        for the ``codel`` policy.
        """
        if bounds is not None and bounds.policy == DROP_CODEL and clock is None:
            raise ValueError("codel policy requires a clock")
        self._bounds = bounds
        self._on_drop = on_drop
        self._clock = clock
        self._codel_states = {}

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def _codel_state(self, tenant: str) -> CodelState:
        state = self._codel_states.get(tenant)
        if state is None:
            state = CodelState(self._bounds.codel_target_us,
                               self._bounds.codel_interval_us)
            self._codel_states[tenant] = state
        return state

    def _shed(self, tenant: str, item: object, nbytes: int,
              reason: str) -> None:
        self.dropped += 1
        per_tenant = getattr(self, "tenant_dropped", None)
        if per_tenant is not None:
            per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
        if self._on_drop is not None:
            self._on_drop(tenant, item, nbytes, reason)
