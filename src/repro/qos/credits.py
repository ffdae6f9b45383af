"""Credit-based backpressure between senders and a network engine.

Instead of letting the engine's per-tenant TX queues absorb whatever
the gateway and local functions post (growing silently until the
bounded-queue policy sheds), the engine *grants credits*: a sender must
hold one credit per in-flight message and the engine hands the credit
back when it processes (or sheds) that message.  The grantable window
shrinks as the tenant's scheduler backlog grows — from ``base_credits``
at or below ``low_water`` backlog linearly down to ``min_credits`` at
``high_water`` — so congestion at the engine propagates hop-by-hop to
the edge, where the admission gate can reject cheaply, rather than
materialising as deep queues.

``acquire`` is a generator: a sender over its window parks on a FIFO
waiter queue (deterministic wake order) until the engine's releases
bring its outstanding count back under the live limit.  ``min_credits``
is at least one, so every tenant can always make progress — credits
throttle, they never starve.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

__all__ = ["CreditController", "CreditError"]


class CreditError(RuntimeError):
    """A credit was released that was never granted (accounting bug)."""


class CreditController:
    """Per-tenant credit windows scaled by live scheduler backlog."""

    def __init__(
        self,
        env,
        base_credits: int = 64,
        min_credits: int = 4,
        low_water: Optional[int] = None,
        high_water: Optional[int] = None,
        backlog_fn: Optional[Callable[[str], int]] = None,
    ):
        if base_credits < 1:
            raise ValueError("base_credits must be at least 1")
        if not 1 <= min_credits <= base_credits:
            raise ValueError("need 1 <= min_credits <= base_credits")
        self.env = env
        self.base_credits = base_credits
        self.min_credits = min_credits
        #: backlog at/below which the full window is grantable
        self.low_water = base_credits if low_water is None else low_water
        #: backlog at/above which only ``min_credits`` are grantable
        self.high_water = (
            base_credits * 8 if high_water is None else high_water
        )
        if self.high_water <= self.low_water:
            raise ValueError("high_water must exceed low_water")
        #: per-tenant live backlog probe (the engine's DWRR queue depth)
        self.backlog_fn = backlog_fn
        self._outstanding: Dict[str, int] = {}
        self._waiters: Dict[str, Deque] = {}
        # lifetime accounting (read by telemetry export and tests)
        self.granted = 0
        self.released = 0
        self.blocked = 0

    # -- the revocation curve -------------------------------------------------
    def limit(self, tenant: str) -> int:
        """Grantable window for ``tenant`` given its current backlog."""
        if self.backlog_fn is None:
            return self.base_credits
        backlog = self.backlog_fn(tenant)
        if backlog <= self.low_water:
            return self.base_credits
        if backlog >= self.high_water:
            return self.min_credits
        frac = (backlog - self.low_water) / (self.high_water - self.low_water)
        shrunk = self.base_credits - frac * (self.base_credits - self.min_credits)
        return max(self.min_credits, int(shrunk))

    def outstanding(self, tenant: str) -> int:
        return self._outstanding.get(tenant, 0)

    # -- acquire / release ----------------------------------------------------
    def try_acquire(self, tenant: str) -> bool:
        """Grant a credit now if the window allows (no queue jumping)."""
        if self._waiters.get(tenant):
            return False
        if self._outstanding.get(tenant, 0) >= self.limit(tenant):
            return False
        self._outstanding[tenant] = self._outstanding.get(tenant, 0) + 1
        self.granted += 1
        return True

    def acquire(self, tenant: str):
        """Generator: block (FIFO) until a credit is granted."""
        if self.try_acquire(tenant):
            return
        event = self.env.event()
        self._waiters.setdefault(tenant, deque()).append(event)
        self.blocked += 1
        yield event

    def release(self, tenant: str) -> None:
        """Hand a credit back (the engine processed or shed the message)."""
        count = self._outstanding.get(tenant, 0)
        if count <= 0:
            raise CreditError(
                f"credit released for tenant {tenant!r} with none outstanding"
            )
        self._outstanding[tenant] = count - 1
        self.released += 1
        self._grant_waiters(tenant)

    def _grant_waiters(self, tenant: str) -> None:
        waiters = self._waiters.get(tenant)
        while waiters and self._outstanding.get(tenant, 0) < self.limit(tenant):
            event = waiters.popleft()
            self._outstanding[tenant] = self._outstanding.get(tenant, 0) + 1
            self.granted += 1
            event.succeed()
