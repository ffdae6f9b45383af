"""Tenant traffic schedulers for the network engine (§3.3, Fig. 15).

The DNE arbitrates the RNIC among co-located tenants.  Palladium uses a
Deficit Weighted Round Robin (DWRR) scheduler (Shreedhar & Varghese)
with per-tenant weights; the evaluation's baseline is plain FCFS, which
lets bursty tenants starve steady ones.

Both implement the same interface: ``enqueue(tenant, item, nbytes)``,
``dequeue() -> (tenant, item) | None``, ``pending()`` and
``backlog(tenant)``.  The engine's run-to-completion loop calls
``dequeue`` once per TX opportunity.

Queues are unbounded by default.  The QoS subsystem can install
:class:`~repro.qos.QueueBounds` via ``configure_bounds`` to give every
tenant queue a capacity and a shed policy (tail-drop or CoDel); shed
items are reported through the ``on_drop``
callback so the engine can retire headers, recycle buffers, and repay
credits — a bounded queue never silently loses an owned message.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Optional, Tuple

from ..qos.bounded import BoundedQueueMixin, DROP_CODEL, DROP_TAIL

__all__ = ["FcfsScheduler", "DwrrScheduler", "TenantScheduler"]


class TenantScheduler(BoundedQueueMixin):
    """Interface: per-tenant TX queueing discipline inside the engine.

    All implementations keep cheap observability counters —
    ``enqueued``, ``dequeued``, ``dropped``, ``peak_backlog``, and the
    per-tenant byte ledgers — that the platform exports into the
    metrics registry when telemetry is enabled.
    """

    #: lifetime items accepted / handed to the engine, and the deepest
    #: instantaneous backlog seen (plain ints; no telemetry required)
    enqueued: int = 0
    dequeued: int = 0
    peak_backlog: int = 0

    def weight(self, tenant: str) -> float:
        """Share weight (1.0 unless the discipline is weighted)."""
        return 1.0

    def _init_counters(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.peak_backlog = 0
        #: per-tenant byte ledgers: offered vs actually transmitted —
        #: the measured ground truth for Fig. 15-style share checks
        self.tenant_bytes_enqueued: Dict[str, int] = {}
        self.tenant_bytes_dequeued: Dict[str, int] = {}
        self.tenant_dropped: Dict[str, int] = {}

    def _note_enqueue(self, tenant: str, nbytes: int) -> None:
        self.enqueued += 1
        self.tenant_bytes_enqueued[tenant] = (
            self.tenant_bytes_enqueued.get(tenant, 0) + nbytes
        )
        depth = self.pending()
        if depth > self.peak_backlog:
            self.peak_backlog = depth

    def _note_dequeue(self, tenant: str, nbytes: int) -> None:
        self.dequeued += 1
        self.tenant_bytes_dequeued[tenant] = (
            self.tenant_bytes_dequeued.get(tenant, 0) + nbytes
        )

    # -- measured fairness ---------------------------------------------------
    def fairness_shares(self) -> Dict[str, float]:
        """Weight-normalised bytes served per tenant that offered load."""
        return {
            tenant: self.tenant_bytes_dequeued.get(tenant, 0) / self.weight(tenant)
            for tenant in self.tenant_bytes_enqueued
        }

    def fairness_ratio(self) -> float:
        """min/max of normalised shares: 1.0 is perfectly weighted-fair,
        0.0 means some tenant that offered load was fully starved."""
        shares = list(self.fairness_shares().values())
        if len(shares) < 2:
            return 1.0
        top = max(shares)
        if top <= 0:
            return 1.0
        return min(shares) / top


class FcfsScheduler(TenantScheduler):
    """First-come-first-served: one global FIFO, no tenant awareness.

    This is the "FCFS DNE" of Fig. 15 (1): arrival order wins, so a
    bursty tenant that fills the queue starves everyone else.  Under
    bounds the capacity applies per tenant (each tenant may hold at
    most ``capacity`` slots of the shared FIFO).
    """

    def __init__(self):
        self._queue: Deque[Tuple[str, object, int, float]] = deque()
        self._per_tenant: Dict[str, int] = {}
        self._init_counters()

    def enqueue(self, tenant: str, item: object, nbytes: int = 1) -> None:
        nbytes = max(1, nbytes)
        bounds = self._bounds
        if bounds is not None and self._per_tenant.get(tenant, 0) >= bounds.capacity:
            # tail-drop (also CoDel's capacity backstop).
            self._shed(tenant, item, nbytes, DROP_TAIL)
            return
        self._queue.append((tenant, item, nbytes, self._now()))
        self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + 1
        self._note_enqueue(tenant, nbytes)

    def dequeue(self) -> Optional[Tuple[str, object]]:
        codel = self._bounds is not None and self._bounds.policy == DROP_CODEL
        while self._queue:
            tenant, item, nbytes, ts = self._queue[0]
            if codel:
                now = self._now()
                if self._codel_state(tenant).should_drop(now - ts, now):
                    self._queue.popleft()
                    self._per_tenant[tenant] -= 1
                    self._shed(tenant, item, nbytes, DROP_CODEL)
                    continue
            self._queue.popleft()
            self._per_tenant[tenant] -= 1
            self._note_dequeue(tenant, nbytes)
            return tenant, item
        return None

    def pending(self) -> int:
        return len(self._queue)

    def backlog(self, tenant: str) -> int:
        return self._per_tenant.get(tenant, 0)


class DwrrScheduler(TenantScheduler):
    """Deficit Weighted Round Robin over per-tenant queues.

    Each backlogged tenant accumulates ``weight * quantum`` deficit per
    round and may transmit while its deficit covers the head-of-line
    message size, yielding byte-level weighted fairness among
    backlogged tenants — exactly the controlled shares of Fig. 15 (2).

    With bounds configured each per-tenant queue is capped at
    ``capacity``; CoDel drops happen at dequeue time off the head-of-
    line sojourn and consume no deficit, so shedding never distorts the
    weighted shares of the traffic that *is* served.
    """

    def __init__(self, quantum_bytes: int = 1024):
        if quantum_bytes < 1:
            raise ValueError("quantum must be positive")
        self.quantum_bytes = quantum_bytes
        self._weights: Dict[str, float] = {}
        self._queues: "OrderedDict[str, Deque[Tuple[object, int, float]]]" = OrderedDict()
        self._deficit: Dict[str, float] = {}
        self._active: Deque[str] = deque()
        self._pending = 0
        self._init_counters()

    def set_weight(self, tenant: str, weight: float) -> None:
        """Assign a tenant's share weight (must be positive)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._weights[tenant] = weight

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def enqueue(self, tenant: str, item: object, nbytes: int = 1) -> None:
        nbytes = max(1, nbytes)
        queue = self._queues.get(tenant)
        if queue is None:
            queue = deque()
            self._queues[tenant] = queue
        bounds = self._bounds
        if bounds is not None and len(queue) >= bounds.capacity:
            # tail-drop (also CoDel's capacity backstop).
            self._shed(tenant, item, nbytes, DROP_TAIL)
            return
        if not queue:
            # Tenant becomes backlogged: joins the active round list
            # with an empty deficit (standard DWRR).
            if tenant not in self._active:
                self._active.append(tenant)
                self._deficit.setdefault(tenant, 0.0)
        queue.append((item, nbytes, self._now()))
        self._pending += 1
        self._note_enqueue(tenant, nbytes)

    def dequeue(self) -> Optional[Tuple[str, object]]:
        if self._pending == 0:
            return None
        codel = self._bounds is not None and self._bounds.policy == DROP_CODEL
        # Visit active tenants round-robin, topping up deficit on each
        # visit, until someone's head-of-line message fits.  Every full
        # rotation raises each backlogged tenant's deficit by at least
        # one quantum, so this terminates; the cap is purely defensive.
        for _ in range(1_000_000):
            if not self._active:
                return None
            tenant = self._active[0]
            queue = self._queues[tenant]
            if not queue:
                self._active.popleft()
                self._deficit[tenant] = 0.0
                continue
            head_item, head_bytes, head_ts = queue[0]
            if codel:
                now = self._now()
                if self._codel_state(tenant).should_drop(now - head_ts, now):
                    # Sojourn-time shed: no deficit consumed, so CoDel
                    # never distorts the weighted shares.
                    queue.popleft()
                    self._pending -= 1
                    self._shed(tenant, head_item, head_bytes, DROP_CODEL)
                    if not queue:
                        self._active.popleft()
                        self._deficit[tenant] = 0.0
                    if self._pending == 0:
                        return None
                    continue
            if self._deficit[tenant] >= head_bytes:
                queue.popleft()
                self._deficit[tenant] -= head_bytes
                self._pending -= 1
                self._note_dequeue(tenant, head_bytes)
                if not queue:
                    self._active.popleft()
                    self._deficit[tenant] = 0.0
                return tenant, head_item
            # End of this tenant's turn: rotate and top up.
            self._active.rotate(-1)
            self._deficit[tenant] += self.weight(tenant) * self.quantum_bytes
        return None  # pragma: no cover - defensive; unreachable with pending>0

    def pending(self) -> int:
        return self._pending

    def backlog(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0
