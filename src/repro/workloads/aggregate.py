"""Flow-aggregate load modeling: city-scale traffic without clients.

Every seed workload builds one Python object per client, which caps a
laptop run at a few thousand users.  This frontend models client
*classes* instead: an arrival process, payload mix, tenant, and
popularity skew describe an aggregate stream, and the per-flow state
collapses into *flow buckets* — a bucket stands for thousands of
clients whose flows share a popularity rank, so O(10^6) modeled
clients cost O(buckets) of model state and O(epochs × buckets) time.
Latency samples do not grow with buckets either: a run of served
items with equal ``(time, latency)`` is recorded as one sample with
the summed count, so each gateway adds a handful of samples per epoch
(one per enqueue epoch it serves from, per path).

:class:`FlowAggregateModel` drives a
:class:`repro.ingress.tier.GatewayTier` with those streams in fixed
epochs (a fluid/flow-level approximation, the standard trick for
simulating scales a packet/request-level DES cannot reach):

* each epoch, every bucket's arrivals spray through the tier's
  consistent-hash ring to a gateway and split hot/cold against its
  flow table (hot = DPU fast path, cold = slow-path punt + install);
* gateways serve their hot/cold FIFO backlogs from per-epoch fast-
  and slow-path budgets; waiting time emerges from the backlog, and
  overflow past the queue bound is *rejected* (accounted, not lost);
* a gateway crash re-sprays only its buckets (consistent hashing),
  *redirects* its queued backlog to each bucket's successor, and
  ships its flow-table entries there after a sync window — lookups in
  the window punt cold rather than erroring.

The ledger is exact integers: ``admitted == completed + rejected +
inflight`` always, and after :meth:`drain` the inflight term is zero —
the conservation property the hypothesis tests pin down.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..ingress.tier import GatewayTier

__all__ = [
    "ClientClass",
    "FlowBucket",
    "FlowAggregateModel",
    "weighted_percentile",
]


@dataclass(frozen=True)
class ClientClass:
    """One aggregate client population.

    ``clients`` closed-over connections issuing ``rps_per_client``
    requests each, with flow popularity skewed Zipf(``zipf_s``) across
    ``buckets`` representative flow buckets (default: enough buckets
    that none exceeds ~1% of the class).
    """

    name: str
    tenant: str
    clients: int
    rps_per_client: float
    body_bytes: int = 256
    zipf_s: float = 1.1
    buckets: Optional[int] = None

    @property
    def rate_rps(self) -> float:
        return self.clients * self.rps_per_client

    def bucket_count(self) -> int:
        if self.buckets is not None:
            return max(1, min(self.buckets, self.clients))
        return max(1, min(128, self.clients))


class FlowBucket:
    """A cohort of same-rank flows from one class (the unit of spray)."""

    __slots__ = ("key", "tenant", "flows", "rate_rps", "body_bytes",
                 "acc", "owner")

    def __init__(self, key: Tuple[str, int], tenant: str, flows: int,
                 rate_rps: float, body_bytes: int):
        self.key = key
        self.tenant = tenant
        #: modeled clients/flows behind this bucket
        self.flows = flows
        self.rate_rps = rate_rps
        self.body_bytes = body_bytes
        #: fractional-arrival accumulator (exact integer emission)
        self.acc = 0.0
        #: cached ring assignment, invalidated on topology change
        self.owner: Optional[str] = None


def build_buckets(classes: Sequence[ClientClass]) -> List[FlowBucket]:
    """Expand client classes into Zipf-weighted flow buckets."""
    buckets: List[FlowBucket] = []
    for cls in classes:
        n = cls.bucket_count()
        weights = [1.0 / (i + 1) ** cls.zipf_s for i in range(n)]
        total_w = sum(weights)
        base, spare = divmod(cls.clients, n)
        for i, w in enumerate(weights):
            flows = base + (1 if i < spare else 0)
            if flows == 0:
                continue
            buckets.append(FlowBucket(
                key=(cls.name, i), tenant=cls.tenant, flows=flows,
                rate_rps=cls.rate_rps * w / total_w,
                body_bytes=cls.body_bytes))
    if not buckets:
        raise ValueError("no flow buckets (empty client classes?)")
    return buckets


def weighted_percentile(samples: Iterable[Tuple[float, float, int]],
                        p: float,
                        t0: Optional[float] = None,
                        t1: Optional[float] = None) -> float:
    """Nearest-rank percentile over ``(time, value, weight)`` samples,
    optionally restricted to completions inside ``[t0, t1)``."""
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    rows = sorted(
        (value, weight) for time, value, weight in samples
        if (t0 is None or time >= t0) and (t1 is None or time < t1))
    total = sum(weight for _value, weight in rows)
    if total == 0:
        return 0.0
    target = max(1, math.ceil(p / 100.0 * total))
    running = 0
    for value, weight in rows:
        running += weight
        if running >= target:
            return value
    return rows[-1][0]


class _QueueItem:
    __slots__ = ("count", "bucket", "enq_time")

    def __init__(self, count: int, bucket: FlowBucket, enq_time: float):
        self.count = count
        self.bucket = bucket
        self.enq_time = enq_time


class FlowAggregateModel:
    """Epoch-driven fluid model of the gateway tier under aggregates.

    All rates are requests/second; all times microseconds.  Service
    capacity is per gateway: ``fastpath_rps`` for hot (pinned) flows,
    ``slowpath_rps`` for cold punts.  ``max_queue`` bounds each
    gateway's backlog; overflow is rejected at admission (the tail),
    never silently dropped.
    """

    def __init__(
        self,
        classes: Sequence[ClientClass],
        gateways: int,
        *,
        epoch_us: float = 1_000.0,
        fastpath_rps: float = 250_000.0,
        slowpath_rps: float = 25_000.0,
        table_capacity: int = 131_072,
        tenant_quota: Optional[int] = None,
        hot_us: float = 2.0,
        cold_us: float = 18.0,
        sync_us: float = 2_000.0,
        max_queue: int = 4_000,
        max_cold_queue: int = 500,
        vnodes: int = 32,
    ):
        if gateways < 1:
            raise ValueError("need at least one gateway")
        self.classes = list(classes)
        self.buckets = build_buckets(self.classes)
        self.epoch_us = epoch_us
        self.names = [f"gw{i}" for i in range(gateways)]
        self.tier = GatewayTier(
            self.names, table_capacity=table_capacity,
            tenant_quota=tenant_quota, vnodes=vnodes, sync_us=sync_us)
        self.fastpath_rps = fastpath_rps
        self.slowpath_rps = slowpath_rps
        self.hot_us = hot_us
        self.cold_us = cold_us
        self.max_queue = max_queue
        self.max_cold_queue = max_cold_queue
        self.now = 0.0
        #: per-gateway FIFO backlogs, split by path
        self._hot_q: Dict[str, Deque[_QueueItem]] = {
            n: deque() for n in self.names}
        self._cold_q: Dict[str, Deque[_QueueItem]] = {
            n: deque() for n in self.names}
        #: fractional service-budget carries (exact integer service)
        self._fast_carry: Dict[str, float] = {n: 0.0 for n in self.names}
        self._slow_carry: Dict[str, float] = {n: 0.0 for n in self.names}
        # -- the conservation ledger (exact integers) -------------------
        self.admitted = 0
        self.completed = 0
        self.rejected = 0
        #: requests re-queued at a successor after their gateway died
        #: (they still complete or get rejected — counted separately so
        #: failover accounting is visible, never double-counted)
        self.redirected = 0
        #: flow-table entries shipped to successors by failover sync
        self.flows_synced = 0
        #: (completion time, latency_us, count) for weighted percentiles;
        #: adjacent samples never share (time, latency) — runs coalesce
        self.samples: List[Tuple[float, float, int]] = []
        #: completion counts per epoch start time (goodput timeline)
        self.completions_at: Dict[float, int] = {}
        self._topology_epoch = -1
        self._epoch_index = 0

    @property
    def epochs(self) -> int:
        """Model epochs advanced so far (the fluid analogue of kernel
        events — ``bench/run.py`` reports ``workloads.epochs_per_host_s``
        because a fluid run processes *zero* discrete events)."""
        return self._epoch_index

    # -- derived facts --------------------------------------------------------
    @property
    def modeled_clients(self) -> int:
        return sum(cls.clients for cls in self.classes)

    @property
    def offered_rps(self) -> float:
        return sum(cls.rate_rps for cls in self.classes)

    def inflight(self) -> int:
        return sum(item.count for q in self._hot_q.values() for item in q) \
            + sum(item.count for q in self._cold_q.values() for item in q)

    def conserved(self) -> bool:
        """The ledger invariant: nothing is ever lost or double-counted."""
        return self.admitted == self.completed + self.rejected + self.inflight()

    def hot_ratio(self) -> float:
        c = self.tier.counters()
        total = c["flow_table_hits"] + c["flow_table_punts"]
        return c["flow_table_hits"] / total if total else 0.0

    def goodput_rps(self, t0: float, t1: float) -> float:
        """Completions per second over ``[t0, t1)``."""
        if t1 <= t0:
            return 0.0
        done = sum(count for t, count in self.completions_at.items()
                   if t0 <= t < t1)
        return done * 1e6 / (t1 - t0)

    def percentile(self, p: float, t0: Optional[float] = None,
                   t1: Optional[float] = None) -> float:
        return weighted_percentile(self.samples, p, t0, t1)

    # -- events ---------------------------------------------------------------
    def crash_gateway(self, name: str) -> None:
        """Fail-stop one gateway: ring re-spray + backlog redirect +
        flow-table state sync to each flow's successor."""
        shard = self.tier.shards[name]
        if not shard.healthy:
            return
        moved = self.tier.fail_gateway(name, self.now)
        self.flows_synced += sum(moved.values())
        self._invalidate_owners()
        if not self.tier.live_shards():
            # no survivors: the backlog has nowhere to go — reject it
            # (accounted, not lost)
            for q in (self._hot_q[name], self._cold_q[name]):
                for item in q:
                    self.rejected += item.count
                q.clear()
            return
        # Redirect the dead gateway's backlog along the new ring
        # assignments; inherited work is cold at the successor until
        # the state sync lands.
        for q in (self._hot_q[name], self._cold_q[name]):
            for item in q:
                heir = self.tier.ring.lookup(item.bucket.key)
                self._cold_q[heir].append(item)
                self.redirected += item.count
            q.clear()

    def recover_gateway(self, name: str) -> None:
        self.tier.recover_gateway(name)
        self._invalidate_owners()

    def _invalidate_owners(self) -> None:
        for bucket in self.buckets:
            bucket.owner = None

    # -- the epoch loop -------------------------------------------------------
    def run(self, duration_us: float,
            events: Sequence[Tuple[float, str, str]] = (),
            drain: bool = True) -> "FlowAggregateModel":
        """Advance the model by ``duration_us``.

        ``events`` is a schedule of ``(at_us, kind, gateway)`` with
        kind ``"crash"`` or ``"recover"``, applied at epoch boundaries.
        With ``drain`` (default) arrival-free epochs run afterwards
        until every backlog empties, so the ledger closes exactly.
        """
        schedule = sorted(events)
        pending = list(schedule)
        end = self.now + duration_us
        while self.now < end - 1e-9:
            while pending and pending[0][0] <= self.now + 1e-9:
                _at, kind, target = pending.pop(0)
                if kind == "crash":
                    self.crash_gateway(target)
                elif kind == "recover":
                    self.recover_gateway(target)
                else:
                    raise ValueError(f"unknown event kind {kind!r}")
            self._epoch(arrivals=True)
        if drain:
            self.drain()
        return self

    def drain(self, max_epochs: int = 100_000) -> None:
        """Run arrival-free epochs until the backlog empties."""
        for _ in range(max_epochs):
            if self.inflight() == 0:
                return
            self._epoch(arrivals=False)
        raise RuntimeError("backlog failed to drain (capacity zero?)")

    def _epoch(self, arrivals: bool) -> None:
        now = self.now
        live = [n for n in self.names if self.tier.shards[n].healthy]
        if arrivals:
            self._admit(now, live)
        self._shed(live)
        self._serve(now, live)
        self.now = now + self.epoch_us
        self._epoch_index += 1

    def _admit(self, now: float, live: List[str]) -> None:
        per_epoch = self.epoch_us / 1e6
        for bucket in self.buckets:
            bucket.acc += bucket.rate_rps * per_epoch
            n = int(bucket.acc)
            if n == 0:
                continue
            bucket.acc -= n
            if not live:
                # total outage: arrivals are rejected at the edge
                self.admitted += n
                self.rejected += n
                continue
            if bucket.owner is None or bucket.owner not in self.tier.ring:
                bucket.owner = self.tier.ring.lookup(bucket.key)
            name = bucket.owner
            shard = self.tier.shards[name]
            self.tier.spray_total[name] += n
            self.admitted += n
            shard.absorb_pending(now)
            if shard.table.lookup(bucket.key, count=n):
                self._hot_q[name].append(_QueueItem(n, bucket, now))
            else:
                shard.table.install(bucket.key, bucket.tenant,
                                    size=bucket.flows)
                self._cold_q[name].append(_QueueItem(n, bucket, now))

    def _shed(self, live: List[str]) -> None:
        """Bounded queues: reject the newest overflow (the tail).

        The hot (fast-path) and cold (punt) backlogs are bounded
        separately — a real DPU punt queue is far shallower than the
        fast-path ring, which is what keeps the punt path from
        accumulating unbounded latency.
        """
        for name in live:
            for queue, bound in ((self._hot_q[name], self.max_queue),
                                 (self._cold_q[name], self.max_cold_queue)):
                excess = sum(i.count for i in queue) - bound
                while excess > 0 and queue:
                    tail = queue[-1]
                    shed = min(tail.count, excess)
                    tail.count -= shed
                    self.rejected += shed
                    excess -= shed
                    if tail.count == 0:
                        queue.pop()

    def _serve(self, now: float, live: List[str]) -> None:
        """Serve each backlog FIFO from this epoch's budget.

        A served item whose ``(time, latency)`` equals the last
        sample's adds its count to that sample (exact for weighted
        percentiles), so samples grow with epochs, not buckets.
        """
        per_epoch = self.epoch_us / 1e6
        samples = self.samples
        for name in live:
            for queue, carry, rps, service_us, cold in (
                (self._hot_q[name], self._fast_carry, self.fastpath_rps,
                 self.hot_us, False),
                (self._cold_q[name], self._slow_carry, self.slowpath_rps,
                 self.cold_us, True),
            ):
                budget_f = rps * per_epoch + carry[name]
                budget = int(budget_f)
                carry[name] = budget_f - budget
                done_here = 0
                while budget > 0 and queue:
                    head = queue[0]
                    served = min(head.count, budget)
                    head.count -= served
                    budget -= served
                    done_here += served
                    latency = (now - head.enq_time) + service_us
                    if (samples and samples[-1][0] == now
                            and samples[-1][1] == latency):
                        samples[-1] = (now, latency, samples[-1][2] + served)
                    else:
                        samples.append((now, latency, served))
                    if cold:
                        # the slow path installed the entry; the
                        # bucket is hot from the next epoch on (unless
                        # the tenant quota keeps rejecting it)
                        shard = self.tier.shards[name]
                        shard.table.install(head.bucket.key,
                                            head.bucket.tenant,
                                            size=head.bucket.flows)
                    if head.count == 0:
                        queue.popleft()
                if done_here:
                    self.completed += done_here
                    self.completions_at[now] = (
                        self.completions_at.get(now, 0) + done_here)
