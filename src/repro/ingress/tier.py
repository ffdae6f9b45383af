"""Hierarchical multi-gateway ingress tier (extension).

The paper observes that scale-event interruptions "can be avoided by
enabling load balancing across multiple Palladium ingress instances"
(§4.1.3) but stops at a single gateway.  Gryphon (arXiv 2510.11043)
shows how hyperscale multi-tenant gateways get past one box: a
*hierarchical* tier with hot/cold flow splitting, the hot flows pinned
on DPU fast paths and the cold ones punted to slower gateway cores.

This module is that tier, as three composable layers:

* :class:`ConsistentHashRing` — the L1 spray layer.  Flows map onto N
  gateways through a virtual-node hash ring; ``lookup`` is the stable
  ECMP decision.  Removing a gateway moves only the flows it owned —
  the property failover leans on.
* :class:`FlowTable` — one per gateway (L2).  A bounded table of
  pinned *hot* flows served at the DPU fast-path cost; lookups that
  miss are *punts* to the gateway slow path, which installs an entry
  (LRU eviction, per-tenant entry quotas so one tenant cannot
  monopolize the fast path).
* :class:`GatewayTier` — glue: the ring plus per-gateway shards, the
  hot/cold split (``classify``), health/failover bookkeeping (ring
  re-spray + flow-table state sync to each flow's successor; misses
  during the sync window pay the cold-punt cost rather than
  erroring), and the tier metric counters.

The tier is driven by :mod:`repro.workloads.aggregate`'s
flow-aggregate model; over real gateway instances the one balancer is
:class:`~repro.ingress.balancer.IngressLoadBalancer`.  Everything here
is opt-in: nothing in the seed experiments constructs a tier.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ConsistentHashRing",
    "FlowTable",
    "GatewayShard",
    "GatewayTier",
]


def _hash64(key: object) -> int:
    """Stable 64-bit hash (process-independent, unlike ``hash``)."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """L1 spray: consistent hashing with virtual nodes.

    ``vnodes`` virtual points per gateway keep the split even; the
    classic guarantee holds: adding/removing a gateway only remaps the
    flows that gateway owned (every other flow keeps its first
    clockwise virtual node).
    """

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        #: sorted (point, gateway) pairs — the ring itself
        self._ring: List[Tuple[int, str]] = []
        self._members: Dict[str, List[int]] = {}

    # -- membership -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def add(self, name: str) -> None:
        if name in self._members:
            raise ValueError(f"gateway {name!r} already on the ring")
        points = [_hash64((name, i)) for i in range(self.vnodes)]
        self._members[name] = points
        self._ring.extend((p, name) for p in points)
        self._ring.sort()

    def remove(self, name: str) -> None:
        if name not in self._members:
            raise KeyError(f"gateway {name!r} not on the ring")
        del self._members[name]
        self._ring = [(p, n) for p, n in self._ring if n != name]

    # -- lookups --------------------------------------------------------------
    def lookup(self, flow_key: object) -> str:
        """The flow's home gateway: the first virtual node clockwise."""
        if not self._ring:
            raise RuntimeError("hash ring is empty")
        index = bisect_left(self._ring, (_hash64(flow_key),))
        return self._ring[index % len(self._ring)][1]


class _FlowEntry:
    __slots__ = ("tenant", "size", "hits")

    def __init__(self, tenant: str, size: int):
        self.tenant = tenant
        #: modeled flows behind this entry (1 for a real connection,
        #: the bucket's flow count for aggregate workloads)
        self.size = size
        self.hits = 0


class FlowTable:
    """Bounded hot-flow table with LRU eviction and tenant quotas.

    ``capacity`` and ``tenant_quota`` are counted in *flows*, so an
    aggregate bucket standing for 4 000 clients occupies 4 000 slots —
    the table models finite DPU match-table SRAM, not Python dict
    slots.
    """

    def __init__(self, capacity: int, tenant_quota: Optional[int] = None):
        if capacity < 1:
            raise ValueError("flow table capacity must be >= 1")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant quota must be >= 1 when set")
        self.capacity = capacity
        self.tenant_quota = tenant_quota
        self._entries: "OrderedDict[object, _FlowEntry]" = OrderedDict()
        self._occupied = 0
        self._per_tenant: Dict[str, int] = {}
        self.hits = 0
        self.punts = 0
        self.evictions = 0
        self.quota_rejections = 0

    def lookup(self, flow_id: object, count: int = 1) -> bool:
        """True = hot hit (entry refreshed); False = cold punt.

        ``count`` lets aggregate workloads account a whole epoch's
        requests from one flow bucket in a single call.
        """
        entries = self._entries
        entry = entries.get(flow_id)
        if entry is None:
            self.punts += count
            return False
        entry.hits += count
        entries.move_to_end(flow_id)
        self.hits += count
        return True

    def install(self, flow_id: object, tenant: str, size: int = 1) -> bool:
        """Pin a flow on the fast path after its slow-path punt.

        Returns False when the tenant's quota is exhausted (the flow
        stays cold and keeps punting — that is the isolation).  A full
        table makes room with clock (second-chance) eviction: the LRU
        entry is only evicted once its reference count has decayed, so
        a burst of cold installs cannot flush the hot set.
        """
        entries = self._entries
        if flow_id in entries:
            return True
        capacity = self.capacity
        if size > capacity:
            return False
        per_tenant = self._per_tenant
        quota = self.tenant_quota
        if quota is not None and per_tenant.get(tenant, 0) + size > quota:
            self.quota_rejections += 1
            return False
        entry = None
        passes = 0
        while self._occupied + size > capacity:
            # popping the LRU entry and re-inserting it is move_to_end,
            # so the bound counts the victim as still resident
            victim_id, victim = entries.popitem(last=False)
            if victim.hits > 0 and passes <= len(entries):
                # second chance: decay and rotate instead of evicting
                victim.hits = 0
                entries[victim_id] = victim
                passes += 1
                continue
            self._release(victim)
            self.evictions += 1
            entry = victim
        if entry is None:
            entry = _FlowEntry(tenant, size)
        else:
            # reuse the evicted slot object for the new flow
            entry.tenant = tenant
            entry.size = size
            entry.hits = 0
        entries[flow_id] = entry
        self._occupied += size
        per_tenant[tenant] = per_tenant.get(tenant, 0) + size
        return True

    def _release(self, entry: _FlowEntry) -> None:
        """Return an entry's slots (it has left ``_entries``)."""
        self._occupied -= entry.size
        remaining = self._per_tenant.get(entry.tenant, 0) - entry.size
        if remaining > 0:
            self._per_tenant[entry.tenant] = remaining
        else:
            self._per_tenant.pop(entry.tenant, None)

    def evict(self, flow_id: object) -> bool:
        """Drop one flow (connection closed / moved away)."""
        entry = self._entries.pop(flow_id, None)
        if entry is None:
            return False
        self._release(entry)
        return True

    def snapshot(self) -> List[Tuple[object, str, int]]:
        """The resident set, LRU-first — what failover state sync ships."""
        return [(fid, e.tenant, e.size) for fid, e in self._entries.items()]


class GatewayShard:
    """One L2 gateway: its flow table and health."""

    def __init__(self, name: str, table: FlowTable):
        self.name = name
        self.table = table
        self.healthy = True
        #: state-sync deadline after inheriting flows (absorbed entries
        #: only become hot once the sync completes)
        self.sync_until = 0.0
        #: entries in flight to this shard, installed at ``sync_until``
        self._pending_sync: List[Tuple[object, str, int]] = []

    def absorb_pending(self, now: float) -> int:
        """Install synced entries once the sync window has elapsed."""
        if not self._pending_sync or now < self.sync_until:
            return 0
        installed = 0
        for flow_id, tenant, size in self._pending_sync:
            if self.table.install(flow_id, tenant, size):
                installed += 1
        self._pending_sync = []
        return installed


class GatewayTier:
    """The assembled tier: ring + shards + failover + metrics.

    Time is passed in (``now``) by the caller, the
    epoch-driven aggregate model.  Metric counters are plain ints,
    read through :meth:`counters`.
    """

    def __init__(self, gateway_names: Iterable[str],
                 table_capacity: int = 65_536,
                 tenant_quota: Optional[int] = None,
                 vnodes: int = 64,
                 sync_us: float = 2_000.0):
        names = list(gateway_names)
        if not names:
            raise ValueError("tier needs at least one gateway")
        if len(set(names)) != len(names):
            raise ValueError("duplicate gateway names")
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.shards: Dict[str, GatewayShard] = {}
        for name in names:
            self.ring.add(name)
            self.shards[name] = GatewayShard(
                name, FlowTable(table_capacity, tenant_quota))
        self.sync_us = sync_us
        #: spray decisions per gateway, counted by the caller
        self.spray_total: Dict[str, int] = {n: 0 for n in names}
        self.failovers = 0

    # -- routing --------------------------------------------------------------
    def live_shards(self) -> List[GatewayShard]:
        return [s for s in self.shards.values() if s.healthy]

    def classify(self, shard: GatewayShard, flow_id: object, tenant: str,
                 now: float, size: int = 1, count: int = 1) -> bool:
        """Hot/cold split at the owning gateway.

        Returns True for a fast-path hit.  A miss is a slow-path punt
        that installs the flow (unless the tenant quota rejects it);
        during a post-failover sync window inherited entries are still
        in flight, so the miss pays the punt cost instead of erroring.
        ``count`` accounts that many requests of the flow at once.
        """
        if shard._pending_sync:
            shard.absorb_pending(now)
        table = shard.table
        if table.lookup(flow_id, count):
            return True
        table.install(flow_id, tenant, size)
        return False

    # -- failure / recovery ---------------------------------------------------
    def fail_gateway(self, name: str, now: float) -> Dict[str, int]:
        """Gateway loss: ring re-spray + flow-table sync to successors.

        Every resident entry of the failed gateway is shipped to the
        flow's *new* home; the entries install only after ``sync_us``,
        so lookups in the window punt (cold) rather than erroring.
        Returns entries-moved per successor (for tests/metrics).
        """
        shard = self.shards[name]
        if not shard.healthy:
            return {}
        shard.healthy = False
        if name in self.ring:
            self.ring.remove(name)
        moved: Dict[str, int] = {}
        if len(self.ring) > 0:
            for flow_id, tenant, size in shard.table.snapshot():
                heir_name = self.ring.lookup(flow_id)
                heir = self.shards[heir_name]
                heir.sync_until = max(heir.sync_until, now + self.sync_us)
                heir._pending_sync.append((flow_id, tenant, size))
                moved[heir_name] = moved.get(heir_name, 0) + 1
        # the dead table is gone with the gateway
        for flow_id, _tenant, _size in shard.table.snapshot():
            shard.table.evict(flow_id)
        self.failovers += 1
        return moved

    def recover_gateway(self, name: str) -> None:
        """A restarted gateway rejoins the ring with an empty table."""
        shard = self.shards[name]
        if shard.healthy:
            return
        shard.healthy = True
        if name not in self.ring:
            self.ring.add(name)

    # -- metrics --------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        tables = [s.table for s in self.shards.values()]
        return {
            "sprays": sum(self.spray_total.values()),
            "flow_table_hits": sum(t.hits for t in tables),
            "flow_table_punts": sum(t.punts for t in tables),
            "flow_table_evictions": sum(t.evictions for t in tables),
            "flow_table_quota_rejections": sum(t.quota_rejections
                                               for t in tables),
            "gateway_failovers": self.failovers,
        }
