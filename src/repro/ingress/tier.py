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
  ECMP decision and ``lookup_bounded`` adds bounded-load overflow (a
  flow whose home gateway is above ``c × mean load`` walks clockwise
  to the first underloaded one).  Removing a gateway moves only the
  flows it owned — the property failover leans on.
* :class:`FlowTable` — one per gateway (L2).  A bounded table of
  pinned *hot* flows served at the DPU fast-path cost; lookups that
  miss are *punts* to the gateway slow path, which installs an entry
  (LRU eviction, per-tenant entry quotas so one tenant cannot
  monopolize the fast path).
* :class:`GatewayTier` — glue: the ring plus per-gateway shards,
  health/failover bookkeeping (ring re-spray + flow-table state sync
  to each flow's successor; misses during the sync window pay the
  cold-punt cost rather than erroring), and the tier metric counters.

The tier is driven by :mod:`repro.workloads.aggregate`'s
flow-aggregate model; over real gateway instances the one balancer is
:class:`~repro.ingress.balancer.IngressLoadBalancer`.  Everything here
is opt-in: nothing in the seed experiments constructs a tier.
"""

from __future__ import annotations

import hashlib
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
    """L1 spray: consistent hashing with virtual nodes + bounded load.

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
    @property
    def members(self) -> List[str]:
        return sorted(self._members)

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
    def _successors(self, flow_key: object) -> Iterable[str]:
        """Distinct gateways clockwise from the flow's hash point."""
        if not self._ring:
            raise RuntimeError("hash ring is empty")
        point = _hash64(flow_key)
        lo, hi = 0, len(self._ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ring[mid][0] < point:
                lo = mid + 1
            else:
                hi = mid
        seen = set()
        for index in range(lo, lo + len(self._ring)):
            name = self._ring[index % len(self._ring)][1]
            if name not in seen:
                seen.add(name)
                yield name

    def lookup(self, flow_key: object) -> str:
        """The flow's home gateway (pure consistent hashing)."""
        return next(iter(self._successors(flow_key)))

    def lookup_bounded(self, flow_key: object, load: Dict[str, float],
                       capacity_factor: float = 1.25) -> str:
        """Bounded-load ECMP: spill past gateways above ``c × mean``.

        With every gateway at or above the bound (uniform overload)
        the home gateway wins — the bound only sheds hot spots.
        """
        members = self._members
        if not members:
            raise RuntimeError("hash ring is empty")
        mean = sum(load.get(n, 0.0) for n in members) / len(members)
        bound = capacity_factor * max(mean, 1.0)
        home = None
        for name in self._successors(flow_key):
            if home is None:
                home = name
            if load.get(name, 0.0) < bound:
                return name
        return home

    def successor(self, flow_key: object, exclude: str) -> Optional[str]:
        """Where a flow lands once ``exclude`` leaves the ring."""
        for name in self._successors(flow_key):
            if name != exclude:
                return name
        return None


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

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, flow_id: object) -> bool:
        return flow_id in self._entries

    @property
    def occupied(self) -> int:
        """Flow slots in use (≤ capacity)."""
        return self._occupied

    def tenant_occupancy(self, tenant: str) -> int:
        return self._per_tenant.get(tenant, 0)

    def lookup(self, flow_id: object, count: int = 1) -> bool:
        """True = hot hit (entry refreshed); False = cold punt.

        ``count`` lets aggregate workloads account a whole epoch's
        requests from one flow bucket in a single call.
        """
        entry = self._entries.get(flow_id)
        if entry is None:
            self.punts += count
            return False
        entry.hits += count
        self._entries.move_to_end(flow_id)
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
        if flow_id in self._entries:
            return True
        if size > self.capacity:
            return False
        quota = self.tenant_quota
        if quota is not None and self._per_tenant.get(tenant, 0) + size > quota:
            self.quota_rejections += 1
            return False
        passes = 0
        while self._occupied + size > self.capacity:
            victim_id, victim = next(iter(self._entries.items()))
            if victim.hits > 0 and passes < len(self._entries):
                # second chance: decay and rotate instead of evicting
                victim.hits = 0
                self._entries.move_to_end(victim_id)
                passes += 1
                continue
            self._remove(victim_id, victim)
            self.evictions += 1
        self._entries[flow_id] = _FlowEntry(tenant, size)
        self._occupied += size
        self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + size
        return True

    def _remove(self, flow_id: object, entry: _FlowEntry) -> None:
        del self._entries[flow_id]
        self._occupied -= entry.size
        remaining = self._per_tenant.get(entry.tenant, 0) - entry.size
        if remaining > 0:
            self._per_tenant[entry.tenant] = remaining
        else:
            self._per_tenant.pop(entry.tenant, None)

    def evict(self, flow_id: object) -> bool:
        """Drop one flow (connection closed / moved away)."""
        entry = self._entries.get(flow_id)
        if entry is None:
            return False
        self._remove(flow_id, entry)
        return True

    def snapshot(self) -> List[Tuple[object, str, int]]:
        """The resident set, LRU-first — what failover state sync ships."""
        return [(fid, e.tenant, e.size) for fid, e in self._entries.items()]


class GatewayShard:
    """One L2 gateway: its flow table, health, and load estimate."""

    def __init__(self, name: str, table: FlowTable, backend=None):
        self.name = name
        self.table = table
        #: the real PalladiumIngress (DES wiring) or a capacity model
        self.backend = backend
        self.healthy = True
        #: state-sync deadline after inheriting flows (absorbed entries
        #: only become hot once the sync completes)
        self.sync_until = 0.0
        #: entries in flight to this shard, installed at ``sync_until``
        self._pending_sync: List[Tuple[object, str, int]] = []

    def load(self) -> float:
        """Outstanding work at the gateway (bounded-load signal)."""
        backend = self.backend
        if backend is not None and hasattr(backend, "load"):
            return float(backend.load())
        return float(self.table.occupied)

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

    Time is passed in explicitly (``now``) so the same object serves
    both the discrete-event wiring and the epoch-driven aggregate
    model.  Metric counters are plain ints; :meth:`publish` exports
    them into a telemetry registry when one is installed.
    """

    def __init__(self, gateway_names: Iterable[str],
                 table_capacity: int = 65_536,
                 tenant_quota: Optional[int] = None,
                 vnodes: int = 64,
                 capacity_factor: float = 1.25,
                 sync_us: float = 2_000.0,
                 backends: Optional[Dict[str, object]] = None):
        names = list(gateway_names)
        if not names:
            raise ValueError("tier needs at least one gateway")
        if len(set(names)) != len(names):
            raise ValueError("duplicate gateway names")
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.shards: Dict[str, GatewayShard] = {}
        backends = backends or {}
        for name in names:
            self.ring.add(name)
            self.shards[name] = GatewayShard(
                name, FlowTable(table_capacity, tenant_quota),
                backend=backends.get(name))
        self.capacity_factor = capacity_factor
        self.sync_us = sync_us
        #: spray decisions per gateway (ingress_tier_spray_total)
        self.spray_total: Dict[str, int] = {n: 0 for n in names}
        self.failovers = 0

    # -- routing --------------------------------------------------------------
    def live_shards(self) -> List[GatewayShard]:
        return [s for s in self.shards.values() if s.healthy]

    def assign(self, flow_key: object, bounded: bool = False) -> GatewayShard:
        """L1 spray: pick the owning gateway for a flow."""
        if bounded:
            load = {n: s.load() for n, s in self.shards.items()
                    if s.healthy}
            name = self.ring.lookup_bounded(flow_key, load,
                                            self.capacity_factor)
        else:
            name = self.ring.lookup(flow_key)
        self.spray_total[name] += 1
        return self.shards[name]

    def classify(self, shard: GatewayShard, flow_id: object, tenant: str,
                 now: float, size: int = 1) -> bool:
        """Hot/cold split at the owning gateway.

        Returns True for a fast-path hit.  A miss is a slow-path punt
        that installs the flow (unless the tenant quota rejects it);
        during a post-failover sync window inherited entries are still
        in flight, so the miss pays the punt cost instead of erroring.
        """
        shard.absorb_pending(now)
        if shard.table.lookup(flow_id):
            return True
        shard.table.install(flow_id, tenant, size)
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

    def publish(self, metrics) -> None:
        """Export the tier counters into a MetricsRegistry (absolute
        counter values; call once per run — purely passive)."""
        spray = metrics.counter(
            "ingress_tier_spray_total",
            "L1 spray decisions per gateway.", labels=("gateway",))
        for name in sorted(self.spray_total):
            child = spray.labels(name)
            child.inc(self.spray_total[name] - child.value)
        totals = self.counters()
        for metric, help_text, key in (
            ("flow_table_hits_total",
             "Fast-path (hot flow) hits across the tier.",
             "flow_table_hits"),
            ("flow_table_punts_total",
             "Slow-path punts (cold/new flows) across the tier.",
             "flow_table_punts"),
            ("flow_table_evictions_total",
             "Flow-table LRU evictions across the tier.",
             "flow_table_evictions"),
            ("gateway_failovers_total",
             "Gateway failures absorbed by ring re-spray.",
             "gateway_failovers"),
        ):
            child = metrics.counter(metric, help_text)
            child.inc(totals[key] - child.value())
