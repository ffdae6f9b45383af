"""Load balancing across multiple Palladium ingress instances.

The paper notes that the brief service interruption during worker
scaling (Fig. 14 (2)) "can be avoided by enabling load balancing
across multiple Palladium ingress instances" (§4.1.3).  This module
implements that extension: an L4-style balancer that spreads external
connections over N independent gateway instances, so a scale event in
one instance only pauses its share of connections.

This is the one balancer over real gateway instances.  The
hierarchical tier in :mod:`repro.ingress.tier` (consistent-hash spray,
hot/cold flow tables, failover state sync) is driven only by the
flow-aggregate model in :mod:`repro.workloads.aggregate`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from ..hw import rss_queue
from ..net import HttpRequest
from ..sim import LatencyStats, RateMeter

from .gateway import ClientConnection
from .palladium import PalladiumIngress

__all__ = ["IngressLoadBalancer"]

#: amortized closed-connection sweep period (in connects)
_PRUNE_EVERY = 256


class IngressLoadBalancer:
    """Connection-level balancer over several gateway instances.

    Exposes the same ``connect``/``submit`` surface as a single
    gateway, so load generators can drive it unchanged.

    An unhealthy gateway's connections fail over to a survivor on
    their next request.  The owner map is bounded: entries are evicted
    when a connection closes (``close`` or the amortized sweep), so
    connection churn cannot grow it without limit.
    """

    def __init__(self, instances: List[PalladiumIngress]):
        if not instances:
            raise ValueError("balancer needs at least one ingress instance")
        self.instances = instances
        self._gateway_label = {id(inst): f"gw{i}"
                               for i, inst in enumerate(instances)}
        #: conn_id -> (owning instance, connection); the connection is
        #: kept so closed entries can be swept without a client call
        self._owner: Dict[int, Tuple[PalladiumIngress, ClientConnection]] = {}
        self._connects = 0
        self.env = instances[0].env
        self.latency = LatencyStats("lb-e2e")
        self.throughput = RateMeter("lb-rps")
        self.failovers = 0
        self.dropped = 0
        #: connections sprayed to each gateway, by its ``gw<i>`` label
        self.sprayed: Dict[str, int] = Counter()
        if self.env.telemetry is not None:
            collect = self.env.telemetry.metrics.collect
            collect("gateway_failovers_total", "Gateway failures absorbed by "
                    "connection re-spray.", (), lambda: {(): self.failovers})
            collect("ingress_tier_spray_total", "L1 spray decisions per gateway.",
                    ("gateway",), lambda: self.sprayed)

    def start(self) -> None:
        for instance in self.instances:
            instance.siblings = list(self.instances)
            instance.start()

    def _live(self) -> List[PalladiumIngress]:
        return [i for i in self.instances if i.healthy]

    def connect(self) -> ClientConnection:
        """Pin a new connection to an instance (stable L4 hashing)."""
        pool = self._live() or self.instances
        conn_probe = ClientConnection(self.env)
        instance = pool[rss_queue(conn_probe.conn_id, len(pool))]
        # Re-register the connection with its owning instance.
        conn = instance.connect()
        self._owner[conn.conn_id] = (instance, conn)
        self.sprayed[self._gateway_label[id(instance)]] += 1
        self._connects += 1
        if self._connects % _PRUNE_EVERY == 0:
            self.prune_closed()
        return conn

    def submit(self, conn: ClientConnection, request: HttpRequest) -> None:
        entry = self._owner.get(conn.conn_id)
        if entry is None:
            # Closed (and swept) or never registered: nothing to route.
            self.dropped += 1
            return
        owner, _conn = entry
        if not owner.healthy:
            # Fail over on first touch.
            live = self._live()
            if not live:
                self.dropped += 1
                return
            owner = live[rss_queue(conn.conn_id, len(live))]
            self._owner[conn.conn_id] = (owner, conn)
            self.failovers += 1
        owner.submit(conn, request)

    # -- owner-map lifecycle --------------------------------------------------
    def close(self, conn: ClientConnection) -> None:
        """Client-initiated teardown: evict the owner entry now."""
        conn.open = False
        self._owner.pop(conn.conn_id, None)

    def prune_closed(self) -> int:
        """Evict entries whose connection has closed; returns count."""
        stale = [cid for cid, (_owner, conn) in self._owner.items()
                 if not conn.open]
        for conn_id in stale:
            del self._owner[conn_id]
        return len(stale)
