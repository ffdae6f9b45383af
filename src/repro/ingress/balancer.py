"""Load balancing across multiple Palladium ingress instances.

The paper notes that the brief service interruption during worker
scaling (Fig. 14 (2)) "can be avoided by enabling load balancing
across multiple Palladium ingress instances" (§4.1.3).  This module
implements that extension: an L4-style balancer that spreads external
connections over N independent gateway instances, so a scale event in
one instance only pauses its share of connections.

For the full hierarchical tier — consistent-hash spray, hot/cold flow
tables, failover state sync — see :mod:`repro.ingress.tier`; this
class remains the flat connection-spreader the seed experiments use.
"""

from __future__ import annotations

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

    The owner map is bounded: entries are evicted when a connection
    closes (``close`` or the amortized sweep) or when its gateway is
    removed from rotation (``remove_instance``), so connection churn
    cannot grow it without limit.
    """

    def __init__(self, instances: List[PalladiumIngress],
                 health_check_period_us: float = 0.0):
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
        #: with a positive period, a health-check loop ejects unhealthy
        #: instances and moves their connections to survivors (0 = off)
        self.health_check_period_us = health_check_period_us
        self.failovers = 0
        self.dropped = 0

    def start(self) -> None:
        for instance in self.instances:
            instance.siblings = list(self.instances)
            instance.start()
        if self.health_check_period_us > 0:
            self.env.process(self._health_loop(), name="lb-health")

    def _live(self) -> List[PalladiumIngress]:
        return [i for i in self.instances if i.healthy]

    def _count_failover(self) -> None:
        self.failovers += 1
        tel = self.env.telemetry
        if tel is not None:
            tel.metrics.counter(
                "gateway_failovers_total",
                "Gateway failures absorbed by connection re-spray.").inc()

    def _health_loop(self):
        """Periodically eject dead backends, reassigning their
        connections over the survivors (stable hashing)."""
        while True:
            yield self.env.timeout(self.health_check_period_us)
            self.prune_closed()
            live = self._live()
            if len(live) == len(self.instances) or not live:
                continue
            for conn_id, (owner, conn) in list(self._owner.items()):
                if not owner.healthy:
                    heir = live[rss_queue(conn_id, len(live))]
                    self._owner[conn_id] = (heir, conn)
                    self._count_failover()

    def connect(self) -> ClientConnection:
        """Pin a new connection to an instance (stable L4 hashing)."""
        pool = self._live() or self.instances
        conn_probe = ClientConnection(self.env)
        instance = pool[rss_queue(conn_probe.conn_id, len(pool))]
        # Re-register the connection with its owning instance.
        conn = instance.connect()
        self._owner[conn.conn_id] = (instance, conn)
        tel = self.env.telemetry
        if tel is not None:
            tel.metrics.counter(
                "ingress_tier_spray_total",
                "L1 spray decisions per gateway.",
                labels=("gateway",)).labels(
                    self._gateway_label[id(instance)]).inc()
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
            # Between health checks: fail over on first touch.
            live = self._live()
            if not live:
                self.dropped += 1
                return
            owner = live[rss_queue(conn.conn_id, len(live))]
            self._owner[conn.conn_id] = (owner, conn)
            self._count_failover()
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

    def remove_instance(self, instance: PalladiumIngress) -> int:
        """Take a gateway out of rotation, dropping its owner entries.

        Open connections owned by it are re-sprayed over the survivors
        (as a health-check eject would); closed ones are evicted.
        """
        if instance not in self.instances:
            raise ValueError("instance not part of this balancer")
        if len(self.instances) == 1:
            raise ValueError("cannot remove the last ingress instance")
        self.instances = [i for i in self.instances if i is not instance]
        moved = 0
        live = self._live()
        for conn_id, (owner, conn) in list(self._owner.items()):
            if owner is not instance:
                continue
            if conn.open and live:
                heir = live[rss_queue(conn_id, len(live))]
                self._owner[conn_id] = (heir, conn)
                self._count_failover()
            else:
                del self._owner[conn_id]
            moved += 1
        return moved

    # -- aggregate metrics ----------------------------------------------------
    def completed(self) -> int:
        return sum(i.stats.completed for i in self.instances)

    def accepted(self) -> int:
        return sum(i.stats.accepted for i in self.instances)

    def paused_instances(self, now: float) -> int:
        """Instances currently inside a scale-event pause window."""
        count = 0
        for instance in self.instances:
            if any(w._pause_until > now for w in instance.workers):
                count += 1
        return count
