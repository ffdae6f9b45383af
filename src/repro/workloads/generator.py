"""Load generation: wrk-style closed-loop HTTP clients and direct drivers.

The paper loads the system with ``wrk`` (§4): closed-loop connections
that keep exactly one request outstanding each.  :class:`ClientFleet`
reproduces that, including Fig. 14's ramp mode (a new client every 10
seconds, each client holding several connections) and disconnect-on-
timeout behaviour under overload ("most of the clients becoming
disconnected due to the lack of a response").

:class:`DirectDriver` skips HTTP entirely and drives a deployed
function pair through the platform API — used by the microbenchmarks
(Fig. 11, Fig. 15) that measure the data plane without the ingress.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..hw import Cluster
from ..net import HttpRequest
from ..sim import Environment, LatencyStats, RateMeter

__all__ = ["ClosedLoopClient", "ClientFleet", "DirectDriver", "OpenLoopSource"]


class ClosedLoopClient:
    """One wrk connection: send, wait for the response, repeat."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        gateway,
        path: str = "/",
        body_bytes: int = 256,
        think_us: float = 0.0,
        timeout_us: Optional[float] = None,
        payload: Any = "x",
        name: str = "client",
        reconnect: bool = False,
        reconnect_us: float = 10_000.0,
    ):
        self.env = env
        self.cluster = cluster
        self.gateway = gateway
        self.path = path
        self.body_bytes = body_bytes
        self.think_us = think_us
        self.timeout_us = timeout_us
        self.payload = payload
        self.name = name
        #: instead of wrk's permanent disconnect on timeout, tear the
        #: connection down and dial again after ``reconnect_us`` —
        #: needed to observe goodput *recovery* after a fault clears.
        self.reconnect = reconnect
        self.reconnect_us = reconnect_us
        self.latency = LatencyStats(name)
        self.completed = 0
        self.errors = 0
        #: non-200 responses (the gateway's QoS admission gate shed us)
        self.rejected = 0
        self.reconnects = 0
        self.disconnected = False

    def run(self, throughput: RateMeter):
        """Generator: the closed request loop.

        Each completed request is recorded in this client's ``latency``
        and in ``throughput`` (the fleet's shared meter).
        """
        conn = self.gateway.connect()
        while not self.disconnected:
            request = HttpRequest(self.path, body=self.payload,
                                  body_bytes=self.body_bytes)
            t0 = self.env.now
            yield from self.cluster.ether_up.transmit(request.wire_bytes)
            self.gateway.submit(conn, request)
            response_event = conn.inbox.get()
            if self.timeout_us is None:
                response = yield response_event
            else:
                yield from self.env.within(response_event, self.timeout_us)
                if not response_event.triggered:
                    self.errors += 1
                    conn.open = False
                    if not self.reconnect:
                        # wrk gives up on the connection: disconnect.
                        self.disconnected = True
                        break
                    # Tear down and dial again after a pause.
                    yield self.env.timeout(self.reconnect_us)
                    conn = self.gateway.connect()
                    self.reconnects += 1
                    continue
                response = response_event.value
            if getattr(response, "status", 200) != 200:
                # Shed at the gate (503): immediately retry, like wrk —
                # a rejection is not a completion and records no latency.
                self.rejected += 1
                continue
            self.latency.record(self.env.now - t0)
            self.completed += 1
            throughput.record(self.env.now)
            if self.think_us:
                yield self.env.timeout(self.think_us)
        conn.open = False


class ClientFleet:
    """A set of closed-loop clients, optionally ramped over time."""

    def __init__(self, env: Environment, cluster: Cluster, gateway,
                 stats_bucket_us: float = 1_000_000.0, **client_kwargs):
        self.env = env
        self.cluster = cluster
        self.gateway = gateway
        self.client_kwargs = client_kwargs
        self.clients: List[ClosedLoopClient] = []
        self.throughput = RateMeter("fleet-rps", bucket=stats_bucket_us)

    def spawn(self, count: int = 1, connections_per_client: int = 1) -> None:
        """Start ``count`` clients, each with several connections."""
        for _ in range(count):
            for _ in range(connections_per_client):
                client = ClosedLoopClient(
                    self.env, self.cluster, self.gateway,
                    name=f"client{len(self.clients)}", **self.client_kwargs,
                )
                self.clients.append(client)
                self.env.process(client.run(self.throughput),
                                 name=client.name)

    def ramp(self, interval_us: float, clients_per_step: int = 1,
             connections_per_client: int = 1, steps: int = 10):
        """Generator: add clients periodically (the Fig. 14 ramp)."""
        for _ in range(steps):
            self.spawn(clients_per_step, connections_per_client)
            yield self.env.timeout(interval_us)

    # -- aggregate metrics ---------------------------------------------------
    def total_completed(self) -> int:
        return sum(c.completed for c in self.clients)

    def total_errors(self) -> int:
        return sum(c.errors for c in self.clients)

    def disconnected_count(self) -> int:
        return sum(1 for c in self.clients if c.disconnected)

    def mean_latency_us(self) -> float:
        samples = [s for c in self.clients for s in c.latency.samples]
        return sum(samples) / len(samples) if samples else 0.0

    def rps(self, start_us: float, end_us: float) -> float:
        """Aggregate completions per *second* over a window."""
        return self.throughput.rate(start_us, end_us) * 1_000_000.0


class OpenLoopSource:
    """Open-loop (Poisson) request source against a gateway.

    Unlike the closed-loop wrk clients, an open-loop source keeps
    offering load regardless of completions — the arrival pattern that
    exposes overload collapse (requests pile up instead of the source
    self-throttling).  Used for bursty-tenant and overload studies.
    """

    def __init__(self, env: Environment, cluster: Cluster, gateway,
                 rate_rps: float, path: str = "/", body_bytes: int = 256,
                 payload: Any = "x", rng=None, name: str = "open-source",
                 stats_bucket_us: float = 1_000_000.0,
                 deadline_us: Optional[float] = None):
        if rate_rps <= 0:
            raise ValueError("arrival rate must be positive")
        self.env = env
        self.cluster = cluster
        self.gateway = gateway
        self.rate_rps = rate_rps
        self.path = path
        self.body_bytes = body_bytes
        self.payload = payload
        self.rng = rng
        self.name = name
        #: SLO used to classify completions: a 200 after the deadline
        #: is *late* (not goodput) — the distinction overload studies
        #: are about
        self.deadline_us = deadline_us
        self.latency = LatencyStats(name)
        self.throughput = RateMeter(name, bucket=stats_bucket_us)
        self.goodput = RateMeter(f"{name}-good", bucket=stats_bucket_us)
        self.offered = 0
        self.completed = 0
        #: in-deadline 200s / deadline-missing 200s / non-200 sheds
        self.good = 0
        self.late = 0
        self.rejected = 0
        self._t0: dict = {}
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    def _interarrival_us(self) -> float:
        mean = 1e6 / self.rate_rps
        if self.rng is None:
            return mean  # deterministic arrivals
        return self.rng.expovariate(1.0 / mean)

    def run(self, until_us: Optional[float] = None):
        """Generator: emit requests at the configured rate.

        Emission is open-loop: the Ethernet transit of each request is
        spawned asynchronously, so the arrival process never slows down
        with the system (that is the point of open-loop load).
        """
        conn = self.gateway.connect()
        self.env.process(self._collector(conn), name=f"{self.name}-rx")
        while not self._stop:
            if until_us is not None and self.env.now >= until_us:
                break
            yield self.env.timeout(self._interarrival_us())
            request = HttpRequest(self.path, body=self.payload,
                                  body_bytes=self.body_bytes)
            request.headers["t0"] = self.env.now
            self._t0[request.request_id] = self.env.now
            self.offered += 1
            self.env.process(self._emit(conn, request),
                             name=f"{self.name}-tx")
        conn.open = False

    def _emit(self, conn, request):
        yield from self.cluster.ether_up.transmit(request.wire_bytes)
        self.gateway.submit(conn, request)

    def _collector(self, conn):
        while not self._stop:
            response = yield conn.inbox.get()
            self.completed += 1
            self.throughput.record(self.env.now)
            t0 = self._t0.pop(getattr(response, "request_id", None), None)
            if getattr(response, "status", 200) != 200:
                self.rejected += 1
                continue
            latency = None if t0 is None else self.env.now - t0
            if latency is not None:
                self.latency.record(latency)
            if (self.deadline_us is not None and latency is not None
                    and latency > self.deadline_us):
                self.late += 1
                continue
            self.good += 1
            self.goodput.record(self.env.now)

    # -- aggregate metrics ---------------------------------------------------
    def lost(self) -> int:
        """Requests that never produced any response (dropped in-flight)."""
        return len(self._t0)

    def goodput_rps(self, start_us: float, end_us: float) -> float:
        """In-deadline completions per *second* over a window."""
        return self.goodput.rate(start_us, end_us) * 1_000_000.0


class DirectDriver:
    """Closed-loop driver invoking a function pair without an ingress."""

    def __init__(self, env: Environment, client_fn, dst_fn: str,
                 payload: Any = "ping", size: int = 64, name: str = "driver",
                 stats_bucket_us: float = 1_000_000.0):
        self.env = env
        self.client_fn = client_fn
        self.dst_fn = dst_fn
        self.payload = payload
        self.size = size
        self.name = name
        self.latency = LatencyStats(name)
        self.throughput = RateMeter(name, bucket=stats_bucket_us)
        self.completed = 0
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    def run(self, max_requests: Optional[int] = None, until_us: Optional[float] = None):
        """Generator: closed-loop invoke of ``dst_fn`` via ``client_fn``."""
        while not self._stop:
            if max_requests is not None and self.completed >= max_requests:
                break
            if until_us is not None and self.env.now >= until_us:
                break
            t0 = self.env.now
            yield from self.client_fn.invoke(self.dst_fn, self.payload, self.size)
            self.latency.record(self.env.now - t0)
            self.throughput.record(self.env.now)
            self.completed += 1
