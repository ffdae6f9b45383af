"""Traditional HTTP/TCP cluster ingresses: K-Ingress and F-Ingress.

Both are NGINX-style reverse proxies implementing the *deferred*
transport conversion of Fig. 4 (1): they terminate the client's TCP,
then open/reuse TCP toward the worker node, where a
:class:`~repro.ingress.adapter.TcpWorkerAdapter` terminates TCP *again*
before the payload reaches the function.

* **K-Ingress** uses the interrupt-driven kernel TCP/IP stack on a
  bounded set of shared cores; under overload its IRQ load snowballs
  (receive livelock) — the collapse in Fig. 13/14.
* **F-Ingress** integrates DPDK F-stack: worker processes pinned to
  cores with busy-polling loops, in the same
  :class:`~repro.ingress.gateway.WorkerPool` as Palladium's gateway, so
  they autoscale with its hysteresis policy when ``max_workers``
  exceeds ``cores`` (§4.1.3 "we adapt our autoscaler to support the
  F-Ingress").
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..config import CostModel
from ..hw import Cluster, CorePool
from ..net import FStack, HttpProcessor, HttpRequest, HttpResponse, KernelTcpStack
from ..sim import Environment, LatencyStats, RateMeter

from .adapter import TcpWorkerAdapter
from .gateway import ClientConnection, GatewayStats, GatewayWorker, WorkerPool

__all__ = ["ProxyIngress", "KIngress", "FIngress"]

#: resolver: HTTP path -> (tenant, entry function)
EntryResolver = Callable[[str], Tuple[str, str]]

#: TCP/IP framing overhead on the proxied intra-cluster hop
TCP_FRAME_OVERHEAD = 66


class ProxyIngress:
    """Common NGINX-proxy machinery; see :class:`KIngress`/:class:`FIngress`."""

    KERNEL = "kernel"
    FSTACK = "fstack"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        cost: CostModel,
        resolver: EntryResolver,
        adapters: Dict[str, TcpWorkerAdapter],
        entry_node: Callable[[str], str],
        mode: str,
        cores: int = 1,
        max_workers: Optional[int] = None,
        stats_bucket_us: float = 1_000_000.0,
    ):
        if mode not in (self.KERNEL, self.FSTACK):
            raise ValueError(f"unknown ingress mode {mode!r}")
        self.env = env
        self.cluster = cluster
        self.cost = cost
        self.resolver = resolver
        self.adapters = adapters
        self.entry_node = entry_node
        self.mode = mode
        self.node = cluster.ingress_node
        self.stats = GatewayStats()
        self.latency = LatencyStats(f"{mode}-ingress-e2e")
        self.throughput = RateMeter(f"{mode}-ingress-rps", bucket=stats_bucket_us)
        self._running = False

        if mode == self.KERNEL:
            #: bounded shared cores for the kernel stack + nginx workers
            self.cpu = CorePool(env, cores, name="ingress-kernel")
            self.stack = KernelTcpStack(env, self.cpu, cost, name="ingress-ktcp")
            self.http = HttpProcessor(self.cpu, cost)
            self.pool: Optional[WorkerPool] = None
        else:
            self.cpu = None
            self.pool = WorkerPool(env, cost, self.node.cpu, "f-ingress",
                                   self._fstack_worker_loop, cores,
                                   max_workers)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("ingress already started")
        self._running = True
        if self.pool is not None:
            self.pool.start()
            if self.pool.autoscaler is not None:
                self.pool.autoscaler.start()
        for adapter in self.adapters.values():
            adapter.start()

    # -- client-facing API ------------------------------------------------------
    def connect(self) -> ClientConnection:
        conn = ClientConnection(self.env)
        if self.mode == self.FSTACK:
            worker = self.pool.pick(conn.conn_id)
            worker.inbox.put_nowait(("handshake", conn))
        else:
            self.env.process(self.stack.handshake(), name="ingress-hs")
        return conn

    def submit(self, conn: ClientConnection, request: HttpRequest) -> None:
        request.connection_id = conn.conn_id
        self.stats.accepted += 1
        tel = self.env.telemetry
        if tel is not None:
            tel.metrics.counter(
                "ingress_requests_total", "HTTP requests accepted at the "
                "ingress.", labels=("tenant",)).labels(
                    self.resolver(request.path)[0]).inc()
        if self.mode == self.FSTACK:
            worker = self.pool.pick(conn.conn_id)
            worker.inbox.put_nowait(("request", (conn, request)))
        else:
            self.env.process(
                self._kernel_handle(conn, request), name="ingress-req"
            )

    # -- kernel (interrupt-driven) path ----------------------------------------------
    def _kernel_handle(self, conn: ClientConnection, request: HttpRequest):
        t0 = self.env.now
        yield from self.stack.rx(request.wire_bytes)
        yield from self.http.parse(request.wire_bytes)
        yield self.cpu.run(("protocol", self.cost.proxy_overhead_us))
        yield from self.stack.tx(request.wire_bytes + TCP_FRAME_OVERHEAD)
        self._proxy_to_worker(conn, request, t0)

    # -- F-stack (pinned worker) path ----------------------------------------------------
    def _fstack_worker_loop(self, worker: GatewayWorker):
        fstack = FStack(self.env, worker.core, self.cost, name=f"{worker.name}-fstack")
        http = HttpProcessor(worker.core, self.cost)
        while True:
            event = yield worker.inbox.get()
            yield from worker.maybe_pause()
            kind, payload = event
            if kind == "shutdown":
                worker.core.unpin()
                break
            if kind == "handshake":
                yield from fstack.handshake()
            elif kind == "request":
                conn, request = payload
                t0 = self.env.now
                yield from fstack.rx(request.wire_bytes)
                yield from http.parse(request.wire_bytes)
                yield worker.core.run(
                    ("protocol", self.cost.proxy_overhead_us))
                yield from fstack.tx(request.wire_bytes + TCP_FRAME_OVERHEAD)
                self._proxy_to_worker(conn, request, t0)
            elif kind == "respond":
                conn, response, t0, tenant = payload
                yield from fstack.rx(response.wire_bytes)
                yield from http.parse(response.wire_bytes)
                yield worker.core.run(
                    ("protocol", self.cost.proxy_overhead_us))
                yield from fstack.tx(response.wire_bytes)
                self._finish(conn, response, t0, tenant)

    # -- shared proxy plumbing ---------------------------------------------------------------
    def _proxy_to_worker(self, conn: ClientConnection, request: HttpRequest, t0: float) -> None:
        """Hand the proxied request to the intra-cluster wire (async)."""
        tenant, entry_fn = self.resolver(request.path)
        node_name = self.entry_node(entry_fn)
        adapter = self.adapters[node_name]
        link = self.cluster.fabric_link(self.node.name, node_name)
        ctx = (conn, request, t0)

        def _transit():
            yield from link.transmit(request.wire_bytes + TCP_FRAME_OVERHEAD)
            adapter.deliver_request(request, tenant, entry_fn, ctx,
                                    self._response_from_worker)

        self.env.process(_transit(), name="proxy-uplink")

    def _response_from_worker(self, ctx, body, length):
        """Generator (spawned by the adapter): relay a response to the client."""
        conn, request, t0 = ctx
        tenant, entry_fn = self.resolver(request.path)
        node_name = self.entry_node(entry_fn)
        link = self.cluster.fabric_link(node_name, self.node.name)
        response = HttpResponse(status=200, body=body, body_bytes=length,
                                request_id=request.request_id)
        yield from link.transmit(response.wire_bytes + TCP_FRAME_OVERHEAD)
        if self.mode == self.KERNEL:
            yield from self.stack.rx(response.wire_bytes)
            yield from self.http.parse(response.wire_bytes)
            yield self.cpu.run(("protocol", self.cost.proxy_overhead_us))
            yield from self.stack.tx(response.wire_bytes)
            self._finish(conn, response, t0, tenant)
        else:
            worker = self.pool.pick(conn.conn_id)
            worker.inbox.put_nowait(("respond", (conn, response, t0, tenant)))

    def _finish(self, conn: ClientConnection, response: HttpResponse,
                t0: float, tenant: str = "") -> None:
        """Ethernet transit back to the client (async to the loop)."""
        def _transit():
            yield from self.cluster.ether_down.transmit(response.wire_bytes)
            if conn.open:
                conn.inbox.put_nowait(response)
                conn.responses_received += 1
            self.stats.completed += 1
            self.latency.record(self.env.now - t0)
            self.throughput.record(self.env.now)
            tel = self.env.telemetry
            if tel is not None:
                tel.metrics.counter(
                    "ingress_responses_total", "Responses delivered to "
                    "clients.", labels=("tenant",)).labels(tenant).inc()
                tel.metrics.histogram(
                    "ingress_latency_us", "End-to-end request latency at "
                    "the ingress.", labels=("tenant",)).labels(
                        tenant).observe(self.env.now - t0)

        self.env.process(_transit(), name="proxy-ether-tx")


def KIngress(env, cluster, cost, resolver, adapters, entry_node,
             cores: int = 1, **kwargs) -> ProxyIngress:
    """The kernel-stack NGINX ingress of §4.1.3."""
    return ProxyIngress(env, cluster, cost, resolver, adapters, entry_node,
                        mode=ProxyIngress.KERNEL, cores=cores, **kwargs)


def FIngress(env, cluster, cost, resolver, adapters, entry_node,
             cores: int = 1, **kwargs) -> ProxyIngress:
    """The F-stack NGINX ingress of §4.1.3."""
    return ProxyIngress(env, cluster, cost, resolver, adapters, entry_node,
                        mode=ProxyIngress.FSTACK, cores=cores, **kwargs)
