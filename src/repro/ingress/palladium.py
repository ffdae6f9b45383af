"""Palladium's HTTP/TCP-to-RDMA cluster ingress gateway (§3.6, Fig. 10).

The gateway terminates external HTTP/TCP at the cluster edge and moves
only the payload onward over the RDMA fabric — the "early transport
conversion" that removes every software protocol stack from the worker
nodes (Fig. 4 (2)).

Architecture mirrors the paper: a master process handling control
(configuration, horizontal scaling) and N worker processes, each pinned
to a CPU core, each running a batched run-to-completion event loop over
F-stack RX, NGINX-grade HTTP processing, and RDMA send/receive.
External connections are spread over workers with RSS.

The ingress node carries no DPU: its standalone ConnectX-6 talks to the
worker DNEs as an ordinary fabric peer, with its own per-tenant buffer
pools posted to shared receive queues for response traffic.  Its CQ
feeds a sink (``Store.set_sink``) that hands each response to the
owning worker's inbox at the put, with no dispatcher process.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..config import CostModel
from ..dataplane import KIND_REQUEST, VIA_ENGINE, Message
from ..dne.routing import InterNodeRoutes, RouteError
from ..hw import Cluster
from ..memory import MemoryPool, PoolExhausted
from ..net import FStack, HttpProcessor, HttpRequest, HttpResponse
from ..rdma import ConnectionManager, Opcode, RdmaFabric, WorkRequest
from ..sim import Environment, LatencyStats, RateMeter

from .gateway import ClientConnection, GatewayStats, GatewayWorker, WorkerPool

__all__ = ["PalladiumIngress"]


def _next_rid(env) -> int:
    # Request ids can seed the RSS fallback hash in the CQ's sink, so
    # like connection ids they are scoped per-environment.
    n = getattr(env, "_pal_rid_seq", 1_000_000) + 1
    env._pal_rid_seq = n
    return n

#: resolver: HTTP path -> (tenant, entry function, request body bytes ok)
EntryResolver = Callable[[str], Tuple[str, str]]


class PalladiumIngress:
    """The HTTP/TCP-to-RDMA converting gateway."""

    AGENT = "_ingress"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        fabric: RdmaFabric,
        cost: CostModel,
        resolver: EntryResolver,
        min_workers: int = 1,
        max_workers: Optional[int] = None,
        recv_buffers: int = 128,
        stats_bucket_us: float = 1_000_000.0,
        service_resolver=None,
        qos=None,
    ):
        #: optional :class:`repro.qos.IngressQos` — admission control +
        #: credit-based backpressure at the edge; ``None`` (default)
        #: keeps the request path byte-identical to the pre-QoS gateway
        self.qos = qos
        #: optional logical-service -> replica resolution (elastic
        #: platforms); identity when not provided
        self.service_resolver = service_resolver or (lambda fn: fn)
        self.env = env
        self.cluster = cluster
        self.fabric = fabric
        self.cost = cost
        self.resolver = resolver
        self.node = cluster.ingress_node
        self.rnic = fabric.install_rnic(self.node.name)
        self.conn_mgr = ConnectionManager(env, fabric, self.node.name, cost)
        self.routes = InterNodeRoutes(self.node.name)
        self.recv_buffers = recv_buffers

        self.pools: Dict[str, MemoryPool] = {}
        self.pool = WorkerPool(env, cost, self.node.cpu, "ingress",
                               self._worker_loop, min_workers, max_workers)
        self.stats = GatewayStats()
        if env.telemetry is not None:
            env.telemetry.metrics.collect(
                "ingress_dropped_total", "Requests the ingress could not serve.",
                ("reason",), self.stats.drops.items)
        self.latency = LatencyStats("ingress-e2e")
        self.throughput = RateMeter("ingress-rps", bucket=stats_bucket_us)
        #: rid -> (connection, worker, request, accept time, span)
        self._pending: Dict[int, Tuple[ClientConnection, GatewayWorker, HttpRequest, float, object]] = {}
        self._running = False
        #: other gateway instances sharing this node's RNIC (multi-
        #: instance deployments behind a load balancer); completions are
        #: routed to whichever instance owns the request id.
        self.siblings: List["PalladiumIngress"] = [self]
        #: health flag polled by the load balancer's check loop
        self.healthy = True

    # -- fault injection --------------------------------------------------------
    def fail(self) -> None:
        """Fault injection: this gateway instance stops serving."""
        self.healthy = False

    def recover(self) -> None:
        self.healthy = True

    # -- setup ----------------------------------------------------------------
    def add_tenant(self, tenant: str, buffers: int = 256, buffer_bytes: int = 8192) -> None:
        """Create the gateway's pool for a tenant and register it."""
        if tenant in self.pools:
            raise ValueError(f"tenant {tenant!r} already added to ingress")
        pool = MemoryPool(self.env, tenant, buffers, buffer_bytes,
                          name=f"pool:ingress:{tenant}")
        self.pools[tenant] = pool
        self.rnic.register_pool(pool)

    def start(self) -> None:
        """Bring up workers, the CQ sink, replenisher, and autoscaler.

        CQEs reach :meth:`_dispatch_cqe` at the put, as the CQ's sink.
        Siblings behind an :class:`IngressLoadBalancer` share the node's
        RNIC and so its one CQ: the sibling started last owns the sink,
        and it routes every CQE through ``siblings`` to the instance
        that owns the request id.
        """
        if self._running:
            raise RuntimeError("ingress already started")
        self._running = True
        self.pool.start()
        for tenant in self.pools:
            self._post_recv(tenant, self.recv_buffers)
        self.rnic.cq.set_sink(self._dispatch_cqe)
        self.env.process(self._replenisher(), name="ingress-replenish")
        self.env.process(self._warm_connections(), name="ingress-warm")
        if self.pool.autoscaler is not None:
            self.pool.autoscaler.start()

    def _warm_connections(self):
        for worker_node in [n.name for n in self.cluster.workers]:
            for tenant in self.pools:
                yield from self.conn_mgr.warm_up(worker_node, tenant)

    # -- client-facing API -------------------------------------------------------
    def connect(self) -> ClientConnection:
        """Accept a new external TCP connection (handshake is charged
        lazily on the owning worker's first event)."""
        conn = ClientConnection(self.env)
        worker = self.pool.pick(conn.conn_id)
        worker.inbox.put_nowait(("handshake", conn))
        return conn

    def submit(self, conn: ClientConnection, request: HttpRequest) -> None:
        """A request frame arrived from the Ethernet side."""
        request.connection_id = conn.conn_id
        worker = self.pool.pick(conn.conn_id)
        worker.inbox.put_nowait(("request", (conn, request)))
        self.stats.accepted += 1

    # -- worker data-plane loop -----------------------------------------------------
    def _worker_loop(self, worker: GatewayWorker):
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
                yield from self._handle_request(worker, fstack, http, conn, request)
            elif kind == "response":
                completion = payload
                yield from self._handle_response(worker, fstack, http, completion)

    def _handle_request(self, worker, fstack: FStack, http: HttpProcessor,
                        conn: ClientConnection, request: HttpRequest):
        yield from fstack.rx(request.wire_bytes)
        yield from http.parse(request.wire_bytes)
        tenant, entry_fn = self.resolver(request.path)
        entry_fn = self.service_resolver(entry_fn)
        tel = self.env.telemetry
        span = None
        if tel is not None:
            # The trace root: one span covering the whole request, from
            # HTTP accept to the response hitting the Ethernet wire.
            span = tel.tracer.start_span(
                f"request:{request.path}", category="request",
                node=self.node.name, actor=worker.name, tenant=tenant,
                entry=entry_fn, bytes=request.body_bytes)
            tel.metrics.counter(
                "ingress_requests_total", "HTTP requests accepted at the "
                "ingress.", labels=("tenant",)).labels(tenant).inc()
        if self.qos is not None:
            rejected = yield from self._admission_control(
                fstack, http, conn, request, tenant, entry_fn, span)
            if rejected:
                return
        pool = self.pools[tenant]
        try:
            buffer = pool.get(self.AGENT)
        except PoolExhausted:
            buffer = yield from pool.get_wait(self.AGENT)
        buffer.write(self.AGENT, request.body, request.body_bytes)
        rid = _next_rid(self.env)
        self._pending[rid] = (conn, worker, request, self.env.now, span)
        try:
            dst_node = self.routes.node_for(entry_fn)
        except RouteError:
            # Entry function unroutable (node failure without a
            # surviving replica): drop; the client's timeout fires.
            self._pending.pop(rid, None)
            pool.put(buffer, self.AGENT)
            self.stats.drops["no-route"] += 1
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        qp = yield from self.conn_mgr.get_connection(dst_node, tenant)
        message = Message(
            kind=KIND_REQUEST,
            rid=rid,
            src=self.AGENT,
            dst=entry_fn,
            reply_to=self.AGENT,
            tenant=tenant,
            via=VIA_ENGINE,
            owner=self.AGENT,
        )
        if span is not None:
            message.trace = span.context
        wr = WorkRequest(
            opcode=Opcode.SEND,
            buffer=buffer,
            length=request.body_bytes,
            message=message,
        )
        message.transfer(self.AGENT, f"rnic:{self.node.name}")
        self.rnic.post_send(qp, wr)

    def _admission_control(self, fstack: FStack, http: HttpProcessor,
                           conn: ClientConnection, request: HttpRequest,
                           tenant: str, entry_fn: str, span):
        """Generator: QoS gate before any buffer is pledged.

        Returns True when the request was rejected (and the 503 is on
        its way back to the client).  On admission this *blocks* until
        the destination engine grants the tenant a credit — the
        hop-by-hop backpressure that keeps the edge from burying a
        congested engine.
        """
        try:
            dst_node = self.routes.node_for(entry_fn)
        except RouteError:
            # Unroutable: let the normal path take its no-route drop.
            return False
        reason = self.qos.admit(tenant, dst_node)
        if reason is None:
            yield from self.qos.acquire_credit(dst_node, tenant)
            return False
        self.stats.drops[f"admission-{reason}"] += 1
        tel = self.env.telemetry
        if tel is not None:
            tel.metrics.counter(
                "ingress_admission_rejected_total",
                "Requests shed by the QoS admission gate.",
                labels=("tenant", "reason")).labels(tenant, reason).inc()
            tel.tracer.end_span(span, status="reject")
        # Cheap rejection: a 503 straight off the worker core — no
        # buffer, no RDMA, no worker-node work.  That cheapness is the
        # whole point of admission control at the edge.
        response = HttpResponse(status=503, body=None, body_bytes=0,
                                request_id=request.request_id)
        yield from http.serialize(response.wire_bytes)
        yield from fstack.tx(response.wire_bytes)

        def _transit():
            yield from self.cluster.ether_down.transmit(response.wire_bytes)
            if conn.open:
                conn.inbox.put_nowait(response)
                conn.responses_received += 1

        self.env.process(_transit(), name="ingress-reject-tx")
        return True

    def _handle_response(self, worker, fstack: FStack, http: HttpProcessor, completion):
        rid = completion.message.rid
        entry = self._pending.pop(rid, None)
        buffer = completion.buffer
        body = buffer.read(f"rnic:{self.node.name}")
        length = completion.length
        # The response header ends its journey here; the receive buffer
        # is recycled immediately after the read.
        completion.message.transfer(f"rnic:{self.node.name}", self.AGENT)
        completion.message.retire(self.AGENT)
        buffer.pool.put(buffer, f"rnic:{self.node.name}")
        if entry is None:
            # Orphaned response: the pending entry was already reaped
            # (flushed send, sibling takeover) — count it visibly.
            self.stats.drops["orphan-response"] += 1
            return
        conn, _worker, request, t0, span = entry
        response = HttpResponse(status=200, body=body, body_bytes=length,
                                request_id=request.request_id)
        yield from http.serialize(response.wire_bytes)
        yield from fstack.tx(response.wire_bytes)
        tel = self.env.telemetry

        def _transit():
            # Ethernet transit happens in the NIC, not the worker loop.
            yield from self.cluster.ether_down.transmit(response.wire_bytes)
            if conn.open:
                conn.inbox.put_nowait(response)
                conn.responses_received += 1
            self.stats.completed += 1
            self.latency.record(self.env.now - t0)
            self.throughput.record(self.env.now)
            if tel is not None and span is not None:
                tenant = span.tags.get("tenant", "")
                tel.metrics.counter(
                    "ingress_responses_total", "Responses delivered to "
                    "clients.", labels=("tenant",)).labels(tenant).inc()
                tel.metrics.histogram(
                    "ingress_latency_us", "End-to-end request latency at "
                    "the ingress.", labels=("tenant",)).labels(
                        tenant).observe(self.env.now - t0,
                                        trace_id=span.trace_id)
                tel.tracer.end_span(span)

        self.env.process(_transit(), name="ingress-ether-tx")

    # -- RDMA receive plumbing ---------------------------------------------------------
    def _dispatch_cqe(self, completion) -> None:
        """The CQ's sink: a response goes to the owning worker, a send
        completion recycles its buffer.

        With several gateway instances sharing the node's RNIC, the
        response is handed to whichever *sibling* instance owns the
        request id.  A response whose worker has been reaped since it
        sent the request goes to a live worker instead.
        """
        if completion.is_recv:
            rid = completion.message.rid
            owner = next(
                (gw for gw in self.siblings if rid in gw._pending), self
            )
            entry = owner._pending.get(rid)
            worker = entry[1] if entry else None
            if worker is None or not worker.active:
                worker = owner.pool.pick(rid or 0)
            worker.inbox.put_nowait(("response", completion))
        elif completion.opcode == Opcode.SEND and completion.buffer is not None:
            completion.buffer.pool.put(completion.buffer, self.AGENT)
            if not completion.ok:
                # Flushed send (peer died): the request is lost —
                # reclaim the stranded header and drop the pending
                # entry so state does not leak.
                rid = None
                if completion.message is not None:
                    rid = completion.message.rid
                    if completion.flushed:
                        completion.message.transfer(
                            f"rnic:{self.node.name}", self.AGENT)
                        completion.message.retire(self.AGENT)
                for gw in self.siblings:
                    if rid in gw._pending:
                        entry = gw._pending.pop(rid, None)
                        gw.stats.drops["flushed-send"] += 1
                        tel = self.env.telemetry
                        if tel is not None and entry[4] is not None:
                            tel.tracer.end_span(entry[4], status="error")
                        break

    def _replenisher(self):
        """Keep per-tenant shared RQs stocked (the DNE core-thread analog)."""
        while self._running:
            yield self.env.timeout(50.0)
            for tenant in self.pools:
                srq = self.rnic.srq(tenant)
                consumed = srq.consumed_since_replenish
                if consumed:
                    srq.consumed_since_replenish = 0
                    self._post_recv(tenant, consumed)

    def _post_recv(self, tenant: str, count: int) -> None:
        pool = self.pools[tenant]
        for _ in range(count):
            try:
                buf = pool.get(self.AGENT)
            except PoolExhausted:
                break
            self.rnic.post_recv(tenant, buf, self.AGENT)
