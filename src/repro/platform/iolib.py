"""The unified I/O library and per-node runtime context (§3.5).

:class:`NodeRuntime` bundles everything a worker node's data plane
needs: the sockmap for intra-node SK_MSG IPC, the intra-node routing
table, the node's network engine (DNE/CNE/baseline engine), per-tenant
memory pools, and the sidecar cost model.

:class:`IoLibrary` is the function-facing API: a single ``send`` that
transparently routes intra-node (descriptor over SK_MSG, green arrow of
Fig. 7) or inter-node (descriptor to the engine over Comch, violet
arrows), performing the token-passing ownership transfer either way.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Optional, Tuple

from ..config import CostModel
from ..dataplane import Message
from ..dne.engine import NetworkEngine
from ..dne.routing import IntraNodeRoutes, RouteError
from ..hw import Node
from ..memory import Buffer, BufferDescriptor, MemoryPool, PoolExhausted
from ..net import SockMap
from ..sim import Environment, Store

__all__ = ["NodeRuntime", "IoLibrary", "KernelTcpFallback", "SendError",
           "InvokeTimeout"]

#: TCP/IP framing on the kernel-stack fallback hop
TCP_FRAME_OVERHEAD = 66
#: retransmissions a reliable send makes before raising SendError
MAX_SEND_RETRIES = 2


class SendError(Exception):
    """A reliable send exhausted its retry budget (tenant-visible)."""


class InvokeTimeout(Exception):
    """An invocation's response did not arrive within the deadline."""


class NodeRuntime:
    """Everything the data plane shares on one worker node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        cost: CostModel,
        engine: Optional[NetworkEngine] = None,
        sidecar_us: Optional[float] = None,
        intra_ipc_us: Optional[float] = None,
    ):
        self.env = env
        self.node = node
        self.cost = cost
        self.engine = engine
        self.sockmap = SockMap(env, cost, name=f"sockmap:{node.name}")
        self.intra_routes = IntraNodeRoutes(node.name)
        self.pools: Dict[str, MemoryPool] = {}
        #: endpoint id -> owning tenant (None for trusted infrastructure
        #: adapters) — drives the cross-security-domain copy rule (§3.1)
        self.endpoint_tenants: Dict[str, Optional[str]] = {}
        #: per-message sidecar (service mesh) cost; Palladium's
        #: lightweight eBPF sidecar by default (§3.1)
        self.sidecar_us = cost.ebpf_sidecar_us if sidecar_us is None else sidecar_us
        #: override for intra-node descriptor IPC cost (NightCore's
        #: shared-memory queues differ slightly from SK_MSG)
        self.intra_ipc_us = cost.sk_msg_us if intra_ipc_us is None else intra_ipc_us
        #: False while the node is crashed (fault injection)
        self.alive = True
        #: kernel-TCP escape hatch used while the engine is down
        #: (graceful degradation, wired by the platform)
        self.fallback: Optional["KernelTcpFallback"] = None
        #: when set, :meth:`FunctionInstance.invoke` gives up (raises
        #: :class:`InvokeTimeout`) after this many microseconds
        self.invoke_timeout_us: Optional[float] = None
        #: logical service name -> replica id; an
        #: :class:`~repro.platform.elasticity.ElasticPlatform` installs
        #: its resolver here (None: names are function ids)
        self.resolve_service: Optional[Callable[[str], str]] = None
        #: messages this node's I/O libraries sent, by (via, tenant)
        self.sends: Dict[Tuple[str, str], int] = Counter()
        if env.telemetry is not None:
            env.telemetry.metrics.collect(
                "iolib_sends_total", "Messages sent through the I/O library.",
                ("via", "tenant"), lambda: self.sends)

    def add_pool(self, tenant: str, pool: MemoryPool) -> None:
        self.pools[tenant] = pool

    def pool_for(self, tenant: str) -> MemoryPool:
        try:
            return self.pools[tenant]
        except KeyError:
            raise KeyError(
                f"tenant {tenant!r} has no memory pool on {self.node.name}"
            ) from None

    def register_endpoint(self, fn_id: str, inbox: Store,
                          tenant: Optional[str] = None) -> None:
        """Wire a function (or pseudo-function adapter) into the node.

        Registers the unified inbox with the sockmap (intra-node) and,
        if the node has an engine, with its descriptor channel
        (inter-node), then publishes the intra-node route.  ``tenant``
        marks the endpoint's security domain; ``None`` means trusted
        infrastructure (ingress/TCP adapters), which every tenant may
        talk to without a domain crossing.
        """
        self.sockmap.register(fn_id, inbox)
        if self.engine is not None:
            self.engine.channel.attach(fn_id, inbox)
        self.intra_routes.add_function(fn_id)
        self.endpoint_tenants[fn_id] = tenant

    def unregister_endpoint(self, fn_id: str,
                            forward_inbox: Optional[Store] = None) -> None:
        """Remove a function's node-local wiring (migration / teardown).

        The intra-node route disappears so local senders fall back to
        the engine path (which follows the coordinator's flipped
        routes).  With ``forward_inbox``, the sockmap slot and the
        descriptor-channel endpoint are immediately re-bound to it —
        the migration forwarder's store — so deliveries already past
        their route lookup land there instead of a torn-down socket.
        Without it, both registrations are simply removed.
        """
        self.intra_routes.remove_function(fn_id)
        self.sockmap.unregister(fn_id)
        if self.engine is not None:
            self.engine.channel.detach(fn_id)
        if forward_inbox is not None:
            self.sockmap.register(fn_id, forward_inbox)
            if self.engine is not None:
                self.engine.channel.attach(fn_id, forward_inbox)
        else:
            self.endpoint_tenants.pop(fn_id, None)

    def crosses_security_domain(self, tenant: str, dst_fn: str) -> bool:
        """True when sending to ``dst_fn`` leaves ``tenant``'s domain.

        Palladium's security model (§3.1): only functions of the same
        tenant share memory; crossing domains requires a CPU copy.
        Infrastructure endpoints (tenant None) are trusted.
        """
        dst_tenant = self.endpoint_tenants.get(dst_fn)
        return dst_tenant is not None and dst_tenant != tenant


class IoLibrary:
    """Per-function transport-agnostic send/receive API."""

    VIA_SKMSG = "skmsg"
    VIA_ENGINE = "engine"

    def __init__(self, runtime: NodeRuntime, fn_id: str, tenant: str):
        self.runtime = runtime
        self.env = runtime.env
        self.cost = runtime.cost
        self.fn_id = fn_id
        self.tenant = tenant
        self.cpu = runtime.node.cpu
        self.intra_sends = 0
        self.inter_sends = 0
        self.cross_domain_sends = 0
        self.fallback_sends = 0
        self.retransmissions = 0
        self.send_failures = 0

    # -- send path -------------------------------------------------------------
    def send(self, src_agent: str, dst_fn: str, payload: Any, size: int,
             message: Message, timeout_us: Optional[float] = None):
        """Generator: allocate a buffer, fill it, and route it to ``dst_fn``.

        With ``timeout_us`` set, the send is *reliable*: an ack event
        rides the message and is settled (with the delivery status) by
        whichever transport carries it; a nack or timeout triggers a
        retransmission (a :meth:`~repro.dataplane.Message.clone` — the
        original instance was consumed by whatever path dropped it),
        and after ``MAX_SEND_RETRIES`` retransmissions the failure surfaces
        as :class:`SendError`.  The default (``timeout_us=None``) path
        is untouched fire-and-forget — no extra events, no overhead.
        """
        pool = self.runtime.pool_for(self.tenant)
        if timeout_us is None:
            buffer = yield from pool.get_wait(src_agent)
            yield from self.send_buffer(src_agent, dst_fn, buffer, payload, size,
                                        message,
                                        extra_cpu_us=self.cost.mempool_op_us)
            return
        attempts = 0
        pristine_trace = message.trace
        current = message
        current.retries_left = MAX_SEND_RETRIES
        while True:
            buffer = yield from pool.get_wait(src_agent)
            ack = self.env.event()
            current.ack = ack
            yield from self.send_buffer(src_agent, dst_fn, buffer, payload, size,
                                        current,
                                        extra_cpu_us=self.cost.mempool_op_us)
            yield from self.env.within(ack, timeout_us)
            if ack.triggered and ack.value:
                return
            attempts += 1
            if attempts > MAX_SEND_RETRIES:
                self.send_failures += 1
                cause = "nacked" if ack.triggered else "timed out"
                raise SendError(
                    f"{self.fn_id}: send to {dst_fn!r} {cause} after "
                    f"{attempts} attempts"
                )
            self.retransmissions += 1
            current = current.clone(owner=src_agent, trace=pristine_trace,
                                    retries_left=MAX_SEND_RETRIES - attempts)

    def send_buffer(
        self,
        src_agent: str,
        dst_fn: str,
        buffer: Buffer,
        payload: Any,
        size: int,
        message: Message,
        extra_cpu_us: float = 0.0,
    ):
        """Generator: fill ``buffer`` and route it (zero-copy reuse path).

        The sidecar, allocator, and IPC CPU charges are batched into a
        single core claim (they execute back-to-back in the sender's
        syscall context on the real system).  ``message`` is handed off
        by ownership to whatever transport carries it — no per-hop copy.
        """
        buffer.write(src_agent, payload, size)
        # Logical-service resolution (elastic replicas; identity for
        # plain function names).
        resolve = self.runtime.resolve_service
        if resolve is not None:
            dst_fn = resolve(dst_fn)
        message.dst = dst_fn
        tel = self.env.telemetry
        if self.runtime.crosses_security_domain(self.tenant, dst_fn):
            yield from self._send_cross_domain(src_agent, dst_fn, buffer,
                                               payload, size, message,
                                               extra_cpu_us)
        elif self.runtime.intra_routes.is_local(dst_fn):
            message.via = self.VIA_SKMSG
            self.runtime.sends["skmsg", self.tenant] += 1
            span = None
            if tel is not None:
                span = self._send_span(tel, message, dst_fn, size, "skmsg")
            descriptor = BufferDescriptor(buffer=buffer, length=size,
                                          message=message)
            buffer.transfer(src_agent, f"fn:{dst_fn}")
            message.transfer(src_agent, f"fn:{dst_fn}")
            yield self.cpu.run(
                ("descriptor", extra_cpu_us),
                ("protocol", self.runtime.sidecar_us),
                ("descriptor", self.cost.sk_msg_us),
            )
            self.runtime.sockmap.redirect(dst_fn, descriptor)
            self.intra_sends += 1
            message.settle(True)
            if tel is not None:
                tel.tracer.end_span(span)
        else:
            engine = self.runtime.engine
            if engine is None:
                raise RuntimeError(
                    f"{self.fn_id}: destination {dst_fn!r} is remote but node "
                    f"{self.runtime.node.name} has no network engine"
                )
            if not engine.available and self.runtime.fallback is not None:
                # Graceful degradation (engine crashed): ship over the
                # kernel TCP stack while the engine restarts.
                yield from self.runtime.fallback.send(
                    self, src_agent, dst_fn, buffer, size, message
                )
                self.fallback_sends += 1
                return
            message.via = self.VIA_ENGINE
            if engine.qos_credits is not None:
                # Credit-based backpressure (repro.qos): block until the
                # engine grants this tenant a TX credit.  The engine
                # repays it when it processes — or sheds — the message.
                yield from engine.qos_credits.acquire(self.tenant)
            self.runtime.sends["engine", self.tenant] += 1
            span = None
            if tel is not None:
                span = self._send_span(tel, message, dst_fn, size, "engine")
            descriptor = BufferDescriptor(buffer=buffer, length=size,
                                          message=message)
            buffer.transfer(src_agent, engine.agent)
            message.transfer(src_agent, engine.agent)
            yield self.cpu.run(
                ("descriptor", extra_cpu_us),
                ("protocol", self.runtime.sidecar_us),
                ("descriptor", engine.channel.fn_cpu_us),
            )
            engine.channel.post_from_function(self.fn_id, descriptor)
            self.inter_sends += 1
            if tel is not None:
                tel.tracer.end_span(span)

    def _send_span(self, tel, message: Message, dst_fn: str, size: int,
                   via: str):
        """Open a send span and stamp its context on the message."""
        span = tel.tracer.start_span(
            "iolib.send", parent=message.trace, category="iolib",
            node=self.runtime.node.name, actor=self.fn_id,
            tenant=self.tenant, dst=dst_fn, via=via, bytes=size)
        message.trace = span.context
        return span

    def _send_cross_domain(self, src_agent: str, dst_fn: str, buffer: Buffer,
                           payload, size: int, message: Message,
                           extra_cpu_us: float):
        """Generator: the CPU copy across security domains (§3.1).

        The payload is copied out of the sender tenant's pool into a
        buffer of the *destination* tenant's pool; the sender's buffer
        never leaves its domain.  Only intra-node crossings are
        supported (matching the paper's tenant-per-chain model).
        """
        dst_tenant = self.runtime.endpoint_tenants[dst_fn]
        if not self.runtime.intra_routes.is_local(dst_fn):
            raise RuntimeError(
                f"{self.fn_id}: cross-tenant destination {dst_fn!r} is not "
                f"local; inter-node crossings must go through an ingress"
            )
        dst_pool = self.runtime.pool_for(dst_tenant)
        dst_buffer = yield from dst_pool.get_wait(src_agent)
        self.runtime.sends["xdomain", self.tenant] += 1
        tel = self.env.telemetry
        span = None
        if tel is not None:
            span = self._send_span(tel, message, dst_fn, size, "xdomain")
        # The copy itself plus sidecar access control, on the host core.
        yield self.cpu.run(
            ("descriptor", extra_cpu_us),
            ("protocol", self.runtime.sidecar_us),
            ("copy", self.cost.copy_time(size)),
            ("descriptor", self.cost.sk_msg_us),
        )
        dst_buffer.write(src_agent, payload, size)
        message.via = self.VIA_SKMSG
        message.crossed_domain = True
        descriptor = BufferDescriptor(buffer=dst_buffer, length=size,
                                      message=message)
        dst_buffer.transfer(src_agent, f"fn:{dst_fn}")
        message.transfer(src_agent, f"fn:{dst_fn}")
        self.runtime.sockmap.redirect(dst_fn, descriptor)
        # Sender keeps (and recycles) its own buffer: no shared memory
        # ever crossed the domain boundary.
        buffer.pool.put(buffer, src_agent)
        self.cross_domain_sends += 1
        message.settle(True)
        if tel is not None:
            tel.tracer.end_span(span)

    # -- receive path ------------------------------------------------------------
    def recv_charge(self, descriptor: BufferDescriptor) -> Tuple[str, float]:
        """Host-core ``(category, host_us)`` of waking up for this delivery.

        Descriptor-channel wakeups are descriptor handling; the TCP
        fallback wakes through the kernel stack.
        """
        via = descriptor.message.via or self.VIA_SKMSG
        if via == self.VIA_ENGINE and self.runtime.engine is not None:
            return ("descriptor",
                    self.runtime.engine.channel.function_recv_cost_us())
        if via == KernelTcpFallback.VIA_TCP:
            # Socket wakeup through the kernel stack.
            return ("protocol",
                    self.cost.kernel_tcp_us + self.runtime.intra_ipc_us)
        return ("descriptor", self.runtime.intra_ipc_us)

    def recycle(self, buffer: Buffer, agent: str) -> None:
        """Return a consumed buffer to its home pool."""
        if buffer.pool is not None:
            buffer.pool.put(buffer, agent)


class KernelTcpFallback:
    """Kernel TCP/IP escape hatch used while a node's engine is down.

    When the DNE crashes, in-flight work drains to failed CQEs and new
    inter-node sends cannot use the descriptor channel.  Rather than
    stall tenants until the engine restarts, the iolib degrades to the
    kernel protocol stack (the path SPRIGHT always uses): a real copy
    out of the pool, TCP processing on both ends, and a copy back into
    the destination tenant's pool.  Slow, but available.
    """

    VIA_TCP = "tcp"

    def __init__(self, env: Environment, cost: CostModel, cluster,
                 runtimes: Dict[str, "NodeRuntime"]):
        self.env = env
        self.cost = cost
        self.cluster = cluster
        self.runtimes = runtimes
        self.agent = "tcp-fallback"
        self.sends = 0
        self.delivered = 0
        self.dropped = 0

    def send(self, iolib: "IoLibrary", src_agent: str, dst_fn: str,
             buffer: Buffer, size: int, message: Message):
        """Generator: carry one message over the kernel stack."""
        runtime = iolib.runtime
        runtime.sends["tcp-fallback", iolib.tenant] += 1
        cost = self.cost
        tel = self.env.telemetry
        span = None
        if tel is not None:
            span = tel.tracer.start_span(
                "iolib.send", parent=message.trace, category="iolib",
                node=runtime.node.name, actor=iolib.fn_id,
                tenant=iolib.tenant, dst=dst_fn, via="tcp-fallback",
                bytes=size)
            message.trace = span.context
        # Route lookup reuses the engine's table: the control plane
        # (coordinator-pushed routes) survives the data-path crash.
        try:
            dst_node = runtime.engine.routes.node_for(dst_fn)
        except RouteError:
            self.dropped += 1
            buffer.pool.put(buffer, src_agent)
            message.settle(False)
            message.retire(src_agent)
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        # Sender: copy out of the shared pool + protocol processing.
        yield runtime.node.cpu.run(
            ("protocol", cost.kernel_tcp_us), ("copy", cost.copy_time(size)))
        payload = buffer.payload
        buffer.pool.put(buffer, src_agent)
        self.sends += 1
        link = self.cluster.fabric_link(runtime.node.name, dst_node)
        yield from link.transmit(size + TCP_FRAME_OVERHEAD)
        dst_runtime = self.runtimes.get(dst_node)
        if (dst_runtime is None or not dst_runtime.alive
                or not dst_runtime.intra_routes.is_local(dst_fn)):
            # Connection reset: destination node or endpoint is gone.
            self.dropped += 1
            message.settle(False)
            message.retire(src_agent)
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        try:
            dst_buffer = dst_runtime.pool_for(iolib.tenant).get(self.agent)
        except (KeyError, PoolExhausted):
            self.dropped += 1
            message.settle(False)
            message.retire(src_agent)
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        # Receiver: kernel + softirq processing, copy into the pool.
        yield dst_runtime.node.cpu.run(
            ("protocol", cost.kernel_tcp_us + cost.kernel_irq_us),
            ("copy", cost.copy_time(size)),
        )
        dst_buffer.write(self.agent, payload, size)
        message.via = self.VIA_TCP
        descriptor = BufferDescriptor(buffer=dst_buffer, length=size,
                                      message=message)
        dst_buffer.transfer(self.agent, f"fn:{dst_fn}")
        message.transfer(src_agent, f"fn:{dst_fn}")
        dst_runtime.sockmap.redirect(dst_fn, descriptor)
        self.delivered += 1
        message.settle(True)
        if tel is not None:
            tel.tracer.end_span(span)
