"""SPRIGHT baseline data plane (Qi et al., SIGCOMM'22).

SPRIGHT pioneered eBPF/SK_MSG shared-memory processing *within* a node,
but its inter-node data path "relies on the kernel protocol stack"
(§4.3).  We reproduce exactly that wiring:

* intra-node: identical descriptor-over-SK_MSG path as Palladium
  (SPRIGHT is where Palladium's intra-node design comes from);
* inter-node: the node-wide engine serializes the payload out of the
  shared-memory pool into a kernel TCP socket (a real data copy), the
  kernel stack processes it on both ends, and the receiving engine
  copies it back into its local pool;
* the engine itself is event-driven on the shared CPU cores
  (interrupt-based, not a pinned poller).
"""

from __future__ import annotations

from typing import Any

from ..dataplane import Message
from ..dne.engine import NetworkEngine
from ..dne.routing import RouteError
from ..memory import BufferDescriptor, PoolExhausted

__all__ = ["SprightEngine"]

#: TCP/IP framing on the inter-node hop
TCP_FRAME_OVERHEAD = 66


class _TcpFrame:
    """One serialized message in flight on the kernel TCP hop."""

    __slots__ = ("message", "payload", "length", "tenant")

    def __init__(self, message: Message, payload: Any, length: int,
                 tenant: str):
        self.message = message
        self.payload = payload
        self.length = length
        self.tenant = tenant


class SprightEngine(NetworkEngine):
    """SPRIGHT's node-wide forwarder: shared memory in, kernel TCP out."""

    def _allocate_core(self):
        # Event-driven on the shared host cores: no pinned poller.
        return self.node.cpu

    def _core_thread(self, epoch):
        """No RC connections or receive buffers to manage; idle."""
        return
        yield  # pragma: no cover - makes this a generator

    # -- TX: copy out of shared memory into the kernel socket -------------------
    def _handle_tx(self, tenant: str, src_fn: str, descriptor: BufferDescriptor):
        cost = self.cost
        buffer = descriptor.buffer
        buffer.check_owner(self.agent)
        message = descriptor.message
        if message.owner is not None:
            message.check_owner(self.agent)
        dst_fn = message.dst
        tel = self.env.telemetry
        span = None
        if tel is not None:
            span = tel.tracer.start_span(
                "engine.tx", parent=message.trace,
                category="engine", node=self.node.name, actor=self.name,
                tenant=tenant, src=src_fn, dst=dst_fn,
                bytes=descriptor.length)
            message.trace = span.context
        try:
            dst_node = self.routes.node_for(dst_fn)
        except RouteError:
            # Destination withdrawn (failover/scale-down): drop safely.
            self.stats.drops["tx"] += 1
            message.settle(False)
            message.retire(self.agent)
            self._recycle(buffer, tenant)
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        peer = self.peers.get(dst_node)
        if peer is None:
            raise RuntimeError(f"{self.name}: no peer engine on {dst_node}")
        # Interrupt-driven SK_MSG ingest + socket serialization: one
        # real copy plus kernel protocol processing, all scheduled on
        # shared cores.
        yield self._run(
            ("protocol", cost.sk_msg_interrupt_us),
            ("descriptor", self.channel.ingest_cost_us()),
            ("copy", cost.copy_time(descriptor.length)),
            ("protocol", cost.kernel_tcp_us),
        )
        frame = _TcpFrame(message, buffer.payload, descriptor.length, tenant)
        # Source buffer is free as soon as it is serialized to the socket.
        buffer.pool.put(buffer, self.agent)
        self.stats.recycled += 1
        message.settle(True)  # handed to the kernel: fire-and-forget
        link = self.fabric.link(self.node.name, dst_node)
        self.stats.tx_bytes += descriptor.length
        self.stats.tenant_meter(tenant).record(self.env.now)

        def _transit():
            yield from link.transmit(descriptor.length + TCP_FRAME_OVERHEAD)
            if not peer.available:
                # Peer engine is down: the kernel connection resets and
                # the message is lost (SPRIGHT has no failover).
                self.stats.drops["transit"] += 1
                message.retire(self.agent)
                if tel is not None:
                    tel.tracer.end_span(span, status="drop")
                return
            # Receive-side kernel TCP + softirq processing happens in
            # interrupt context on the peer's shared cores, before the
            # engine's event loop ever sees the message.
            yield peer.node.cpu.run(
                ("protocol", cost.kernel_tcp_us + cost.kernel_irq_us))
            if tel is not None:
                tel.tracer.end_span(span)
            message.transfer(self.agent, peer.agent)
            peer.inject_event("tcp", frame)

        self.env.process(_transit(), name=f"{self.name}-tcp-tx")

    # -- RX: kernel receive + copy back into the local pool ------------------------
    def _handle_event(self, event):
        kind, payload = event
        if kind == "tcp":
            yield from self._handle_tcp_rx(payload)
        else:
            yield from super()._handle_event(event)

    def _handle_tcp_rx(self, frame: _TcpFrame):
        cost = self.cost
        message = frame.message
        tel = self.env.telemetry
        span = None
        if tel is not None:
            span = tel.tracer.start_span(
                "engine.rx", parent=message.trace,
                category="engine", node=self.node.name, actor=self.name,
                tenant=frame.tenant, bytes=frame.length)
        # Socket read + copy into the local pool (the kernel/softirq
        # cost was already paid in interrupt context).
        yield self._run(
            ("protocol", cost.sk_msg_interrupt_us),
            ("copy", cost.copy_time(frame.length)),
            ("descriptor", cost.dne_rx_proc_us),
        )
        tenant = frame.tenant
        state = self._tenants.get(tenant)
        if state is None:
            self.stats.drops["rx"] += 1
            message.retire(self.agent)
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        try:
            buffer = state.pool.get(self.agent)
        except PoolExhausted:
            buffer = yield from state.pool.get_wait(self.agent)
        buffer.write(self.agent, frame.payload, frame.length)
        dst_fn = message.dst or None
        self.stats.tenant_rx[tenant] += 1
        self.stats.rx_bytes += frame.length
        if dst_fn is None or dst_fn not in self.channel.endpoints:
            self.stats.drops["rx"] += 1
            message.retire(self.agent)
            buffer.pool.put(buffer, self.agent)
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        buffer.transfer(self.agent, f"fn:{dst_fn}")
        descriptor = BufferDescriptor(
            buffer=buffer, length=frame.length, message=message
        )
        if tel is not None:
            message.trace = span.context
            tel.tracer.end_span(span)
        message.transfer(self.agent, f"fn:{dst_fn}")
        self.channel.dne_send(dst_fn, descriptor)
