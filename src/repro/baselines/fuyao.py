"""FUYAO baseline data plane (Liu et al., ASPLOS'24).

FUYAO moves inter-node data with **one-sided RDMA writes** into a
dedicated RDMA-only memory pool on the receiver, avoiding data races by
isolating that pool from local shared-memory processing — at the price
of (a) a receiver-side copy from the RDMA pool into the tenant's local
pool (Fig. 2 (2)) and (b) a continuously polling engine that "takes up
one core each on every worker node" (§4.3.1).

Reproduced mechanics:

* each engine owns a per-tenant RDMA-only slot pool, registered with
  the RNIC; peers acquire slot *credits* at warm-up (ring-style flow
  control);
* TX: take a credit, post a one-sided WRITE into the remote slot;
* arrival detection is FaRM-style memory polling — the receiving
  engine notices the write one poll interval later, copies the payload
  into the destination tenant's pool, hands the descriptor to the
  function, and returns the credit to the sender.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..dataplane import Message
from ..dne.engine import NetworkEngine
from ..dne.routing import RouteError
from ..memory import Buffer, BufferDescriptor, MemoryPool, PoolExhausted, RemoteMap
from ..rdma import Completion, Opcode, WorkRequest
from ..sim import Store

__all__ = ["FuyaoEngine"]


class _OneSidedArrival:
    """A landed one-sided write awaiting the receiver's polling loop."""

    __slots__ = ("slot", "message", "length", "tenant", "origin")

    def __init__(self, slot: Buffer, message: Message, length: int,
                 tenant: str, origin: str):
        self.slot = slot
        self.message = message
        self.length = length
        self.tenant = tenant
        self.origin = origin


class FuyaoEngine(NetworkEngine):
    """FUYAO's polling engine: one-sided writes + receiver-side copy."""

    #: slots granted to each (peer, tenant) pair
    SLOTS_PER_PEER = 32

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: tenant -> dedicated RDMA-only pool on this node
        self.rdma_pools: Dict[str, MemoryPool] = {}
        #: (remote node, tenant) -> Store of credit slot buffers
        self._credits: Dict[Tuple[str, str], Store] = {}
        #: whether the receiver-side copy hits cache or main memory
        self.copy_cached = True

    def _export_metrics(self, metrics) -> None:
        # the one-sided data path carries no telemetry
        self.stats.export(metrics.collect, self.name, data_path=False)

    # -- engine placement: a pinned, always-polling host core ------------------
    def _allocate_core(self):
        return self.node.cpu.allocate_pinned(f"{self.name}-poller")

    # -- tenant setup: create and register the dedicated RDMA pool ----------------
    def setup_tenant(self, tenant: str, pool: MemoryPool,
                     remote_map: Optional[RemoteMap] = None,
                     weight: float = 1.0, recv_buffers: int = 64) -> None:
        super().setup_tenant(tenant, pool, remote_map, weight, recv_buffers)
        rdma_pool = MemoryPool(
            self.env, tenant, self.SLOTS_PER_PEER * 4, pool.buffer_bytes,
            name=f"rdmapool:{self.node.name}:{tenant}",
        )
        self.rdma_pools[tenant] = rdma_pool
        self.rnic.register_pool(rdma_pool)

    def _core_thread(self, epoch):
        """Acquire slot credits from each peer's RDMA pool (ring setup)."""
        yield from self.conn_mgr.cp.bootstrap()  # connection setup
        for remote_node, tenant in self._warm_peers:
            yield from self.conn_mgr.warm_up(remote_node, tenant, 1)
            peer = self.peers.get(remote_node)
            if peer is None or tenant not in peer.rdma_pools:
                continue
            credits = Store(self.env, name=f"credits:{self.node.name}->{remote_node}:{tenant}")
            for _ in range(self.SLOTS_PER_PEER):
                try:
                    slot = peer.rdma_pools[tenant].get(f"slots:{self.node.name}")
                except PoolExhausted:
                    break
                credits.put_nowait(slot)
            self._credits[(remote_node, tenant)] = credits

    # -- TX: one-sided write into a remote slot -----------------------------------------
    def _handle_tx(self, tenant: str, src_fn: str, descriptor: BufferDescriptor):
        cost = self.cost
        buffer = descriptor.buffer
        buffer.check_owner(self.agent)
        message = descriptor.message
        if message.owner is not None:
            message.check_owner(self.agent)
        dst_fn = message.dst
        try:
            dst_node = self.routes.node_for(dst_fn)
        except RouteError:
            # Destination withdrawn (failover/scale-down): drop safely.
            self.stats.drops["tx"] += 1
            message.settle(False)
            message.retire(self.agent)
            self._recycle(buffer, tenant)
            return
        peer = self.peers.get(dst_node)
        # Interrupt-driven SK_MSG ingest, then the one-sided WR build.
        yield self._run(
            ("protocol", cost.sk_msg_interrupt_us),
            ("descriptor", self.channel.ingest_cost_us()),
            ("descriptor", cost.fuyao_tx_us),
        )
        credits = self._credits.get((dst_node, tenant))
        if credits is None:
            raise RuntimeError(
                f"{self.name}: no slot ring to {dst_node} for tenant {tenant!r}"
            )
        slot = yield credits.get()  # ring flow control
        qp = yield from self.conn_mgr.get_connection(dst_node, tenant)
        wr = WorkRequest(
            opcode=Opcode.WRITE,
            buffer=buffer,
            length=descriptor.length,
            remote_buffer=slot,
            message=message,
            expected_owner=f"slots:{self.node.name}",
        )
        landed = self.rnic.post_send(qp, wr).done
        self.stats.tx_bytes += descriptor.length
        self.stats.tenant_meter(tenant).record(self.env.now)

        length = descriptor.length
        this = self

        def _notify():
            # Wait for the write to land, then for the receiver's
            # polling loop to notice it (FaRM-style poll interval).
            yield landed
            yield this.env.timeout(this.cost.onesided_poll_interval_us)
            message.transfer(this.agent, peer.agent)
            peer.inject_event(
                "onesided",
                _OneSidedArrival(slot, message, length, tenant,
                                 this.node.name),
            )

        self.env.process(_notify(), name=f"{self.name}-notify")

    # -- CQ: recycle source buffers on write completion -------------------------------------
    def _handle_cqe(self, completion: Completion):
        if completion.opcode == Opcode.WRITE:
            yield self._run(("descriptor", self.cost.mempool_op_us))
            buffer = completion.buffer
            if buffer is not None and buffer.pool is not None:
                buffer.pool.put(buffer, self.agent)
                self.stats.recycled += 1
            return
        yield from super()._handle_cqe(completion)

    # -- RX: poll detection, copy out of the RDMA pool, deliver ---------------------------------
    def _handle_event(self, event):
        kind, payload = event
        if kind == "onesided":
            yield from self._handle_onesided(payload)
        else:
            yield from super()._handle_event(event)

    def _handle_onesided(self, arrival: _OneSidedArrival):
        cost = self.cost
        slot = arrival.slot
        tenant = arrival.tenant
        length = arrival.length
        message = arrival.message
        # Poll detection + the receiver-side copy out of the dedicated
        # RDMA pool into the tenant's local pool (the extra copy of
        # Fig. 2 (2)), executed on the pinned polling core.
        yield self._run(
            ("descriptor", cost.fuyao_rx_us),
            ("copy", cost.copy_time(length, cached=self.copy_cached)),
        )
        state = self._tenants.get(tenant)
        if state is None:
            self.stats.drops["rx"] += 1
            message.retire(self.agent)
            return
        try:
            buffer = state.pool.get(self.agent)
        except PoolExhausted:
            buffer = yield from state.pool.get_wait(self.agent)
        buffer.write(self.agent, slot.payload, length)
        self.stats.tenant_rx[tenant] += 1
        self.stats.rx_bytes += length
        # Return the slot credit to the sender (piggybacked control
        # message: one fabric hop later the sender may reuse the slot).
        origin = arrival.origin
        peer = self.peers.get(origin)

        def _return_credit():
            yield self.env.timeout(cost.rdma_base_latency_us)
            credits = peer._credits.get((self.node.name, tenant))
            if credits is not None:
                credits.put_nowait(slot)

        self.env.process(_return_credit(), name=f"{self.name}-credit")
        dst_fn = message.dst or None
        if dst_fn is None or dst_fn not in self.channel.endpoints:
            message.retire(self.agent)
            buffer.pool.put(buffer, self.agent)
            return
        buffer.transfer(self.agent, f"fn:{dst_fn}")
        descriptor = BufferDescriptor(buffer=buffer, length=length,
                                      message=message)
        message.transfer(self.agent, f"fn:{dst_fn}")
        self.channel.dne_send(dst_fn, descriptor)
