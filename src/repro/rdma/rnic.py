"""The RNIC device model: executes posted verbs over the fabric.

Each fabric endpoint (two workers' Bluefield-integrated ConnectX-6s and
the ingress node's standalone ConnectX-6) owns one :class:`Rnic`.  The
model executes one transfer per posted work request:

* sender-side NIC pipeline time (WQE fetch + per-byte host DMA, which
  is the "RNIC DMA at line rate" of §2.1),
* wire serialization + switch latency on the directed fabric link,
* receiver-side pipeline, and per-opcode semantics:

  - ``SEND`` consumes a buffer from the destination tenant's shared RQ
    (blocking when empty, the RNR condition) and raises a receive CQE;
  - ``WRITE``/``READ`` touch the remote buffer directly with *no*
    receiver-side notification — including the data-race window that
    §2.1 warns about, which we detect and count;
  - ``CAS`` atomically updates a remote 8-byte word (lock primitive).

Verbs can be *posted* (``post_send`` — asynchronous, completion
surfaces on the node's CQ for the polling engine) or *executed inline*
(``execute`` — a generator that returns the initiator-side completion,
used by components that block on their own operation, e.g. the
distributed-lock protocol).

Shadow-QP economics (§3.3): only *active* QPs occupy RNIC state; when a
node's active-QP count exceeds ``max_active_qps``, every operation pays
the cache-thrash penalty.  The same penalty applies when registered
translations overflow the MTT cache (§3.4).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from ..config import CostModel
from ..memory import Buffer, BufferState, MemoryPool, RemoteMap
from ..sim import Environment, Process, Resource, Store

from .mr import MemoryRegionTable
from .qp import QPState, QpError, QueuePair, SharedReceiveQueue
from .verbs import Completion, Opcode, RDMA_HEADER_BYTES, WorkRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fabric import RdmaFabric

__all__ = ["Rnic", "AtomicWord"]

#: Sentinel granted to an uncontended NIC pipeline instead of a full
#: Request event (the ``not users`` guard means at most one copy can
#: ever sit in a given resource's user list, so a shared sentinel is
#: safe — ``release`` removes it from that list by identity).
_TOKEN = object()
_QP_ERROR = QPState.ERROR


class AtomicWord:
    """A remotely addressable 8-byte word (CAS target, lock word)."""

    def __init__(self, node: str, value: int = 0, name: str = ""):
        self.node = node
        self.value = value
        self.name = name or "word"


class Rnic:
    """One RDMA NIC attached to the fabric."""

    def __init__(
        self,
        env: Environment,
        fabric: "RdmaFabric",
        node: str,
        cost: CostModel,
    ):
        self.env = env
        self.fabric = fabric
        self.node = node
        self.cost = cost
        self.mrt = MemoryRegionTable()
        #: the node's single completion queue (§3.3); its engine drains
        #: it in FIFO bursts with ``poll_batch()``.
        self.cq: Store = Store(env, name=f"cq:{node}")
        #: per-tenant shared receive queues
        self.srqs: Dict[str, SharedReceiveQueue] = {}
        #: serializes the NIC's host-DMA/WQE pipelines
        self._tx_pipe = Resource(env, capacity=1, name=f"rnic:{node}:tx")
        self._rx_pipe = Resource(env, capacity=1, name=f"rnic:{node}:rx")
        #: number of currently active QPs on this node
        self.active_qps = 0
        #: one-sided writes that landed on a buffer an agent was using
        self.potential_races = 0
        #: posted work requests completed, by (opcode, ok)
        self.ops: Dict[Tuple[str, bool], int] = Counter()
        #: fault state: a dead RNIC (node crash) errors every operation
        #: touching it; the no-fault path is one attribute check.
        self.dead = False
        self.flushed_cqes = 0
        #: the owner name of buffers and headers in this NIC's custody
        self.agent = f"rnic:{node}"

    # -- fault injection --------------------------------------------------------
    def fail(self) -> None:
        """Node/NIC death: stalled senders targeting this NIC error out."""
        if self.dead:
            return
        self.dead = True
        # Senders blocked in RNR on our shared RQs will never be
        # replenished; flush them out of their (now errored) QPs.
        for srq in self.srqs.values():
            srq.fail_pending(QpError(cause=f"nic {self.node} died"))

    def recover(self) -> None:
        """Bring the NIC back (node restart); QPs stay errored."""
        self.dead = False

    def flush_qp(self, qp: QueuePair, cause: str = "qp-error") -> None:
        """Move a QP to the ERROR state (idempotent).

        In-flight WRs observe the state at their next pipeline stage
        and flush to failed CQEs; WRs posted afterwards flush
        immediately.  An errored QP can never be reactivated — the
        connection manager must evict and replace it.
        """
        if qp.state == QPState.ERROR:
            return
        if qp.is_active:
            self.active_qps -= 1
        start = len(qp.transitions)
        qp.fail(cause)
        self.fabric.count_edges(qp, start)

    # -- setup ----------------------------------------------------------------
    def register_pool(self, pool: MemoryPool, remote_map: Optional[RemoteMap] = None):
        """Register a tenant pool as a memory region (DNE core thread)."""
        return self.mrt.register_pool(pool, remote_map)

    def srq(self, tenant: str) -> SharedReceiveQueue:
        """The tenant's shared receive queue, created on first use."""
        if tenant not in self.srqs:
            self.srqs[tenant] = SharedReceiveQueue(self.env, self.node, tenant)
        return self.srqs[tenant]

    def post_recv(self, tenant: str, buffer: Buffer, owner: str) -> int:
        """Post a receive buffer to the tenant's shared RQ."""
        self.mrt.lookup_buffer(buffer)
        return self.srq(tenant).post(buffer, owner)

    # -- cost helpers ----------------------------------------------------------
    def _pipe_time(self, payload_bytes: int) -> float:
        # Flattened hot path (one call per RNIC pipeline stage): the
        # thrash test and byte cost are computed inline.
        cost = self.cost
        mrt = self.mrt
        op = cost.rnic_op_us
        if self.active_qps > cost.max_active_qps \
                or mrt._total_mtt > mrt.mtt_cache_entries:
            op *= cost.qp_thrash_penalty
        return op + payload_bytes * cost.endhost_per_byte_us

    # -- posting -----------------------------------------------------------------
    def post_send(self, qp: QueuePair, wr: WorkRequest) -> Process:
        """Post a WR asynchronously; its completion lands on the CQ."""
        self._validate(qp, wr)
        qp.pending_wrs += 1
        span = None
        tel = self.env.telemetry
        if tel is not None and wr.message is not None \
                and wr.message.trace is not None:
            # The transfer span: post to completion, child of whatever
            # posted the WR.  For two-sided SENDs the receive side
            # chains off it through the context re-stamped into the
            # travelling message; one-sided ops are receiver-oblivious,
            # so their message context is left untouched.
            span = tel.tracer.start_span(
                f"rdma.{wr.opcode}", parent=wr.message.trace,
                category="rdma", node=self.node, actor=self.agent,
                tenant=qp.tenant, dst=qp.remote_node, bytes=wr.length)
            if wr.opcode == Opcode.SEND:
                wr.message.trace = span.context
        return self.env.process(self._run_posted(qp, wr, span),
                                name=f"wr{wr.wr_id}")

    def execute(self, qp: QueuePair, wr: WorkRequest):
        """Generator: run a WR inline, returning the local completion.

        Unlike :meth:`post_send`, a QP error propagates as
        :class:`QpError` to the (blocking) caller instead of flushing
        to the CQ — the caller is waiting on this very operation.
        """
        self._validate(qp, wr)
        qp.pending_wrs += 1
        try:
            completion = yield from self._execute(qp, wr)
        finally:
            qp.pending_wrs -= 1
        if wr.signaled:
            self.cq.put_nowait(completion)
        return completion

    def _validate(self, qp: QueuePair, wr: WorkRequest) -> None:
        if qp.local_node != self.node:
            raise ValueError(f"QP {qp.qp_id} does not belong to RNIC {self.node}")
        if wr.buffer is not None:
            self.mrt.lookup_buffer(wr.buffer)

    def _run_posted(self, qp: QueuePair, wr: WorkRequest, span=None):
        try:
            try:
                completion = yield from self._execute(qp, wr)
            except QpError as exc:
                # Flush-to-CQE: the buffer rides the failed completion
                # back to the polling engine for reclamation.
                self.flush_qp(qp, exc.cause)
                self.flushed_cqes += 1
                completion = Completion(
                    opcode=wr.opcode, wr_id=wr.wr_id, ok=False,
                    buffer=wr.buffer, length=wr.length, message=wr.message,
                    tenant=qp.tenant, flushed=True, error=exc.cause,
                )
        finally:
            qp.pending_wrs -= 1
        self.ops[wr.opcode, completion.ok] += 1
        if span is not None:
            self.env.telemetry.tracer.end_span(
                span, status="ok" if completion.ok else "flushed")
        if wr.signaled:
            self.cq.put_nowait(completion)
        return completion

    def _check_qp(self, qp: QueuePair) -> None:
        """Stage-boundary fault check (free when no faults are active)."""
        if qp.state == QPState.ERROR:
            raise QpError(qp, qp.error_cause or "qp-error")
        if self.dead:
            raise QpError(qp, f"nic {self.node} died")

    # -- execution ------------------------------------------------------------------
    def _execute(self, qp: QueuePair, wr: WorkRequest):
        # The per-WR hot path: every message of every experiment runs
        # through this generator once, so the pipeline-time computation,
        # the uncontended-pipe token grant (same discipline as
        # ``sim.resources.Resource.use``) and the short one-sided
        # completions (WRITE/CAS) are all flattened into this frame —
        # each removed delegation level is paid again on every resume.
        if self.dead or qp.state == _QP_ERROR:
            self._check_qp(qp)
        fabric = self.fabric
        remote = fabric.rnic(qp.remote_node)
        link = fabric.link(self.node, qp.remote_node)
        env = self.env
        opcode = wr.opcode

        # Sender NIC pipeline: WQE fetch + host-memory DMA at line rate,
        # and the wire bytes for the frame that follows it.
        cost = self.cost
        mrt = self.mrt
        op_us = cost.rnic_op_us
        if self.active_qps > cost.max_active_qps \
                or mrt._total_mtt > mrt.mtt_cache_entries:
            op_us *= cost.qp_thrash_penalty
        if opcode == Opcode.SEND or opcode == Opcode.WRITE:
            op_us += wr.length * cost.endhost_per_byte_us
            wire = RDMA_HEADER_BYTES + wr.length
        elif opcode == Opcode.CAS:
            wire = RDMA_HEADER_BYTES + 16
        else:  # READ: request only; the response carries the data
            wire = RDMA_HEADER_BYTES
        pipe = self._tx_pipe
        users = pipe.users
        if not users and not pipe.queue:
            pipe._last_change = env._now
            users.append(_TOKEN)
            try:
                yield env.timeout(op_us)
            finally:
                pipe.release(_TOKEN)
        else:
            yield from pipe.use(op_us)

        # Wire.
        yield from link.transmit(wire)
        if self.dead or qp.state == _QP_ERROR:
            self._check_qp(qp)
        if remote.dead:
            raise QpError(qp, f"peer nic {remote.node} died")

        if opcode == Opcode.WRITE:
            # One-sided write: receiver-oblivious, lands regardless of
            # who is using the buffer (the §2.1 race window).
            target = wr.remote_buffer
            if target is None:
                raise ValueError("one-sided WRITE requires a remote buffer")
            remote.mrt.lookup_buffer(target)
            length = wr.length
            rcost = remote.cost
            rmrt = remote.mrt
            op_us = rcost.rnic_op_us
            if remote.active_qps > rcost.max_active_qps \
                    or rmrt._total_mtt > rmrt.mtt_cache_entries:
                op_us *= rcost.qp_thrash_penalty
            op_us += length * rcost.endhost_per_byte_us
            pipe = remote._rx_pipe
            users = pipe.users
            if not users and not pipe.queue:
                pipe._last_change = env._now
                users.append(_TOKEN)
                try:
                    yield env.timeout(op_us)
                finally:
                    pipe.release(_TOKEN)
            else:
                yield from pipe.use(op_us)
            if target.state == BufferState.IN_USE and target.owner is not None:
                expected = wr.expected_owner
                if expected is None or target.owner != expected:
                    remote.potential_races += 1
            target.payload = wr.buffer.payload if wr.buffer else wr.inline_payload
            target.length = length
            return Completion(opcode=Opcode.WRITE, wr_id=wr.wr_id, ok=True,
                              buffer=wr.buffer, length=length,
                              tenant=qp.tenant)
        if opcode == Opcode.CAS:
            word: AtomicWord = wr.word
            if word.node != qp.remote_node:
                raise ValueError(
                    f"CAS target word lives on {word.node}, "
                    f"QP goes to {qp.remote_node}"
                )
            # Atomic execution in the remote NIC (serialized by its
            # pipeline; 16 operand bytes through the rx stage).
            rcost = remote.cost
            rmrt = remote.mrt
            op_us = rcost.rnic_op_us
            if remote.active_qps > rcost.max_active_qps \
                    or rmrt._total_mtt > rmrt.mtt_cache_entries:
                op_us *= rcost.qp_thrash_penalty
            op_us += 16 * rcost.endhost_per_byte_us
            pipe = remote._rx_pipe
            users = pipe.users
            if not users and not pipe.queue:
                pipe._last_change = env._now
                users.append(_TOKEN)
                try:
                    yield env.timeout(op_us)
                finally:
                    pipe.release(_TOKEN)
            else:
                yield from pipe.use(op_us)
            old = word.value
            if old == wr.compare:
                word.value = wr.swap
            back = fabric.link(qp.remote_node, self.node)
            yield from back.transmit(RDMA_HEADER_BYTES + 8)
            return Completion(opcode=Opcode.CAS, wr_id=wr.wr_id, ok=True,
                              old_value=old, tenant=qp.tenant)
        if opcode == Opcode.SEND:
            return (yield from self._complete_send(qp, wr, remote))
        if opcode == Opcode.READ:
            return (yield from self._complete_read(qp, wr, remote))
        raise ValueError(f"unknown opcode {wr.opcode!r}")

    def _complete_send(self, qp: QueuePair, wr: WorkRequest, remote: "Rnic"):
        srq = remote.srq(qp.tenant)
        # RNR when the shared RQ is empty: stall until replenished.
        recv_wr_id, recv_buffer = yield srq.take()
        # Receiver NIC pipeline: DMA into the posted buffer (host memory
        # for off-path Palladium — the RNIC writes straight into the
        # tenant's unified pool via the cross-processor registration).
        # Uncontended pipes grant a bare token (see ``_execute``).
        pipe = remote._rx_pipe
        if not pipe.users and not pipe.queue:
            pipe._last_change = self.env._now
            pipe.users.append(_TOKEN)
            try:
                yield self.env.timeout(remote._pipe_time(wr.length))
            finally:
                pipe.release(_TOKEN)
        else:
            yield from pipe.use(remote._pipe_time(wr.length))
        rbr_buffer = srq.rbr.consume(recv_wr_id)
        assert rbr_buffer is recv_buffer, "RBR table out of sync with shared RQ"
        agent = remote.agent
        # The application header crosses with the payload: ownership
        # moves from the sending NIC's domain to the receiving NIC's.
        if wr.message is not None:
            wr.message.transfer(self.agent, agent)
        if wr.length > recv_buffer.capacity:
            # Message too large for the posted buffer: local length error.
            recv_buffer.owner = agent
            recv_buffer.state = BufferState.IN_USE
            remote.cq.put_nowait(Completion(
                opcode=Opcode.RECV, wr_id=recv_wr_id, ok=False,
                buffer=recv_buffer, message=wr.message, tenant=qp.tenant,
                is_recv=True,
            ))
        else:
            recv_buffer.write(agent, wr.buffer.payload if wr.buffer else None, wr.length)
            recv_buffer.state = BufferState.IN_USE
            srq.consumed_since_replenish += 1
            remote.cq.put_nowait(Completion(
                opcode=Opcode.RECV, wr_id=recv_wr_id, ok=True,
                buffer=recv_buffer, length=wr.length, message=wr.message,
                tenant=qp.tenant, is_recv=True,
            ))
        # The local completion carries the source buffer so the polling
        # engine can recycle it to the tenant pool; the message rides as
        # a reference only (it is owned by the receive side now) so the
        # sender can settle a reliability ack.
        return Completion(opcode=Opcode.SEND, wr_id=wr.wr_id, ok=True,
                          buffer=wr.buffer, length=wr.length,
                          message=wr.message, tenant=qp.tenant)

    def _complete_read(self, qp: QueuePair, wr: WorkRequest, remote: "Rnic"):
        source = wr.remote_buffer
        if source is None:
            raise ValueError("one-sided READ requires a remote buffer")
        remote.mrt.lookup_buffer(source)
        length = wr.length or source.length
        # Remote NIC reads host memory and streams the response back.
        # Uncontended pipes grant a bare token (see ``_execute``).
        env = self.env
        pipe = remote._rx_pipe
        if not pipe.users and not pipe.queue:
            pipe._last_change = env._now
            pipe.users.append(_TOKEN)
            try:
                yield env.timeout(remote._pipe_time(length))
            finally:
                pipe.release(_TOKEN)
        else:
            yield from pipe.use(remote._pipe_time(length))
        back = self.fabric.link(qp.remote_node, self.node)
        yield from back.transmit(RDMA_HEADER_BYTES + length)
        pipe = self._rx_pipe
        if not pipe.users and not pipe.queue:
            pipe._last_change = env._now
            pipe.users.append(_TOKEN)
            try:
                yield env.timeout(self._pipe_time(length))
            finally:
                pipe.release(_TOKEN)
        else:
            yield from pipe.use(self._pipe_time(length))
        return Completion(opcode=Opcode.READ, wr_id=wr.wr_id, ok=True,
                          length=length, payload=source.payload,
                          tenant=qp.tenant)
