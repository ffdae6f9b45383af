"""The RDMA NIC device model: executes posted verbs over the fabric.

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

Each transfer is one :class:`Transfer`, a state machine whose steps
each run one stage and return the absolute time of the next step (or
an event to wait on: an RNR stall, a link that is down).  The NIC
pipes and the links are busy-until stages: a capacity-1 FIFO whose
hold time is known when it is claimed is fully described by the time
it next falls idle, so a stage starts at ``max(now, free_at)`` and
ends at ``start + hold``.  Scheduled at those absolute times, every
stage ends at exactly the float a FIFO server would produce.

Verbs can be *posted* (``post_send`` — asynchronous, completion
surfaces on the node's CQ for the polling engine; the steps run as
timed callbacks, three heap events per SEND or WRITE and no process)
or *executed inline* (``execute`` — a generator that runs the same
steps from the caller and returns the initiator-side completion, used
by components that block on their own operation, e.g. the
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
from ..sim import Environment, Event, Store

from .mr import MemoryRegionTable
from .qp import QPState, QpError, QueuePair, SharedReceiveQueue
from .verbs import Completion, Opcode, RDMA_HEADER_BYTES, WorkRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fabric import RdmaFabric

__all__ = ["Rnic", "AtomicWord", "Transfer"]

_QP_ERROR = QPState.ERROR
_SEND = Opcode.SEND
_WRITE = Opcode.WRITE
_READ = Opcode.READ
_CAS = Opcode.CAS


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
        #: the node's single completion queue (§3.3); its consumer (the
        #: node's engine, the ingress gateway, or the Fig. 12 echo)
        #: takes each CQE at the put, through its sink (``Store.set_sink``)
        self.cq: Store = Store(env, name=f"cq:{node}")
        #: per-tenant shared receive queues
        self.srqs: Dict[str, SharedReceiveQueue] = {}
        #: when the NIC's host-DMA/WQE pipelines finish the last
        #: transfer claimed so far (busy-until stages)
        self._tx_free = env.now
        self._rx_free = env.now
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

        In-flight WRs observe the state at their next fault check (on
        arrival at the peer) and flush to failed CQEs; WRs posted
        afterwards flush immediately.  An errored QP can never be
        reactivated — the connection manager must evict and replace it.
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

    # -- pipelines ---------------------------------------------------------------
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

    def _tx_claim(self, payload_bytes: int) -> float:
        """Queue one transfer on the tx pipe; returns when it leaves."""
        now = self.env._now
        start = self._tx_free if self._tx_free > now else now
        self._tx_free = end = start + self._pipe_time(payload_bytes)
        return end

    def _rx_claim(self, payload_bytes: int) -> float:
        """Queue one transfer on the rx pipe; returns when it is done."""
        now = self.env._now
        start = self._rx_free if self._rx_free > now else now
        self._rx_free = end = start + self._pipe_time(payload_bytes)
        return end

    # -- posting -----------------------------------------------------------------
    def post_send(self, qp: QueuePair, wr: WorkRequest) -> "Transfer":
        """Post a WR asynchronously; its completion lands on the CQ."""
        self._validate(qp, wr)
        qp.pending_wrs += 1
        transfer = Transfer(self, qp, wr)
        tel = self.env.telemetry
        if tel is not None and wr.message is not None \
                and wr.message.trace is not None:
            # The transfer span: post to completion, child of whatever
            # posted the WR.  For two-sided SENDs the receive side
            # chains off it through the context re-stamped into the
            # travelling message; one-sided ops are receiver-oblivious,
            # so their message context is left untouched.
            span = transfer.span = tel.tracer.start_span(
                f"rdma.{wr.opcode}", parent=wr.message.trace,
                category="rdma", node=self.node, actor=self.agent,
                tenant=qp.tenant, dst=qp.remote_node, bytes=wr.length)
            if wr.opcode == Opcode.SEND:
                wr.message.trace = span.context
        transfer._advance()
        return transfer

    def execute(self, qp: QueuePair, wr: WorkRequest):
        """Generator: run a WR inline, returning the local completion.

        Unlike :meth:`post_send`, a QP error propagates as
        :class:`QpError` to the (blocking) caller instead of flushing
        to the CQ — the caller is waiting on this very operation.
        """
        self._validate(qp, wr)
        qp.pending_wrs += 1
        transfer = Transfer(self, qp, wr)
        timeout_at = self.env.timeout_at
        value = None
        try:
            while True:
                step = transfer._stage(transfer, value)
                if step is None:
                    break
                value = yield (timeout_at(step) if step.__class__ is float
                               else step)
        finally:
            qp.pending_wrs -= 1
        completion = transfer.completion
        if wr.signaled:
            self.cq.put_nowait(completion)
        return completion

    def _validate(self, qp: QueuePair, wr: WorkRequest) -> None:
        if qp.local_node != self.node:
            raise ValueError(f"QP {qp.qp_id} does not belong to RNIC {self.node}")
        if wr.buffer is not None:
            self.mrt.lookup_buffer(wr.buffer)

    def _check_qp(self, qp: QueuePair) -> None:
        """Stage-boundary fault check (free when no faults are active)."""
        if qp.state == QPState.ERROR:
            raise QpError(qp, qp.error_cause or "qp-error")
        if self.dead:
            raise QpError(qp, f"nic {self.node} died")


class Transfer:
    """One work request in flight, and the handle ``post_send`` returns.

    A state machine over the transfer's stages.  ``_stage`` holds the
    next step; each step runs one stage and returns the absolute time
    of the step after it, an event to wait on (whose value it is passed
    when it fires), or ``None`` once ``completion`` is set:

    * ``_start``: fault check, then the sender's tx pipe;
    * ``_to_wire``: the frame claims its link (waits while it is down);
    * ``_arrive``: fault checks on arrival, then the opcode's remote
      stage: a SEND takes a posted buffer from the shared RQ (waiting
      out an RNR stall) and claims the peer's rx pipe;
    * the landing step: the buffer write, RBR and race accounting, and
      the receive CQE; READ and CAS send a reply frame first.

    :meth:`Rnic.post_send` drives the steps with timed callbacks and
    :meth:`Rnic.execute` from the caller's generator.  A QP error
    raises :class:`QpError` out of the step that observes it.
    """

    __slots__ = ("nic", "qp", "wr", "remote", "span", "completion",
                 "_stage", "_link", "_wire", "_length", "_recv", "_done")

    def __init__(self, nic: Rnic, qp: QueuePair, wr: WorkRequest):
        self.nic = nic
        self.qp = qp
        self.wr = wr
        fabric = nic.fabric
        self.remote = fabric.rnic(qp.remote_node)
        self._link = fabric.link(nic.node, qp.remote_node)
        self.span = None
        self.completion: Optional[Completion] = None
        self._stage = Transfer._start
        self._done: Optional[Event] = None

    @property
    def done(self) -> Event:
        """An event that fires with the completion once the WR has
        completed (flushed or not); created on first use."""
        if self._done is None:
            env = self.nic.env
            if self.completion is not None:
                return env.completed_event(self.completion)
            self._done = env.event()
        return self._done

    # -- posted driver -------------------------------------------------------------
    def _advance(self, value=None) -> None:
        """Run the next step and schedule the one after it."""
        try:
            step = self._stage(self, value)
        except QpError as exc:
            self._flush(exc)
            return
        if step is None:
            self._finish()
        elif step.__class__ is float:
            self.nic.env.defer_at(step, self._advance)
        else:
            step.callbacks.append(self._wake)

    def _wake(self, event: Event) -> None:
        if event._ok:
            self._advance(event._value)
        else:
            event.defused = True
            self._flush(event._value)

    def _flush(self, exc: QpError) -> None:
        # Flush-to-CQE: the buffer rides the failed completion back to
        # the polling engine for reclamation.
        nic = self.nic
        wr = self.wr
        nic.flush_qp(self.qp, exc.cause)
        nic.flushed_cqes += 1
        self.completion = Completion(
            opcode=wr.opcode, wr_id=wr.wr_id, ok=False, buffer=wr.buffer,
            length=wr.length, message=wr.message, tenant=self.qp.tenant,
            flushed=True, error=exc.cause,
        )
        self._finish()

    def _finish(self) -> None:
        nic = self.nic
        wr = self.wr
        completion = self.completion
        self.qp.pending_wrs -= 1
        nic.ops[wr.opcode, completion.ok] += 1
        if self.span is not None:
            nic.env.telemetry.tracer.end_span(
                self.span, status="ok" if completion.ok else "flushed")
        if wr.signaled:
            nic.cq.put_nowait(completion)
        if self._done is not None:
            self._done.succeed(completion)

    # -- steps -----------------------------------------------------------------------
    def _start(self, _value):
        # Sender NIC pipeline: WQE fetch + host-memory DMA at line rate,
        # and the wire bytes for the frame that follows it.
        nic = self.nic
        qp = self.qp
        if nic.dead or qp.state == _QP_ERROR:
            nic._check_qp(qp)
        wr = self.wr
        opcode = wr.opcode
        if opcode == _SEND or opcode == _WRITE:
            self._wire = RDMA_HEADER_BYTES + wr.length
            end = nic._tx_claim(wr.length)
        else:  # CAS operands, or a READ request (the reply carries data)
            self._wire = RDMA_HEADER_BYTES + 16 if opcode == _CAS \
                else RDMA_HEADER_BYTES
            end = nic._tx_claim(0)
        self._stage = Transfer._to_wire
        return end

    def _to_wire(self, _value):
        link = self._link
        if not link.up:
            return link.recovered()
        self._stage = Transfer._arrive
        return link.claim(self._wire)

    def _arrive(self, _value):
        self._link.delivered(self._wire)
        nic = self.nic
        qp = self.qp
        if nic.dead or qp.state == _QP_ERROR:
            nic._check_qp(qp)
        remote = self.remote
        if remote.dead:
            raise QpError(qp, f"peer nic {remote.node} died")
        wr = self.wr
        opcode = wr.opcode
        if opcode == _SEND:
            # RNR when the shared RQ is empty: stall until replenished.
            posted = remote.srq(qp.tenant).take()
            if posted.__class__ is not tuple:
                self._stage = Transfer._received
                return posted
            return self._received(posted)
        if opcode == _WRITE:
            # One-sided write: receiver-oblivious, lands regardless of
            # who is using the buffer (the §2.1 race window).
            target = wr.remote_buffer
            if target is None:
                raise ValueError("one-sided WRITE requires a remote buffer")
            remote.mrt.lookup_buffer(target)
            self._stage = Transfer._write_lands
            return remote._rx_claim(wr.length)
        if opcode == _CAS:
            if wr.word.node != qp.remote_node:
                raise ValueError(
                    f"CAS target word lives on {wr.word.node}, "
                    f"QP goes to {qp.remote_node}"
                )
            # Atomic execution in the remote NIC (serialized by its
            # pipeline; 16 operand bytes through the rx stage).
            self._stage = Transfer._cas_lands
            return remote._rx_claim(16)
        if opcode == _READ:
            source = wr.remote_buffer
            if source is None:
                raise ValueError("one-sided READ requires a remote buffer")
            remote.mrt.lookup_buffer(source)
            # Remote NIC reads host memory and streams the response back.
            self._length = wr.length or source.length
            self._stage = Transfer._reply
            return remote._rx_claim(self._length)
        raise ValueError(f"unknown opcode {wr.opcode!r}")

    def _received(self, posted):
        # Receiver NIC pipeline: DMA into the posted buffer (host memory
        # for off-path Palladium — the RNIC writes straight into the
        # tenant's unified pool via the cross-processor registration).
        self._recv = posted
        self._stage = Transfer._send_lands
        return self.remote._rx_claim(self.wr.length)

    def _send_lands(self, _value):
        wr = self.wr
        qp = self.qp
        remote = self.remote
        recv_wr_id, recv_buffer = self._recv
        srq = remote.srqs[qp.tenant]
        rbr_buffer = srq.rbr.consume(recv_wr_id)
        assert rbr_buffer is recv_buffer, "RBR table out of sync with shared RQ"
        agent = remote.agent
        # The application header crosses with the payload: ownership
        # moves from the sending NIC's domain to the receiving NIC's.
        if wr.message is not None:
            wr.message.transfer(self.nic.agent, agent)
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
        self.completion = Completion(
            opcode=Opcode.SEND, wr_id=wr.wr_id, ok=True, buffer=wr.buffer,
            length=wr.length, message=wr.message, tenant=qp.tenant)
        return None

    def _write_lands(self, _value):
        wr = self.wr
        target = wr.remote_buffer
        if target.state == BufferState.IN_USE and target.owner is not None:
            expected = wr.expected_owner
            if expected is None or target.owner != expected:
                self.remote.potential_races += 1
        target.payload = wr.buffer.payload if wr.buffer else wr.inline_payload
        target.length = wr.length
        self.completion = Completion(
            opcode=Opcode.WRITE, wr_id=wr.wr_id, ok=True, buffer=wr.buffer,
            length=wr.length, tenant=self.qp.tenant)
        return None

    def _cas_lands(self, _value):
        wr = self.wr
        word = wr.word
        old = word.value
        if old == wr.compare:
            word.value = wr.swap
        self.completion = Completion(opcode=Opcode.CAS, wr_id=wr.wr_id,
                                     ok=True, old_value=old,
                                     tenant=self.qp.tenant)
        self._length = 8
        return self._reply(None)

    def _reply(self, _value):
        # The response frame on the back link: the READ data, or the
        # CAS's old value.
        link = self.nic.fabric.link(self.qp.remote_node, self.nic.node)
        if not link.up:
            self._stage = Transfer._reply
            return link.recovered()
        self._link = link
        self._wire = RDMA_HEADER_BYTES + self._length
        self._stage = Transfer._replied
        return link.claim(self._wire)

    def _replied(self, _value):
        self._link.delivered(self._wire)
        if self.wr.opcode == _CAS:
            return None
        self._stage = Transfer._read_lands
        return self.nic._rx_claim(self._length)

    def _read_lands(self, _value):
        wr = self.wr
        self.completion = Completion(
            opcode=Opcode.READ, wr_id=wr.wr_id, ok=True, length=self._length,
            payload=wr.remote_buffer.payload, tenant=self.qp.tenant)
        return None
