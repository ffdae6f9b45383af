"""Queue pairs, shared receive queues, and the receive-buffer registry.

Palladium's QP layout (§3.3, §3.5.2):

* RC QPs give dedicated point-to-point reliable connections between
  peer nodes; a tenant may own several (proxied by the DNE).
* All of a tenant's RCQPs on a node share a **single receive queue**
  posted exclusively with buffers from that tenant's pool, so the RNIC
  always lands incoming data in the right pool.
* All RCQPs on a node share one **completion queue**.
* The **receive buffer registry (RBR)** maps posted WRs to their
  buffers so the RX stage can recover the buffer from a CQE.
* QPs are *active* while they have WRs queued, otherwise *inactive*;
  inactive QPs consume no RNIC resources (shadow-QP scheme of RoGUE).

A QP carries **two orthogonal state dimensions**:

* the **verbs state machine** (``verbs_state``): RESET → INIT → RTR →
  RTS, with ERROR reachable from every state and terminal.  Each
  forward edge corresponds to one ``ibv_modify_qp`` round the control
  plane charges for (:mod:`repro.rdma.controlplane`);
* the **shadow-activity state** (``state``): ACTIVE / INACTIVE /
  ERROR.  Only RTS QPs are ever activated; the RNIC thrash model
  watches the node-wide active count.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..memory import Buffer, BufferState
from ..sim import Environment, Store

__all__ = ["QueuePair", "QPState", "QpError", "IllegalTransition",
           "SharedReceiveQueue", "ReceiveBufferRegistry"]


def _next_qp_id(env: Environment) -> int:
    """Per-Environment QP id sequence.

    A process-global ``itertools.count`` would leak ids across
    simulations sharing one worker process — the same latent
    parallel-runner determinism bug PR 5 fixed for conn/request ids in
    ``ingress/gateway.py``.  Scoping the counter to the Environment
    keeps ids (and anything derived from them) a pure function of the
    run.
    """
    n = getattr(env, "_qp_id_seq", 0) + 1
    env._qp_id_seq = n
    return n


class QPState:
    # shadow-activity dimension (RoGUE's scheme)
    ACTIVE = "active"
    INACTIVE = "inactive"
    #: terminal error state: posted WRs flush to failed CQEs and the QP
    #: can never carry work again (it must be evicted and replaced).
    ERROR = "error"
    # verbs state machine (ibv_modify_qp ladder)
    RESET = "reset"
    INIT = "init"
    RTR = "rtr"
    RTS = "rts"


#: legal verbs-state edges; ERROR is reachable from everywhere and
#: terminal (there is no modify-to-RESET recovery in this model — an
#: errored QP is evicted and replaced).
LEGAL_TRANSITIONS = frozenset({
    (QPState.RESET, QPState.INIT),
    (QPState.INIT, QPState.RTR),
    (QPState.RTR, QPState.RTS),
    (QPState.RESET, QPState.ERROR),
    (QPState.INIT, QPState.ERROR),
    (QPState.RTR, QPState.ERROR),
    (QPState.RTS, QPState.ERROR),
})


class IllegalTransition(RuntimeError):
    """A verbs-state transition that the RC state machine forbids."""


class QpError(Exception):
    """Raised inside a work-request execution when its QP errors out.

    The RNIC converts this into a *flushed* CQE (``ok=False,
    flushed=True``) so the polling engine can reclaim the buffer — the
    flush-to-CQE semantics of real RC QPs.
    """

    def __init__(self, qp: Optional["QueuePair"] = None, cause: str = "qp-error"):
        ident = (f"QP {qp.qp_id} {qp.local_node}->{qp.remote_node}"
                 if qp is not None else "QP")
        super().__init__(f"{ident}: {cause}")
        self.qp = qp
        self.cause = cause


class QueuePair:
    """One RC queue pair (one end of a reliable connection)."""

    def __init__(self, env: Environment, local_node: str, remote_node: str,
                 tenant: str):
        self.env = env
        self.qp_id = _next_qp_id(env)
        self.local_node = local_node
        self.remote_node = remote_node
        self.tenant = tenant
        self.state = QPState.INACTIVE
        #: verbs state; the control plane walks it RESET→INIT→RTR→RTS
        self.verbs_state = QPState.RESET
        #: every (from, to) edge this QP ever took, in order — the
        #: property tests assert each one is in LEGAL_TRANSITIONS
        self.transitions: List[Tuple[str, str]] = []
        #: WRs posted but not yet completed (drives shadow activation).
        self.pending_wrs = 0
        self.peer: Optional["QueuePair"] = None
        #: why the QP entered the ERROR state (fault telemetry)
        self.error_cause: str = ""
        #: wall-clock the control plane spent establishing this QP
        self.setup_us: float = 0.0

    @property
    def is_active(self) -> bool:
        return self.state == QPState.ACTIVE

    @property
    def is_errored(self) -> bool:
        return self.state == QPState.ERROR

    def transition(self, new_state: str, cause: str = "") -> None:
        """Take one verbs-state edge; illegal edges raise.

        Transitions are bookkeeping only — the *time* each
        ``ibv_modify_qp`` round takes is charged by the control plane
        (:class:`repro.rdma.controlplane.RdmaControlPlane`).
        """
        edge = (self.verbs_state, new_state)
        if edge not in LEGAL_TRANSITIONS:
            raise IllegalTransition(
                f"QP {self.qp_id}: {self.verbs_state} -> {new_state}"
            )
        self.transitions.append(edge)
        self.verbs_state = new_state
        if new_state == QPState.ERROR and cause and not self.error_cause:
            self.error_cause = cause

    def fail(self, cause: str) -> None:
        """Move both state dimensions to ERROR (idempotent)."""
        if self.verbs_state != QPState.ERROR:
            self.transition(QPState.ERROR, cause)
        self.state = QPState.ERROR
        if not self.error_cause:
            self.error_cause = cause


class ReceiveBufferRegistry:
    """The RBR table: WR id -> posted receive buffer (§3.5.2)."""

    def __init__(self):
        self._table: Dict[int, Buffer] = {}
        self.posted = 0
        self.consumed = 0

    def insert(self, wr_id: int, buffer: Buffer) -> None:
        if wr_id in self._table:
            raise KeyError(f"duplicate RBR entry for WR {wr_id}")
        self._table[wr_id] = buffer
        self.posted += 1

    def consume(self, wr_id: int) -> Buffer:
        try:
            buffer = self._table.pop(wr_id)
        except KeyError:
            raise KeyError(f"no RBR entry for WR {wr_id}") from None
        self.consumed += 1
        return buffer


class SharedReceiveQueue:
    """Per-tenant shared RQ on one node.

    The DNE posts receive buffers (from the tenant's pool) keyed by a
    fresh WR id; arriving SENDs consume them in FIFO order.  The
    ``consumed`` counter is what the DNE core thread monitors to
    replenish buffers (§3.5.2, red arrows in Fig. 7).
    """

    def __init__(self, env: Environment, node: str, tenant: str):
        self.env = env
        self.node = node
        self.tenant = tenant
        #: FIFO of (wr_id, buffer) available for arrivals
        self._queue: Store = Store(env, name=f"srq:{node}:{tenant}")
        self.rbr = ReceiveBufferRegistry()
        self._wr_seq = itertools.count(1)
        #: completions consumed since last replenish check
        self.consumed_since_replenish = 0
        #: arrivals that found the RQ empty (RNR back-pressure events)
        self.rnr_stalls = 0

    def post(self, buffer: Buffer, owner: str) -> int:
        """Post one receive buffer; ownership moves to the RNIC."""
        buffer.check_owner(owner)
        wr_id = next(self._wr_seq)
        buffer.owner = f"rnic:{self.node}"
        buffer.state = BufferState.POSTED
        self.rbr.insert(wr_id, buffer)
        self._queue.put_nowait((wr_id, buffer))
        return wr_id

    def take(self):
        """The next ``(wr_id, buffer)``, or an event that fires with it.

        An empty shared RQ corresponds to an RNR condition on real
        hardware — the sender stalls until the receiver replenishes.
        """
        posted = self._queue.try_get()
        if posted is not None:
            return posted
        self.rnr_stalls += 1
        return self._queue.get()

    def fail_pending(self, exc: BaseException) -> int:
        """Abort senders blocked on this RQ (receiver died mid-RNR)."""
        return self._queue.fail_getters(exc)
