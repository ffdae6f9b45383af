"""RDMA verbs vocabulary: opcodes, work requests, completions.

Mirrors the IB-verbs objects the paper manipulates (§2.1, §3.5.2):
work requests (WRs) are posted to a queue pair's send queue; receive
buffers are posted to a (per-tenant, shared) receive queue; completion
queue entries (CQEs) surface finished work to the polling engine.

Both per-op classes are slotted — they are allocated on every message
of every experiment, and the application header they carry is a typed
:class:`~repro.dataplane.Message` handed off by ownership, not copied.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..dataplane import Message
from ..memory import Buffer

__all__ = ["Opcode", "WorkRequest", "Completion", "RDMA_HEADER_BYTES"]

#: Transport header bytes added to every RDMA message on the wire
#: (BTH + RETH-ish overhead; only affects serialization time).
RDMA_HEADER_BYTES = 38

_wr_ids = itertools.count(1)


class Opcode:
    """RDMA operation codes used in the reproduction."""

    SEND = "send"  # two-sided: consumes a posted receive buffer
    RECV = "recv"  # receive-buffer post
    WRITE = "write"  # one-sided write: receiver CPU/NIC not notified
    READ = "read"  # one-sided read
    CAS = "cas"  # atomic compare-and-swap (lock building block)

    TWO_SIDED = frozenset({SEND})
    ONE_SIDED = frozenset({WRITE, READ, CAS})


class WorkRequest:
    """One unit of work posted to a queue pair.

    ``message`` carries the application header (tenant, destination
    function, request id) which the real system encodes in the payload
    header / immediate data; for two-sided SENDs the RNIC hands the
    very same instance to the receiver.
    """

    __slots__ = ("opcode", "buffer", "length", "message", "remote_buffer",
                 "compare", "swap", "signaled", "wr_id", "expected_owner",
                 "word", "inline_payload")

    def __init__(
        self,
        opcode: str,
        buffer: Optional[Buffer] = None,
        length: int = 0,
        message: Optional[Message] = None,
        remote_buffer: Optional[Buffer] = None,
        compare: int = 0,
        swap: int = 0,
        signaled: bool = True,
        wr_id: Optional[int] = None,
        expected_owner: Optional[str] = None,
        word=None,
        inline_payload: Any = None,
    ):
        self.opcode = opcode
        self.buffer = buffer
        self.length = length
        self.message = message
        #: one-sided targets
        self.remote_buffer = remote_buffer
        #: CAS operands
        self.compare = compare
        self.swap = swap
        self.signaled = signaled
        self.wr_id = next(_wr_ids) if wr_id is None else wr_id
        #: one-sided WRITE: the agent expected to hold the target slot
        #: (suppresses the §2.1 race detector for ring-owned slots)
        self.expected_owner = expected_owner
        #: CAS target (an :class:`~repro.rdma.rnic.AtomicWord`)
        self.word = word
        #: WRITE without a local buffer: the inline payload to land
        self.inline_payload = inline_payload

    def wire_bytes(self) -> int:
        """Bytes this WR puts on the fabric (payload + header)."""
        if self.opcode == Opcode.CAS:
            return RDMA_HEADER_BYTES + 16
        if self.opcode == Opcode.READ:
            return RDMA_HEADER_BYTES  # request; response carries data
        return RDMA_HEADER_BYTES + self.length


class Completion:
    """A completion queue entry (CQE)."""

    __slots__ = ("opcode", "wr_id", "ok", "buffer", "length", "message",
                 "tenant", "old_value", "payload", "is_recv", "flushed",
                 "error")

    def __init__(
        self,
        opcode: str,
        wr_id: int,
        ok: bool = True,
        buffer: Optional[Buffer] = None,
        length: int = 0,
        message: Optional[Message] = None,
        tenant: Optional[str] = None,
        old_value: int = 0,
        payload: Any = None,
        is_recv: bool = False,
        flushed: bool = False,
        error: str = "",
    ):
        self.opcode = opcode
        self.wr_id = wr_id
        self.ok = ok
        #: For receive completions: the buffer the RNIC delivered into.
        self.buffer = buffer
        self.length = length
        #: The travelling application header.  For receive completions
        #: it is owned by the receiving RNIC; for flushed completions it
        #: never left and must be reclaimed (retired) by the poller.
        self.message = message
        #: Tenant whose (shared) receive queue satisfied this arrival.
        self.tenant = tenant
        #: For CAS: the original value read from the remote word.
        self.old_value = old_value
        #: For READ: the payload streamed back from the remote buffer.
        self.payload = payload
        #: is this the receiver-side completion of a two-sided SEND?
        self.is_recv = is_recv
        #: True when this CQE was flushed out of an errored QP (the
        #: IBV_WC_WR_FLUSH_ERR analogue); ``ok`` is False for these.
        self.flushed = flushed
        #: short cause string for failed completions (debug/telemetry)
        self.error = error
