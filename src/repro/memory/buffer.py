"""Buffers and the 16-byte descriptors that travel the data plane.

A :class:`Buffer` is a fixed-capacity region inside a tenant's unified
memory pool.  Functions never exchange payload bytes directly — they
exchange :class:`BufferDescriptor` tokens (16 B in the real system,
§3.5.4) whose possession *is* ownership of the underlying buffer.  The
kernel of Palladium's lock-free design (§3.5.1) is that every buffer
has exactly one owner at any time, and only the owner may read, write,
recycle, or hand it off.  We enforce that invariant at runtime: any
access by a non-owner raises :class:`OwnershipError`, which is what a
data race or use-after-free would have been on real hardware.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..dataplane import Message

__all__ = ["Buffer", "BufferDescriptor", "OwnershipError", "BufferState", "DESCRIPTOR_BYTES"]

#: Size of a buffer descriptor on the wire/IPC channels (§3.5.4).
DESCRIPTOR_BYTES = 16

_buffer_ids = itertools.count(1)


class OwnershipError(RuntimeError):
    """An agent touched a buffer it does not currently own."""


class BufferState:
    """Lifecycle states of a pool buffer."""

    FREE = "free"
    IN_USE = "in_use"
    POSTED = "posted"  # handed to the RNIC as a receive buffer


class Buffer:
    """One fixed-size buffer from a tenant's unified memory pool."""

    __slots__ = ("buffer_id", "capacity", "pool", "tenant", "owner", "state",
                 "length", "payload")

    def __init__(self, capacity: int, pool: Any = None, tenant: Optional[str] = None):
        self.buffer_id = next(_buffer_ids)
        self.capacity = capacity
        self.pool = pool
        self.tenant = tenant
        self.owner: Optional[str] = None
        self.state = BufferState.FREE
        self.length = 0
        self.payload: Any = None

    # -- ownership ----------------------------------------------------------
    def check_owner(self, agent: str) -> None:
        """Raise unless ``agent`` currently owns this buffer."""
        if self.owner != agent:
            raise OwnershipError(
                f"buffer {self.buffer_id}: agent {agent!r} is not the owner "
                f"(owner={self.owner!r}, state={self.state})"
            )

    def transfer(self, from_agent: str, to_agent: str) -> None:
        """Token-passing ownership handoff (§3.5.1)."""
        self.check_owner(from_agent)
        self.owner = to_agent

    # -- data access (owner only) ---------------------------------------------
    def write(self, agent: str, payload: Any, length: int) -> None:
        """Fill the buffer with ``length`` bytes of (modeled) payload."""
        self.check_owner(agent)
        if length < 0 or length > self.capacity:
            raise ValueError(
                f"payload of {length} B does not fit buffer of {self.capacity} B"
            )
        self.payload = payload
        self.length = length

    def read(self, agent: str) -> Any:
        """Return the buffer's payload; owner only."""
        self.check_owner(agent)
        return self.payload


class BufferDescriptor:
    """The 16-byte token exchanged over IPC / Comch / RDMA send queues.

    ``message`` is the typed header (routing, reliability, trace
    context) that the real system packs into the descriptor and message
    headers — one :class:`~repro.dataplane.Message` instance rides the
    whole path by ownership handoff, never copied per hop.
    """

    __slots__ = ("buffer", "length", "message")

    def __init__(self, buffer: Buffer, length: int,
                 message: Optional[Message] = None):
        self.buffer = buffer
        self.length = length
        self.message = message if message is not None else Message()

    @property
    def wire_bytes(self) -> int:
        """Bytes this descriptor occupies on a channel."""
        return DESCRIPTOR_BYTES

    def derive(self, **overrides: Any) -> "BufferDescriptor":
        """New descriptor for the same buffer, header cloned + updated.

        For reverse paths (echoing a request buffer back): the derived
        header starts unowned and enters the ownership protocol at its
        first transfer.
        """
        return BufferDescriptor(buffer=self.buffer, length=self.length,
                                message=self.message.clone(**overrides))
