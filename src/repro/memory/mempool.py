"""Pool-based buffer allocation (rte_mempool-style, §3.4).

Palladium reserves equal-size buffers up front in hugepage-backed pools
so functions never call ``malloc`` on the critical path.  The pool is
fixed-size; exhausting it raises an error (back-pressure in the
callers keeps this from happening in steady state).

Hugepage accounting matters for the RNIC: using 2 MB pages keeps the
Memory Translation Table small (§3.4), which the RDMA layer's MTT cache
model consumes via :attr:`MemoryPool.mtt_entries`.
"""

from __future__ import annotations

import math
from typing import List

from ..sim import Environment, Store

from .buffer import Buffer, BufferState, OwnershipError

__all__ = ["MemoryPool", "PoolExhausted"]


class PoolExhausted(RuntimeError):
    """``get`` was called on an empty fixed-size pool."""


class MemoryPool:
    """A tenant's unified memory pool of fixed-size buffers.

    The pool lives in host memory; the same buffers serve intra-node
    shared-memory transfers and inter-node RDMA (that unification is the
    paper's zero-copy enabler, §3.4).  ``get``/``put`` mirror
    ``rte_mempool_get``/``rte_mempool_put``.
    """

    def __init__(
        self,
        env: Environment,
        tenant: str,
        buffer_count: int,
        buffer_bytes: int,
        hugepage_bytes: int = 2 * 1024 * 1024,
        name: str = "",
    ):
        if buffer_count < 1 or buffer_bytes < 1:
            raise ValueError("pool needs at least one buffer of at least one byte")
        self.env = env
        self.tenant = tenant
        self.buffer_bytes = buffer_bytes
        self.buffer_count = buffer_count
        self.name = name or f"pool:{tenant}"
        self.hugepage_bytes = hugepage_bytes
        #: number of 2 MB hugepages backing the pool
        self.hugepages = max(1, math.ceil(buffer_count * buffer_bytes / hugepage_bytes))
        self._free: Store = Store(env, name=f"{self.name}-free")
        self._all: List[Buffer] = []
        for _ in range(buffer_count):
            buf = Buffer(buffer_bytes, pool=self, tenant=tenant)
            self._all.append(buf)
            self._free.items.append(buf)
        self.gets = 0
        self.puts = 0

    @property
    def mtt_entries(self) -> int:
        """RNIC translation entries needed to register this pool."""
        return self.hugepages

    @property
    def free_count(self) -> int:
        return len(self._free.items)

    def get(self, owner: str) -> Buffer:
        """Take a free buffer, assigning ownership to ``owner``.

        Non-blocking; raises :class:`PoolExhausted` when empty, like
        ``rte_mempool_get`` returning ``-ENOENT``.
        """
        buf = self._free.try_get()
        if buf is None:
            raise PoolExhausted(f"{self.name}: no free buffers")
        buf.owner = owner
        buf.state = BufferState.IN_USE
        buf.length = 0
        buf.payload = None
        self.gets += 1
        return buf

    def get_wait(self, owner: str):
        """Generator: like :meth:`get` but blocks until a buffer frees."""
        event = self._free.get()
        buf = yield event
        buf.owner = owner
        buf.state = BufferState.IN_USE
        buf.length = 0
        buf.payload = None
        self.gets += 1
        return buf

    def put(self, buffer: Buffer, owner: str) -> None:
        """Recycle a buffer; only its current owner may do so."""
        buffer.check_owner(owner)
        if buffer.pool is not self:
            raise OwnershipError(
                f"buffer {buffer.buffer_id} belongs to {buffer.pool and buffer.pool.name}, "
                f"not {self.name}"
            )
        if buffer.state == BufferState.FREE:
            raise OwnershipError(f"double free of buffer {buffer.buffer_id}")
        buffer.owner = None
        buffer.state = BufferState.FREE
        buffer.payload = None
        buffer.length = 0
        self.puts += 1
        self._free.put_nowait(buffer)
