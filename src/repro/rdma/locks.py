"""Distributed synchronization for the one-sided baselines (§2.1, Fig. 2).

The paper's OWDL baseline coordinates one-sided writes with either a
distributed lock or MPI-style rendezvous.  Fig. 12 benchmarks the lock
variant against two-sided RDMA, so the lock is what is modelled here:
:class:`DistributedLock` spins on a remote 8-byte word with RDMA CAS
and releases with a CAS back to 0.  Each acquire attempt costs a full
fabric round trip, which is exactly why OWDL loses.
"""

from __future__ import annotations

import itertools
from ..config import CostModel
from ..sim import Environment

from .fabric import RdmaFabric
from .qp import QueuePair
from .rnic import AtomicWord
from .verbs import Opcode, WorkRequest

__all__ = ["DistributedLock", "LockStats"]


class LockStats:
    """Counters describing distributed-lock behaviour."""

    def __init__(self):
        self.acquires = 0
        self.cas_attempts = 0
        self.contended_retries = 0


class DistributedLock:
    """A CAS-based spin lock on a remote lock word."""

    _ids = itertools.count(1)

    def __init__(
        self,
        env: Environment,
        fabric: RdmaFabric,
        home_node: str,
        cost: CostModel,
        name: str = "",
    ):
        self.env = env
        self.fabric = fabric
        self.cost = cost
        self.word = AtomicWord(home_node, 0, name or f"dlock{next(self._ids)}")
        self.stats = LockStats()

    def _cas(self, qp: QueuePair, holder_id: int, compare: int, swap: int):
        """Generator: one CAS round trip, returns the old value."""
        rnic = self.fabric.rnic(qp.local_node)
        wr = WorkRequest(opcode=Opcode.CAS, compare=compare, swap=swap,
                         signaled=False, word=self.word)
        completion = yield from rnic.execute(qp, wr)
        self.stats.cas_attempts += 1
        return completion.old_value

    def acquire(self, qp: QueuePair, holder_id: int):
        """Generator: spin until the lock word is ours."""
        backoff = self.cost.dist_lock_overhead_us
        while True:
            old = yield from self._cas(qp, holder_id, 0, holder_id)
            if old == 0:
                self.stats.acquires += 1
                # protocol bookkeeping beyond the raw CAS round trips
                yield self.env.timeout(self.cost.dist_lock_overhead_us)
                return
            self.stats.contended_retries += 1
            yield self.env.timeout(backoff)
            backoff = min(backoff * 2, 64.0)

    def release(self, qp: QueuePair, holder_id: int):
        """Generator: CAS the word back to free."""
        old = yield from self._cas(qp, holder_id, holder_id, 0)
        if old != holder_id:
            raise RuntimeError(
                f"lock {self.word.name} released by non-holder {holder_id} (word={old})"
            )
