"""The item store of the simulation kernel.

:class:`Store` is an unbounded FIFO of items with blocking ``get``.
Message queues, completion queues and rings are built on it.  Servers
need no primitive here: every server in the model (a core, a DMA
engine, a NIC pipe, a link) knows each hold time when it is claimed,
so it is a busy-until float in its own device model (``repro.hw``,
``repro.rdma``).

Hot-path notes (docs/PERFORMANCE.md): stores keep their items and
waiter lists in :class:`collections.deque` so the FIFO pop is O(1);
immediately-satisfiable ``get``\\ s reuse pooled ``_GetEvent`` objects
via :meth:`Environment.completed_event`.

Sinks: a store can have one consumer callback (:meth:`Store.set_sink`).
A put on a store with a sink passes the item straight to the sink, with
no event or consumer process in between.  Every completion queue in the
model is consumed this way.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .core import Environment, Event

__all__ = ["Store"]


class _GetEvent(Event):
    """Internal: a pending Store.get."""

    __slots__ = ()

    #: fast-path gets are kernel-recycled once their value is delivered
    _poolable = True


class Store:
    """Unbounded FIFO item store with blocking ``get``."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        #: the consumer callback puts go to instead of ``items``
        self._sink: Optional[Callable[[Any], None]] = None

    def put_nowait(self, item: Any) -> None:
        """Hand ``item`` to the sink, or to the oldest waiting getter."""
        if self._sink is not None:
            self._sink(item)
            return
        self.items.append(item)
        if self._getters:
            self._dispatch()

    def set_sink(self, sink: Optional[Callable[[Any], None]]) -> None:
        """Pass every later put to ``sink`` (``None``: queue them again);
        items queued now go to the new sink first, in FIFO order."""
        while sink is not None and self.items:
            sink(self.items.popleft())
        self._sink = sink

    def get(self) -> Event:
        """Remove and return the oldest item; blocks while empty."""
        items = self.items
        if items and not self._getters:
            # Fast path: satisfy synchronously without the heap.
            return self.env.completed_event(items.popleft(), _GetEvent)
        event = _GetEvent(self.env)
        self._getters.append(event)
        if items:
            self._dispatch()
        return event

    def _dispatch(self) -> None:
        getters = self._getters
        items = self.items
        while getters and items:
            getters.popleft().succeed(items.popleft())

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop the oldest item or return ``None``."""
        if self.items and not self._getters:
            return self.items.popleft()
        return None

    def fail_getters(self, exc: BaseException) -> int:
        """Abort every pending ``get`` with ``exc``; returns the count.

        Used by fault injection to model a producer dying while
        consumers are blocked (e.g. senders stalled on a crashed node's
        receive queue).  Items already in the store are untouched.
        """
        getters, self._getters = self._getters, deque()
        for event in getters:
            event.fail(exc)
        return len(getters)
