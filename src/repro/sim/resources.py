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

Batched draining: :meth:`Store.poll_batch` (blocking, fires with a
non-empty list) lets one consumer wakeup take every ready item — a
polling loop built on it costs one generator round-trip per *burst*
instead of one per item.  Batch getters take items in FIFO arrival
order.

Sinks: a store can have one consumer callback (:meth:`Store.set_sink`).
A put on a store with a sink counts the put and passes the item
straight to the sink, with no event or consumer process in between.
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
    #: batch getters are dispatched with a list of items, not one item
    _batch = False


class _BatchGetEvent(_GetEvent):
    """Internal: a pending Store.poll_batch; fires with a list of items."""

    __slots__ = ()

    _batch = True


class Store:
    """Unbounded FIFO item store with blocking ``get``."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.put_count = 0
        self.get_count = 0
        #: the consumer callback puts go to instead of ``items``
        self._sink: Optional[Callable[[Any], None]] = None

    def put_nowait(self, item: Any) -> None:
        """Hand ``item`` to the sink, or to the oldest waiting getter."""
        self.put_count += 1
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
            self.get_count += 1
            return self.env.completed_event(items.popleft(), _GetEvent)
        event = _GetEvent(self.env)
        self._getters.append(event)
        if items:
            self._dispatch()
        return event

    def poll_batch(self) -> Event:
        """Blocking batch get: fires with the list of all ready items.

        If items are ready now, fires synchronously (completed-event
        fast path, no heap trip) with every queued item in FIFO order.
        Otherwise the returned event joins the getter queue and fires
        as a non-empty list the moment items arrive.  One kernel wakeup
        per burst instead of one per item.
        """
        items = self.items
        if items and not self._getters:
            batch = list(items)
            items.clear()
            self.get_count += len(batch)
            return self.env.completed_event(batch, _BatchGetEvent)
        event = _BatchGetEvent(self.env)
        self._getters.append(event)
        if items:
            self._dispatch()
        return event

    def _dispatch(self) -> None:
        getters = self._getters
        items = self.items
        while getters and items:
            getter = getters.popleft()
            if getter._batch:
                batch = list(items)
                items.clear()
                self.get_count += len(batch)
                getter.succeed(batch)
            else:
                self.get_count += 1
                getter.succeed(items.popleft())

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop the oldest item or return ``None``."""
        if self.items and not self._getters:
            self.get_count += 1
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
