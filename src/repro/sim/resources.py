"""Shared-resource primitives for the simulation kernel.

Provides SimPy-style resources used throughout the reproduction:

* :class:`Resource` — a server with fixed capacity and a FIFO wait
  queue.  CPU cores, DMA engines and NIC processing pipelines are
  built on this.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.
  Message queues, completion queues and rings are built on this.

Hot-path notes (docs/PERFORMANCE.md): stores keep their items and
waiter lists in :class:`collections.deque` so the FIFO pop is O(1);
immediately-satisfiable ``get``\\ s reuse pooled ``_GetEvent`` objects
via :meth:`Environment.completed_event`; ``Resource.request`` builds
the grant without an ``__init__`` chain.

Batched draining: :meth:`Store.poll_batch` (blocking, fires with a
non-empty list) lets one consumer wakeup take every ready item — a
polling loop built on it costs one generator round-trip per *burst*
instead of one per item.  Batch getters take items in FIFO arrival
order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .core import Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Store"]


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


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ()


class Resource:
    """A server with ``capacity`` identical slots and a FIFO wait queue.

    The holder must call :meth:`release` with the granted request.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: List[Request] = []
        # busy-time accounting for utilization reports
        self._busy_area = 0.0
        self._last_change = env.now

    def _account(self) -> None:
        now = self.env._now
        self._busy_area += len(self.users) * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Aggregate slot-busy time (slot-microseconds) so far."""
        self._account()
        return self._busy_area

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        env = self.env
        users = self.users
        # inlined _account()
        now = env._now
        self._busy_area += len(users) * (now - self._last_change)
        self._last_change = now
        # Build the grant without the Event __init__ chain.
        req = Request.__new__(Request)
        req.env = env
        req._value = None
        req.defused = False
        req._ok = True
        if len(users) < self.capacity and not self.queue:
            users.append(req)
            # Fast path: granted immediately, no trip through the heap.
            req._triggered = True
            req._processed = True
            req.callbacks = None
        else:
            req._triggered = False
            req._processed = False
            req.callbacks = []
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        users = self.users
        # inlined _account()
        now = self.env._now
        self._busy_area += len(users) * (now - self._last_change)
        self._last_change = now
        try:
            users.remove(request)
        except ValueError:
            raise SimulationError(f"release of non-held request on {self.name!r}")
        queue = self.queue
        while queue and len(users) < self.capacity:
            nxt = queue.pop(0)
            users.append(nxt)
            nxt.succeed()

    def use(self, duration: float):
        """Generator helper: hold one slot for ``duration`` time units.

        Uncontended holds take a token fast path: the slot is marked
        busy with a plain sentinel instead of a full :class:`Request`,
        skipping the request event round-trip.  Busy-time accounting
        and release-time queue grants are identical on both paths.
        """
        users = self.users
        if len(users) < self.capacity and not self.queue:
            # inlined _account() (request() would do the same)
            now = self.env._now
            self._busy_area += len(users) * (now - self._last_change)
            self._last_change = now
            token = object()
            users.append(token)
            try:
                yield self.env.timeout(duration)
            finally:
                self.release(token)
            return
        req = self.request()
        yield req
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(req)


class Store:
    """Unbounded FIFO item store with blocking ``get``."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.put_count = 0
        self.get_count = 0

    def put_nowait(self, item: Any) -> None:
        """Insert ``item``, handing it to the oldest waiting getter."""
        self.items.append(item)
        self.put_count += 1
        if self._getters:
            self._dispatch()

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
