"""A capacity-c FIFO server: the reference the busy-until models are
checked against.

The simulator has no such server: every server in it knows each hold
time when it is claimed, so a core pool is a heap of busy-until floats
(``repro.hw.cpu``) and a NIC pipe, a link or the SoC DMA engine is one
float.  This is the claim/release server they replaced, kept here so
property tests can run both on the same claims and compare the end
times and busy times bit for bit.
"""

from typing import List

from repro.sim import Environment, Event, SimulationError

__all__ = ["Resource", "Request"]


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
