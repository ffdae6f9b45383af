"""Discrete-event simulation kernel.

This module is the substrate for the entire Palladium reproduction: a
compact, deterministic, generator-based discrete-event engine in the
style of SimPy.  Simulated time is a ``float`` whose unit is
*microseconds* throughout the repository (the natural scale for RDMA
and DPU data-plane events; see :mod:`repro.config`).

The programming model:

* An :class:`Environment` owns the simulation clock and the event heap.
* A *process* is a Python generator that ``yield``\\ s :class:`Event`
  objects; the process is resumed when the yielded event fires.
* :meth:`Environment.timeout` creates an event that fires after a fixed
  delay; :meth:`Environment.event` creates a manually-triggered event.
* Processes are themselves events (they fire when the generator
  returns), so processes can wait on each other.
* :class:`AnyOf` / :class:`AllOf` fire (with ``None``) once any / all
  of their member events have fired; waiters read the members.

Determinism: events scheduled for the same instant fire in FIFO order
of scheduling (ties are broken by a monotonically increasing sequence
number), so repeated runs with the same seed produce identical traces.

Fast path (see docs/PERFORMANCE.md): the ready queue is one flat
binary heap of plain ``(time, priority, eid, event)`` tuples, and one
run loop pops it and runs callbacks inline; trigger sites push through
the environment's bound ``_push`` (a :func:`heapq.heappush` partial
over the heap).  Steady-state event churn recycles
:class:`Timeout`, completed-event, and :meth:`Environment.defer`
objects through per-class free lists, so the hot path does no
allocation beyond the queue tuple itself.  Recycling is guarded by
``sys.getrefcount``: an event is only returned to a pool when the
kernel provably holds the sole remaining reference, so user code that
retains an event (for ``.value``, ``AnyOf`` membership, a later
``release()``) always keeps a private object.  None of this changes
scheduling order: ``eid`` assignment and queue ordering are identical
to the reference kernel, so event counts and traces are byte-for-byte
reproducible.

Guard timers: :meth:`Timeout.cancel` withdraws a timer that lost its
race, and :meth:`Environment.within` is the guarded wait built on it.
Cancellation is lazy deletion, as asyncio does for its timer handles:
the timer drops its callbacks at once, its heap entry stays behind as
a dead entry that the run loop skips (no clock advance, not counted),
and the heap is rebuilt once dead entries outnumber live ones.  A
dead entry is a heap entry with no callbacks list that failed; a
``defer`` entry has no callbacks list either, but never fails.  A
cancelled timer never goes back to the free list: the garbage
collector takes it once its dead entry is gone.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "AnyOf",
    "AllOf",
]

#: Normal event priority.  Lower values fire earlier at the same time.
PRIORITY_NORMAL = 1
#: Urgent priority, used internally so a process resumption scheduled by
#: an event trigger happens before same-time normal events.
PRIORITY_URGENT = 0

#: Free-listed events kept per class; bounds pool memory, not churn.
_POOL_CAP = 512

try:
    _getrefcount = sys.getrefcount
except AttributeError:  # pragma: no cover - non-CPython: pooling off
    def _getrefcount(_obj: Any) -> int:
        return 1 << 30


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Event:
    """A one-shot occurrence that processes can wait for.

    An event can *succeed* (carrying a value) or *fail* (carrying an
    exception).  Callbacks registered on the event run when it fires.
    Waiting on a failed event re-raises its exception inside the
    waiting process unless the event is ``defused``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "defused")

    #: classes whose instances may be returned to a free list once the
    #: kernel holds the only reference (class attribute, no slot)
    _poolable = False

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        #: if True, an un-waited-for failure does not abort the run
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        env._eid += 1
        env._push((env._now, PRIORITY_NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        env._eid += 1
        env._push((env._now, PRIORITY_NORMAL, env._eid, self))
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    _poolable = True

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.defused = False
        env._eid += 1
        env._push((env._now + delay, PRIORITY_NORMAL, env._eid, self))

    def cancel(self) -> None:
        """Withdraw the timer: it never fires and is not counted in
        ``events_processed``.  Its callbacks are dropped at once, which
        releases whatever condition was waiting on it.  A no-op once
        the timer has fired or been cancelled.  Waiting on a cancelled
        timer raises :class:`SimulationError`.
        """
        if self.callbacks is None:
            return
        self.callbacks = None
        self._ok = False
        # Its own exception: a shared one would gather tracebacks from
        # every waiter it was raised in.
        self._value = SimulationError("waited on a cancelled timer")
        env = self.env
        env._cancelled += 1
        if env._cancelled * 2 > len(env._queue):
            env._compact()


class _Deferred(Event):
    """Internal: a pooled fire-and-forget callback (``Environment.defer``).

    Never escapes the kernel — ``defer()`` returns ``None`` — so it is
    recycled unconditionally after its callback slot runs.  It is
    scheduled with ``callbacks = None``; the run loop dispatches such
    heap entries through :meth:`_run_callbacks`.
    """

    __slots__ = ("fn",)

    def _run_callbacks(self) -> None:
        self._processed = True
        fn, self.fn = self.fn, None
        fn()
        pool = self.env._defer_pool
        if len(pool) < _POOL_CAP:
            self._processed = False
            pool.append(self)


class Initialize(Event):
    """Internal: kicks off a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self.defused = False
        env._eid += 1
        env._push((env._now, PRIORITY_URGENT, env._eid, self))


class Process(Event):
    """A running process; fires (as an event) when its generator returns.

    The value of the process-event is the generator's return value.  If
    the generator raises, the process-event fails with that exception.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    # -- internal ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        send = generator.send
        refs = _getrefcount
        while True:
            try:
                if event._ok:
                    value = event._value
                    # The outcome is extracted; if the kernel holds the
                    # only reference left, the event can be reused
                    # (inlined _recycle: sync-delivered events are
                    # completed-pool classes, never Timeout).
                    if event._poolable and refs(event) == 2:
                        event._value = None
                        event.defused = False
                        cls = event.__class__
                        pools = env._completed_pools
                        pool = pools.get(cls)
                        if pool is None:
                            pool = pools[cls] = []
                        if len(pool) < _POOL_CAP:
                            pool.append(event)
                    event = None
                    next_event = send(value)
                else:
                    # The exception is being delivered; mark it handled.
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self._triggered = True
                env._eid += 1
                env._push((env._now, PRIORITY_NORMAL, env._eid, self))
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._triggered = True
                env._eid += 1
                env._push((env._now, PRIORITY_NORMAL, env._eid, self))
                return

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                event._triggered = True
                continue

            if next_event.env is not env:
                raise SimulationError("cannot wait on an event from another environment")

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Not yet processed: register and suspend.
                callbacks.append(self._resume)
                return
            # Already processed: loop and deliver its outcome synchronously.
            event = next_event
            next_event = None


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite events.

    A condition succeeds with ``None``; waiters that need an outcome
    read it off the member events.  A failed member fails the
    condition with that member's exception.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("all events must share one environment")
        if not self._events:
            self.succeed()
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._satisfied():
            self.succeed()


class AnyOf(Condition):
    """Fires as soon as any of the given events fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self._events)


class Environment:
    """The simulation environment: clock, ready queue, and run loop."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Any] = []
        #: bound push for trigger sites; one partial beats an
        #: attribute walk + global lookup at every push site
        self._push: Callable[[tuple], None] = partial(heappush, self._queue)
        self._eid = 0
        #: cancelled timers whose heap entries are still in ``_queue``
        self._cancelled = 0
        #: events popped and dispatched so far
        self.events_processed = 0
        #: observability hook (``repro.telemetry.Telemetry`` or None).
        #: Instrumentation sites across the stack check this attribute;
        #: None (the default) means every site is a single attribute
        #: read — telemetry is strictly opt-in and purely passive.
        self.telemetry: Optional[Any] = None
        # -- free lists (see module docstring) -----------------------------
        self._timeout_pool: List[Timeout] = []
        self._defer_pool: List[_Deferred] = []
        #: class -> free list for completed-event fast paths (_GetEvent
        #: and friends register here via ``completed_event``/recycling)
        self._completed_pools: dict = {}

    @property
    def now(self) -> float:
        """Current simulated time (microseconds by repo convention)."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def completed_event(self, value: Any = None, cls: type = Event) -> Event:
        """An already-processed successful event (fast path).

        Yielding it resumes the process synchronously without a trip
        through the event heap; never yielding it costs nothing.  Used
        by resources/stores for immediately-satisfiable operations.
        """
        pool = self._completed_pools.get(cls)
        if pool:
            event = pool.pop()
            event._value = value
            return event
        event = cls.__new__(cls)
        event.env = self
        event.callbacks = None
        event._value = value
        event._ok = True
        event._triggered = True
        event._processed = True
        event.defused = False
        return event

    def _recycle(self, event: Event) -> None:
        """Return a processed, successful, kernel-exclusive event to
        its free list (callers guarantee those invariants)."""
        event._value = None
        event.defused = False
        cls = event.__class__
        if cls is Timeout:
            pool = self._timeout_pool
        else:
            pool = self._completed_pools.get(cls)
            if pool is None:
                pool = self._completed_pools[cls] = []
        if len(pool) < _POOL_CAP:
            pool.append(event)

    def defer(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` without spawning a process.

        A lightweight alternative to ``process()`` for fire-and-forget
        delayed actions (message deliveries, notifications).  The
        callback rides in a dedicated slot of a pooled kernel event —
        no closure, and steady-state no allocation.
        """
        self.defer_at(self._now + delay, fn)

    def defer_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute time ``when`` (see :meth:`defer`).

        Raises :class:`ValueError` if ``when`` is in the past.
        """
        if when < self._now:
            raise ValueError(f"defer_at({when}) is in the past (now={self._now})")
        pool = self._defer_pool
        if pool:
            event = pool.pop()
        else:
            event = _Deferred.__new__(_Deferred)
            event.env = self
            event.callbacks = None
            event._value = None
            event._ok = True
            event._triggered = True
            event._processed = False
            event.defused = False
        event.fn = fn
        self._eid += 1
        self._push((when, PRIORITY_NORMAL, self._eid, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            event = pool.pop()
            # Recycled timeouts are invariantly ok/triggered/defused=False
            # with _value None; only reset what recycling didn't.
            event.callbacks = []
            event._processed = False
            if value is not None:
                event._value = value
            self._eid += 1
            self._push((self._now + delay, PRIORITY_NORMAL, self._eid, event))
            return event
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that fires at absolute time ``when``.

        A chain of stages that knows its end times schedules each one
        exactly: in floats, ``now + (when - now)`` is not always
        ``when``.  Raises :class:`ValueError` if ``when`` is in the past.
        """
        if when < self._now:
            raise ValueError(f"timeout_at({when}) is in the past (now={self._now})")
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._processed = False
            if value is not None:
                event._value = value
        else:
            event = Timeout.__new__(Timeout)
            event.env = self
            event.callbacks = []
            event._value = value
            event._ok = True
            event._triggered = True
            event._processed = False
            event.defused = False
        self._eid += 1
        self._push((when, PRIORITY_NORMAL, self._eid, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def within(self, event: Event, delay: float) -> Generator:
        """Wait for ``event``, but for at most ``delay``.

        A generator: ``won = yield from env.within(event, delay)``.  It
        waits on ``AnyOf([event, timer])`` and returns
        ``event.triggered``.  When the event won, the guard timer is
        cancelled: it never fires, and it stops holding the wait.
        """
        timer = self.timeout(delay)
        yield AnyOf(self, (event, timer))
        if event._triggered:
            timer.cancel()
            return True
        return False

    def _compact(self) -> None:
        """Rebuild the heap without the cancelled timers' dead entries.

        Keys ``(time, priority, eid)`` are unique, so the rebuilt heap
        pops the live entries in exactly the order the old one would.
        The list is filtered in place: the run loop and ``_push`` hold
        references to it.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[3].callbacks is not None or entry[3]._ok]
        heapify(queue)
        self._cancelled = 0

    # -- run loop -----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        while queue:
            head = queue[0][3]
            if head.callbacks is not None or head._ok:
                break
            heappop(queue)  # a cancelled timer's dead entry
            self._cancelled -= 1
        return queue[0][0] if queue else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a finite number
        (run up to and including that simulated time), or an
        :class:`Event` of this environment (run until it fires,
        returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.env is not self:
                raise SimulationError(
                    "run(until=...) got an event from another environment")
            stop_event = until
            if stop_event._processed:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
        else:
            stop_time = float(until)
            if not math.isfinite(stop_time):
                raise ValueError(f"until must be a finite time, got {until!r}")
            if stop_time < self._now:
                raise ValueError(f"until ({stop_time}) is in the past (now={self._now})")

        self._run(stop_event, stop_time)

        if stop_event is not None:
            if not stop_event._processed:
                raise SimulationError(
                    "run() ran out of events before `until` event fired")
            if stop_event._ok:
                return stop_event._value
            stop_event.defused = True
            raise stop_event._value
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def _run(self, stop_event: Optional[Event], stop_time: float) -> None:
        # Tight inlined loop: one heap pop + direct callback dispatch
        # per event.  Almost every fired event has exactly one callback (a process
        # resume), so that case skips the loop machinery entirely.
        queue = self._queue
        pop = heappop
        refs = _getrefcount
        timeout_pool = self._timeout_pool
        processed = 0
        # An unbounded run skips the head compare: ~2% of dispatch
        # cost on timer-heavy mixes.
        bounded = stop_time != float("inf")
        try:
            while queue:
                if bounded and queue[0][0] > stop_time:
                    break
                when, _priority, _eid, event = pop(queue)
                cbs = event.callbacks
                if cbs is not None:
                    self._now = when
                    processed += 1
                    event.callbacks = None
                    event._processed = True
                    if len(cbs) == 1:
                        cbs[0](event)
                    else:
                        for callback in cbs:
                            callback(event)
                    if not event._ok:
                        if not event.defused:
                            raise event._value
                    elif event._poolable and refs(event) == 2:
                        # Inlined _recycle: heap-fired poolable
                        # events are overwhelmingly Timeouts.
                        if event.__class__ is Timeout:
                            if len(timeout_pool) < _POOL_CAP:
                                event._value = None
                                event.defused = False
                                timeout_pool.append(event)
                        else:
                            self._recycle(event)
                    if event is stop_event:
                        return
                elif event._ok:
                    # Only _Deferred entries are scheduled without a
                    # callbacks list; dispatch via their override.
                    self._now = when
                    processed += 1
                    event._run_callbacks()
                else:
                    # A cancelled timer's dead entry: the clock does
                    # not move and nothing is counted.
                    self._cancelled -= 1
        finally:
            self.events_processed += processed
