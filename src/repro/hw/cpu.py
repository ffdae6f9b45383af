"""Processor models: host x86 cores and wimpy DPU ARM cores.

Work is expressed in *host-core microseconds*; running the same work on
a DPU core inflates it by the calibrated ``dpu_cost_factor`` (the
Bluefield-2's A72 cores run at 2.0 GHz vs 3.7 GHz on the host, §4.3.1).

Both core kinds take work through one method, ``run(*charges)``.  Each
charge is a ``(category, host_us)`` pair naming what the work is for
(one of :data:`repro.telemetry.CYCLE_CATEGORIES`).  The core runs for
the charges' host-µs summed left to right, times its speed factor, and
when telemetry is installed it charges each part (times the factor) to
the cycle ledger itself.  So each CPU cost is stated once, at its call
site, and the ledger holds exactly the work the cores executed.

Two usage patterns appear in the data plane:

* **Scheduled work** — a function or stack component claims any free
  core in a pool for the duration of a piece of work
  (:meth:`CorePool.run`).
* **Pinned busy-polling** — a run-to-completion loop (DNE worker,
  ingress worker, FUYAO poller) owns a core outright and reports its
  *useful* time apart from the occupancy (:meth:`CorePool.allocate_pinned`,
  :meth:`PinnedCore.run`), which is exactly the distinction Palladium's
  ingress autoscaler measures (§3.6) and Fig. 16 (4)-(6) plot.

Since each hold time is known when the work is claimed, a core is a
busy-until float: a claim starts at ``max(now, the earliest free
time)`` and ends at ``start + duration``.  ``run`` returns the timeout
at that end (``env.timeout_at``), which the caller yields.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import List, Tuple

from ..sim import Environment, Timeout

__all__ = ["CoreKind", "CorePool", "PinnedCore", "work_us"]


def work_us(charges: Tuple[Tuple[str, float], ...]) -> float:
    """Host-µs of ``charges``, summed left to right.

    An explicit loop, not ``sum()``: from Python 3.12 ``sum()`` of
    floats compensates rounding, so the same charges would give a
    different float than a plain ``a + b + c``.
    """
    host_us = 0.0
    for _, part in charges:
        host_us += part
    return host_us


def _spend(env: Environment, factor: float,
           charges: Tuple[Tuple[str, float], ...]) -> float:
    """Scaled duration of ``charges``; charges the cycle ledger too."""
    tel = env.telemetry
    if tel is not None:
        charge = tel.cycles.charge
        for category, part in charges:
            charge(category, part * factor)
    return work_us(charges) * factor


class CoreKind:
    """Processor families used in the testbed."""

    X86 = "x86"
    ARM = "arm"


class PinnedCore:
    """A core dedicated to one busy-polling loop.

    The loop occupies the core at 100 % whenever pinned (as the paper
    observes for the DNE: "maintaining 100 % utilization of the assigned
    wimpy DPU core regardless of the load").  Useful work performed in
    the loop is accounted via :meth:`run`, so experiments can report
    both raw occupancy and useful utilization.
    """

    def __init__(self, env: Environment, pool: "CorePool", name: str = ""):
        self.env = env
        self.pool = pool
        self.name = name or f"{pool.name}-pinned"
        #: µs of useful work run here (what the §3.6 autoscaler reads)
        self.useful = 0.0
        self._pinned = False
        #: when the core next falls idle: work items run one at a time
        self._free = env.now

    @property
    def factor(self) -> float:
        return self.pool.factor

    def pin(self) -> None:
        """Dedicate an idle core of the pool (fully busy from now on)."""
        if not self._pinned:
            self.pool._pin(self.name)
            self._pinned = True

    def unpin(self) -> None:
        """Return the core to the pool."""
        if self._pinned:
            self.pool._unpin()
            self._pinned = False

    def run(self, *charges: Tuple[str, float]) -> Timeout:
        """Spend the ``(category, host_us)`` charges here; ``yield`` the
        returned timeout, which fires when the work is done.

        The elapsed simulated time is scaled by the core's speed factor
        and recorded as useful time; work items serialize on the core.
        """
        if not self._pinned:
            raise RuntimeError(f"core {self.name!r} is not pinned")
        duration = _spend(self.env, self.pool.factor, charges)
        self.useful += duration
        now = self.env._now
        start = self._free if self._free > now else now
        self._free = end = start + duration
        return self.env.timeout_at(end)


class CorePool:
    """A pool of identical cores with one FIFO queue.

    Each unpinned core is the time it next falls idle, kept in a heap.
    A claim takes the core that frees first, which is the FCFS
    multi-server recursion: with every hold time known at the claim,
    it ends each claim at exactly the float a capacity-``cores`` FIFO
    server would.

    Pinning (:meth:`allocate_pinned`) takes an idle core out of the
    heap for good, with two rules:

    1. :meth:`run` on a pool whose every core is pinned raises
       :class:`RuntimeError` naming the pool; no claim waits on an
       unpin.
    2. :meth:`PinnedCore.unpin` returns its core at ``now``, to claims
       made after that.
    """

    def __init__(
        self,
        env: Environment,
        cores: int,
        kind: str = CoreKind.X86,
        factor: float = 1.0,
        name: str = "cpu",
    ):
        if cores < 1:
            raise ValueError("a core pool needs at least one core")
        self.env = env
        self.kind = kind
        self.factor = factor
        self.name = name
        self.total_cores = cores
        self.pinned: List[PinnedCore] = []
        #: per unpinned core, the time it next falls idle (a heap)
        self._free: List[float] = [env.now] * cores
        # Busy time is integrated lazily, at the points where a FIFO
        # server would account it: claims, reads, pins and each hold's
        # start or end (``_edges``: pending ``(time, +1/-1)``).
        self._edges: List[Tuple[float, int]] = []
        self._busy = 0
        self._last = env.now
        self._area = 0.0

    def _account(self) -> float:
        """Integrate busy cores up to now; returns now."""
        now = self.env._now
        edges = self._edges
        busy, last, area = self._busy, self._last, self._area
        while edges and edges[0][0] <= now:
            when, step = heappop(edges)
            area += busy * (when - last)
            last = when
            busy += step
        self._area = area + busy * (now - last)
        self._busy = busy
        self._last = now
        return now

    def _pin(self, name: str) -> None:
        free = self._free
        if not free or free[0] > self.env._now:
            raise RuntimeError(
                f"cannot pin {name!r}: all cores of {self.name!r} busy"
            )
        self._account()
        heappop(free)
        self._busy += 1

    def _unpin(self) -> None:
        heappush(self._free, self._account())
        self._busy -= 1

    def allocate_pinned(self, name: str = "") -> PinnedCore:
        """Create and pin a dedicated core for a busy-poll loop."""
        core = PinnedCore(self.env, self, name=name)
        core.pin()
        self.pinned.append(core)
        return core

    def run(self, *charges: Tuple[str, float]) -> Timeout:
        """Spend the ``(category, host_us)`` charges on the core that
        frees first; ``yield`` the returned timeout (see
        :meth:`PinnedCore.run`)."""
        free = self._free
        if not free:
            raise RuntimeError(f"every core of {self.name!r} is pinned")
        duration = _spend(self.env, self.factor, charges)
        now = self._account()
        start = free[0]
        if start > now:  # every core busy: wait for the first to free
            heappush(self._edges, (start, 1))
        else:
            start = now
            self._busy += 1
        end = start + duration
        heapreplace(free, end)
        heappush(self._edges, (end, -1))
        return self.env.timeout_at(end)

    def total_busy_time(self) -> float:
        """Cumulative core-us consumed (scheduled + pinned occupancy).

        Take two snapshots and divide the delta by the window length to
        get windowed utilization.
        """
        self._account()
        return self._area
