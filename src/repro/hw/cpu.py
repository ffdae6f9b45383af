"""Processor models: host x86 cores and wimpy DPU ARM cores.

Work is expressed in *host-core microseconds*; running the same work on
a DPU core inflates it by the calibrated ``dpu_cost_factor`` (the
Bluefield-2's A72 cores run at 2.0 GHz vs 3.7 GHz on the host, §4.3.1).

Two usage patterns appear in the data plane:

* **Scheduled work** — a function or stack component claims any free
  core in a pool for the duration of a piece of work
  (:meth:`CorePool.execute`).
* **Pinned busy-polling** — a run-to-completion loop (DNE worker,
  ingress worker, FUYAO poller) owns a core outright and reports
  *useful* vs *occupied* time separately (:meth:`CorePool.pin`), which
  is exactly the distinction Palladium's ingress autoscaler measures
  (§3.6) and Fig. 16 (4)-(6) plot.
"""

from __future__ import annotations

from typing import List

from ..sim import Environment, Resource, UtilizationTracker

__all__ = ["CoreKind", "CorePool", "PinnedCore"]


class CoreKind:
    """Processor families used in the testbed."""

    X86 = "x86"
    ARM = "arm"


class PinnedCore:
    """A core dedicated to one busy-polling loop.

    The loop occupies the core at 100 % whenever pinned (as the paper
    observes for the DNE: "maintaining 100 % utilization of the assigned
    wimpy DPU core regardless of the load").  Useful work performed in
    the loop is accounted via :meth:`work`, so experiments can report
    both raw occupancy and useful utilization.
    """

    def __init__(self, env: Environment, pool: "CorePool", name: str = ""):
        self.env = env
        self.pool = pool
        self.name = name or f"{pool.name}-pinned"
        self.tracker = UtilizationTracker(self.name)
        self._pinned = False
        self._pool_slot = None
        #: serializes work items: one core executes one thing at a time
        self._slot = Resource(env, capacity=1, name=f"{self.name}-slot")
        #: reusable sentinel for the uncontended ``work`` fast path
        #: (capacity 1: at most one fast-path holder at a time)
        self._token = object()

    @property
    def factor(self) -> float:
        return self.pool.factor

    def pin(self) -> None:
        """Dedicate the core (counts as fully busy from now on).

        The pinned loop holds one slot of the pool's scheduler outright,
        so a pool whose every core is pinned admits no scheduled work.
        """
        if self._pinned:
            return
        self._pool_slot = self.pool.resource.request()
        if not self._pool_slot.triggered:
            raise RuntimeError(
                f"cannot pin {self.name!r}: all cores of {self.pool.name!r} busy"
            )
        self.tracker.begin_busy(self.env.now)
        self._pinned = True

    def unpin(self) -> None:
        """Release the core back to the pool."""
        if not self._pinned:
            return
        self.pool.resource.release(self._pool_slot)
        self._pool_slot = None
        self.tracker.end_busy(self.env.now)
        self._pinned = False

    def work(self, host_us: float):
        """Generator: spend ``host_us`` of host-equivalent work here.

        The elapsed simulated time is scaled by the core's speed factor
        and recorded as useful time.

        Uncontended work items (the overwhelmingly common case for a
        run-to-completion loop that serializes its own work) take a
        token fast path through the slot resource: no Request object,
        no grant-event round-trip — just the timeout.  Contended items
        fall back to the full request/queue path.
        """
        if not self._pinned:
            raise RuntimeError(f"core {self.name!r} is not pinned")
        duration = host_us * self.pool.factor
        self.tracker.add_useful(duration)
        slot = self._slot
        users = slot.users
        if not users and not slot.queue:
            # inlined _account(): empty users accrues zero busy area
            slot._last_change = self.env._now
            token = self._token
            users.append(token)
            try:
                yield self.env.timeout(duration)
            finally:
                slot.release(token)
            return
        req = slot.request()
        yield req
        try:
            yield self.env.timeout(duration)
        finally:
            slot.release(req)

    def work_time(self, host_us: float) -> float:
        """Scaled duration of ``host_us`` of work without yielding."""
        return host_us * self.pool.factor

    #: common compute-context protocol (shared with CorePool.run)
    run = work

    def useful_utilization(self, since: float = 0.0) -> float:
        """Fraction of wall time spent on useful work since ``since``."""
        return self.tracker.useful_fraction(self.env.now, since)


class CorePool:
    """A pool of identical cores with shared-queue scheduling."""

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
        self.resource = Resource(env, capacity=cores, name=name)
        self.pinned: List[PinnedCore] = []

    def allocate_pinned(self, name: str = "") -> PinnedCore:
        """Create and pin a dedicated core for a busy-poll loop."""
        core = PinnedCore(self.env, self, name=name)
        core.pin()
        self.pinned.append(core)
        return core

    def execute(self, host_us: float):
        """Generator: run ``host_us`` of host-equivalent work on any core.

        Uncontended runs (free core, empty queue) take the token fast
        path — no Request object, no grant round-trip; busy-time
        accounting is identical on both paths.
        """
        duration = host_us * self.factor
        res = self.resource
        users = res.users
        if len(users) < res.capacity and not res.queue:
            # inlined _account() (request() would do the same)
            now = self.env._now
            res._busy_area += len(users) * (now - res._last_change)
            res._last_change = now
            token = object()
            users.append(token)
            try:
                yield self.env.timeout(duration)
            finally:
                res.release(token)
            return
        req = res.request()
        yield req
        try:
            yield self.env.timeout(duration)
        finally:
            res.release(req)

    #: common compute-context protocol (shared with PinnedCore.run)
    run = execute

    def total_busy_time(self) -> float:
        """Cumulative core-us consumed (scheduled + pinned occupancy).

        Take two snapshots and divide the delta by the window length to
        get windowed utilization.
        """
        return self.resource.busy_time()

    def utilization_pct(self, since: float = 0.0, baseline_busy: float = 0.0) -> float:
        """Pool usage in percent-of-one-core over ``[since, now]``.

        ``baseline_busy`` must be the :meth:`total_busy_time` snapshot
        taken at ``since`` (0 when measuring from the start).
        """
        elapsed = self.env.now - since
        if elapsed <= 0:
            return 0.0
        return 100.0 * (self.total_busy_time() - baseline_busy) / elapsed
