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
  ingress worker, FUYAO poller) owns a core outright and reports
  *useful* vs *occupied* time separately (:meth:`CorePool.allocate_pinned`,
  :meth:`PinnedCore.run`), which is exactly the distinction Palladium's
  ingress autoscaler measures (§3.6) and Fig. 16 (4)-(6) plot.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim import Environment, Resource, UtilizationTracker

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
        self.tracker = UtilizationTracker(self.name)
        self._pinned = False
        self._pool_slot = None
        #: serializes work items: one core executes one thing at a time
        self._slot = Resource(env, capacity=1, name=f"{self.name}-slot")

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

    def run(self, *charges: Tuple[str, float]):
        """Spend the ``(category, host_us)`` charges here; ``yield from`` it.

        The elapsed simulated time is scaled by the core's speed factor
        and recorded as useful time; work items serialize on the core.
        The work is accounted when ``run`` is called, and the returned
        generator holds the core for it.
        """
        if not self._pinned:
            raise RuntimeError(f"core {self.name!r} is not pinned")
        duration = _spend(self.env, self.pool.factor, charges)
        self.tracker.add_useful(duration)
        return self._slot.use(duration)

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

    def run(self, *charges: Tuple[str, float]):
        """Spend the ``(category, host_us)`` charges on any core; ``yield
        from`` it (accounted when called, like :meth:`PinnedCore.run`)."""
        return self.resource.use(_spend(self.env, self.factor, charges))

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
