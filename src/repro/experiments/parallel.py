"""Deterministic multiprocessing executor for experiment sweeps.

Every experiment is a grid of *independent* simulation points: each
point builds its own :class:`Environment`, seeds its own RNGs, and
returns a plain picklable value.  A ``run_*`` function declares its
points once, as a generator that yields ``(fn, args, kwargs)`` calls
and returns the result built from their outputs::

    @sweep
    def run_overload(configs, multipliers) -> Plan:
        points = yield [(run_overload_point, (c, m), {})
                        for c in configs for m in multipliers]
        return table(points)

The calls fan out through :func:`parallel_map` over ``REPRO_JOBS``
workers, the only worker-count setting (unset or 1: serial, in this
process).  Outputs merge in call order, so any worker count gives a
byte-identical result (docs/PERFORMANCE.md has the rules).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from typing import (Any, Callable, Dict, Generator, List, NamedTuple,
                    Sequence, Tuple)

__all__ = ["Plan", "Sweep", "default_jobs", "joined", "parallel_map", "sweep"]

Call = Tuple[Callable[..., Any], Sequence[Any], Dict[str, Any]]

#: a sweep declaration: yields its calls, gets their outputs, returns a result
Plan = Generator[List[Call], List[Any], Any]


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (defaults to 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}")


def _invoke(call: Call):
    fn, args, kwargs = call
    return fn(*args, **kwargs)


def parallel_map(calls: Sequence[Call]) -> List[Any]:
    """Run ``fn(*args, **kwargs)`` for each call, in-order results.

    With :func:`default_jobs` at 1 every call runs serially in this
    process; otherwise the calls fan out to a worker pool and the
    results return **in call order** (``Pool.map`` semantics).
    """
    calls = list(calls)
    jobs = default_jobs()
    if jobs <= 1 or len(calls) <= 1:
        return [_invoke(call) for call in calls]
    # fork (where available) shares the already-imported tree with the
    # workers; spawn re-imports it.  Point outputs do not depend on
    # inherited process state, so both start methods merge identically.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    with ctx.Pool(processes=min(jobs, len(calls))) as pool:
        return pool.map(_invoke, calls)


class Sweep(NamedTuple):
    """An experiment's points and how their outputs become its result."""

    calls: List[Call]
    assemble: Callable[[List[Any]], Any]

    def __call__(self) -> Any:
        return self.assemble(parallel_map(self.calls))


def joined(*sweeps: Sweep) -> Sweep:
    """One sweep over every point of ``sweeps``; it returns their results
    as a list, so an entry with several results fans out in one map."""
    bounds = [0]
    for part in sweeps:
        bounds.append(bounds[-1] + len(part.calls))
    return Sweep(
        [call for part in sweeps for call in part.calls],
        lambda outputs: [part.assemble(outputs[lo:hi]) for part, lo, hi
                         in zip(sweeps, bounds, bounds[1:])])


def sweep(declare: Callable[..., Plan]) -> Callable[..., Any]:
    """Make ``run_*`` from a generator that yields its calls once.

    ``run_x(...)`` runs the points and returns the result;
    ``run_x.sweep(...)`` returns the :class:`Sweep` unrun.  Assembling
    starts a fresh generator, so a sweep can run any number of times.
    """
    def declared(*args: Any, **kwargs: Any) -> Sweep:
        def assemble(outputs: List[Any]) -> Any:
            plan = declare(*args, **kwargs)
            next(plan)
            try:
                plan.send(outputs)
            except StopIteration as done:
                return done.value
            raise TypeError(f"{declare.__name__} yielded more than once")
        return Sweep(next(declare(*args, **kwargs)), assemble)

    @functools.wraps(declare)
    def run(*args: Any, **kwargs: Any) -> Any:
        return declared(*args, **kwargs)()

    run.sweep = declared  # type: ignore[attr-defined]
    return run
