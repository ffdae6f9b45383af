"""Tests for processor models (repro.hw.cpu)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import CoreKind, CorePool
from repro.sim import Environment
from repro.telemetry import Telemetry

from .resource_reference import Resource


def test_core_pool_requires_cores():
    with pytest.raises(ValueError):
        CorePool(Environment(), 0)


def test_execute_takes_scaled_time():
    env = Environment()
    pool = CorePool(env, 2, CoreKind.ARM, factor=1.6)
    done = []

    def worker():
        yield pool.run(("app", 10))
        done.append(env.now)

    env.process(worker())
    env.run()
    assert done == [pytest.approx(16.0)]


def test_pool_schedules_across_cores():
    env = Environment()
    pool = CorePool(env, 2)
    done = []

    def worker(i):
        yield pool.run(("app", 10))
        done.append((i, env.now))

    for i in range(4):
        env.process(worker(i))
    env.run()
    assert [t for _, t in done] == [10.0, 10.0, 20.0, 20.0]


def test_run_on_a_fully_pinned_pool_raises():
    # pin rule 1: no claim waits for an unpin
    env = Environment()
    pool = CorePool(env, 2, name="dpu")
    pool.allocate_pinned("a")
    pool.allocate_pinned("b")
    assert len(pool.pinned) == 2
    with pytest.raises(RuntimeError, match="'dpu'"):
        pool.run(("app", 1))


def test_failed_pin_leaks_no_core():
    """A pin refused on a busy pool leaves nothing behind: a later
    claim still gets the core."""
    env = Environment()
    pool = CorePool(env, 1)
    done = []

    def worker(at, us):
        yield env.timeout(at)
        yield pool.run(("app", us))
        done.append(env.now)

    def pinner():
        yield env.timeout(1)
        with pytest.raises(RuntimeError, match="busy"):
            pool.allocate_pinned("late")

    env.process(worker(0, 10))
    env.process(pinner())
    env.process(worker(20, 5))
    env.run()
    assert done == [10.0, 25.0]
    assert pool.pinned == []


def test_pinned_core_work_scaled_and_serialized():
    env = Environment()
    pool = CorePool(env, 2, CoreKind.ARM, factor=2.0)
    core = pool.allocate_pinned("dne")
    done = []

    def worker(i):
        yield core.run(("app", 5))
        done.append((i, env.now))

    env.process(worker(0))
    env.process(worker(1))
    env.run()
    # two 5-host-us items at factor 2.0 serialize on the single core
    assert done == [(0, 10.0), (1, 20.0)]


def test_pinned_work_requires_pin():
    env = Environment()
    pool = CorePool(env, 1)
    core = pool.allocate_pinned("x")
    core.unpin()
    with pytest.raises(RuntimeError):
        core.run(("app", 1))


def test_pinned_core_tracks_useful_time():
    env = Environment()
    pool = CorePool(env, 1)
    core = pool.allocate_pinned("loop")

    def worker():
        yield core.run(("app", 25))

    env.process(worker())
    env.run(until=100)
    assert core.useful == 25.0
    # the pinned core is occupied 100% regardless of useful work
    assert pool.total_busy_time() == 100.0


def test_run_advances_clock_by_left_fold_of_charges():
    # exactly 0.1 + 0.2 + 0.3, not the compensated sum() of Python 3.12
    for make in (lambda env: CorePool(env, 1),
                 lambda env: CorePool(env, 1).allocate_pinned("x")):
        env = Environment()
        core = make(env)

        def worker():
            yield core.run(("app", 0.1), ("copy", 0.2), ("protocol", 0.3))

        env.process(worker())
        env.run()
        assert env.now == 0.1 + 0.2 + 0.3
        assert env.now != 0.6


def test_run_charges_each_part_to_the_cycle_ledger():
    env = Environment()
    Telemetry.install(env)
    pool = CorePool(env, 2, CoreKind.ARM, factor=2.0)
    core = pool.allocate_pinned("dne")

    def worker():
        yield pool.run(("copy", 3.0), ("protocol", 1.0))
        yield core.run(("descriptor", 2.0), ("copy", 0.5))

    env.process(worker())
    env.run()
    ledger = env.telemetry.cycles
    assert env.now == 13.0
    assert ledger.us("copy") == 7.0
    assert ledger.us("protocol") == 2.0
    assert ledger.us("descriptor") == 4.0
    assert ledger.total_us() == env.now


def test_total_busy_time_includes_pinned_and_scheduled():
    env = Environment()
    pool = CorePool(env, 4)
    pool.allocate_pinned("loop")

    def worker():
        yield pool.run(("app", 50))

    env.process(worker())
    env.run(until=100)
    # pinned core: 100 us occupied; scheduled: 50 us
    assert pool.total_busy_time() == 150.0


def test_total_busy_time_snapshot_delta():
    env = Environment()
    pool = CorePool(env, 4)

    def worker():
        yield pool.run(("app", 10))
        yield env.timeout(10)
        yield pool.run(("app", 10))

    env.process(worker())
    env.run(until=10)
    snap = pool.total_busy_time()
    env.run(until=40)
    assert pool.total_busy_time() - snap == pytest.approx(10.0)


def test_unpin_returns_the_core_to_later_claims():
    # pin rule 2: the core is free again from the unpin on
    env = Environment()
    pool = CorePool(env, 1)
    core = pool.allocate_pinned("hog")
    done = []

    def worker():
        yield env.timeout(20)
        core.unpin()
        yield pool.run(("app", 5))
        done.append(env.now)

    env.process(worker())
    env.run()
    assert done == [25.0]
    assert pool.total_busy_time() == 25.0  # pinned to 20, then the claim


# Ties are the interesting case for a FIFO: draw from a few shared
# values as well as from the continuum.
_times = st.one_of(st.sampled_from([0.0, 0.3, 0.7, 1.65, 2.0]),
                   st.floats(min_value=0.0, max_value=50.0))
_holds = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 2.0]),
                   st.floats(min_value=0.0, max_value=10.0))


@settings(max_examples=200, deadline=None)
@given(cores=st.integers(min_value=1, max_value=4),
       pins=st.integers(min_value=0, max_value=3),
       claims=st.lists(st.tuples(_times, _holds), min_size=1, max_size=12),
       reads=st.lists(_times, max_size=4))
def test_core_pool_matches_the_fifo_reference(cores, pins, claims, reads):
    """Busy-until cores against a capacity-``cores`` FIFO server, with
    setup-time pins: every end time and every busy-time read agree bit
    for bit."""
    pins = min(pins, cores - 1)

    def simulate(claim, busy_time):
        ends, seen = {}, []

        def claimant(i, at, hold):
            yield env.timeout(at)
            yield from claim(hold)
            ends[i] = env.now

        def reader(at):
            yield env.timeout(at)
            seen.append(busy_time())

        for i, (at, hold) in enumerate(claims):
            env.process(claimant(i, at, hold))
        for at in reads:
            env.process(reader(at))
        env.run()
        seen.append(busy_time())
        return ends, seen

    env = Environment()
    res = Resource(env, capacity=cores)
    for _ in range(pins):
        res.request()
    reference = simulate(res.use, res.busy_time)

    env = Environment()
    pool = CorePool(env, cores)
    for k in range(pins):
        pool.allocate_pinned(f"pin{k}")

    def run(hold):
        yield pool.run(("app", hold))

    assert simulate(run, pool.total_busy_time) == reference
