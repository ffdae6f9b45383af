"""Tests for processor models (repro.hw.cpu)."""

import pytest

from repro.hw import CoreKind, CorePool
from repro.sim import Environment
from repro.telemetry import Telemetry


def test_core_pool_requires_cores():
    with pytest.raises(ValueError):
        CorePool(Environment(), 0)


def test_execute_takes_scaled_time():
    env = Environment()
    pool = CorePool(env, 2, CoreKind.ARM, factor=1.6)
    done = []

    def worker():
        yield from pool.run(("app", 10))
        done.append(env.now)

    env.process(worker())
    env.run()
    assert done == [pytest.approx(16.0)]


def test_pool_schedules_across_cores():
    env = Environment()
    pool = CorePool(env, 2)
    done = []

    def worker(i):
        yield from pool.run(("app", 10))
        done.append((i, env.now))

    for i in range(4):
        env.process(worker(i))
    env.run()
    assert [t for _, t in done] == [10.0, 10.0, 20.0, 20.0]


def test_pinned_core_occupies_core():
    env = Environment()
    pool = CorePool(env, 4)
    core = pool.allocate_pinned("loop")
    assert len(pool.resource.users) == 1
    core.unpin()
    assert pool.resource.users == []


def test_pinned_core_work_scaled_and_serialized():
    env = Environment()
    pool = CorePool(env, 2, CoreKind.ARM, factor=2.0)
    core = pool.allocate_pinned("dne")
    done = []

    def worker(i):
        yield from core.run(("app", 5))
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
        next(core.run(("app", 1)))


def test_pinned_core_tracks_useful_time():
    env = Environment()
    pool = CorePool(env, 1)
    core = pool.allocate_pinned("loop")

    def worker():
        yield from core.run(("app", 25))

    env.process(worker())
    env.run(until=100)
    assert core.tracker.useful == pytest.approx(25.0)
    assert core.useful_utilization() == pytest.approx(0.25)
    # the pinned core is occupied 100% regardless of useful work
    assert core.tracker.occupied_time(env.now) == pytest.approx(100.0)


def test_run_advances_clock_by_left_fold_of_charges():
    # exactly 0.1 + 0.2 + 0.3, not the compensated sum() of Python 3.12
    for make in (lambda env: CorePool(env, 1),
                 lambda env: CorePool(env, 1).allocate_pinned("x")):
        env = Environment()
        core = make(env)

        def worker():
            yield from core.run(("app", 0.1), ("copy", 0.2), ("protocol", 0.3))

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
        yield from pool.run(("copy", 3.0), ("protocol", 1.0))
        yield from core.run(("descriptor", 2.0), ("copy", 0.5))

    env.process(worker())
    env.run()
    ledger = env.telemetry.cycles
    assert env.now == 13.0
    assert ledger.us("copy") == 7.0
    assert ledger.us("protocol") == 2.0
    assert ledger.us("descriptor") == 4.0
    assert ledger.total_us() == env.now


def test_utilization_pct_includes_pinned_and_scheduled():
    env = Environment()
    pool = CorePool(env, 4)
    pool.allocate_pinned("loop")

    def worker():
        yield from pool.run(("app", 50))

    env.process(worker())
    env.run(until=100)
    # pinned core: 100 us occupied; scheduled: 50 us => 150% of one core
    assert pool.utilization_pct() == pytest.approx(150.0)


def test_total_busy_time_snapshot_delta():
    env = Environment()
    pool = CorePool(env, 4)

    def worker():
        yield from pool.run(("app", 10))
        yield env.timeout(10)
        yield from pool.run(("app", 10))

    env.process(worker())
    env.run(until=10)
    snap = pool.total_busy_time()
    env.run(until=40)
    assert pool.total_busy_time() - snap == pytest.approx(10.0)


def test_pinned_release_unblocks_scheduled_work():
    env = Environment()
    pool = CorePool(env, 1)
    core = pool.allocate_pinned("hog")
    done = []

    def worker():
        yield from pool.run(("app", 5))
        done.append(env.now)

    def release():
        yield env.timeout(20)
        core.unpin()

    env.process(worker())
    env.process(release())
    env.run()
    assert done == [25.0]
