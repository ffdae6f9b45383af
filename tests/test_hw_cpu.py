"""Tests for processor models (repro.hw.cpu)."""

import pytest

from repro.hw import CoreKind, CorePool
from repro.sim import Environment


def test_core_pool_requires_cores():
    with pytest.raises(ValueError):
        CorePool(Environment(), 0)


def test_execute_takes_scaled_time():
    env = Environment()
    pool = CorePool(env, 2, CoreKind.ARM, factor=1.6)
    done = []

    def worker():
        yield from pool.execute(10)
        done.append(env.now)

    env.process(worker())
    env.run()
    assert done == [pytest.approx(16.0)]


def test_pool_schedules_across_cores():
    env = Environment()
    pool = CorePool(env, 2)
    done = []

    def worker(i):
        yield from pool.execute(10)
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
        yield from core.work(5)
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
        next(core.work(1))


def test_pinned_core_tracks_useful_time():
    env = Environment()
    pool = CorePool(env, 1)
    core = pool.allocate_pinned("loop")

    def worker():
        yield from core.work(25)

    env.process(worker())
    env.run(until=100)
    assert core.tracker.useful == pytest.approx(25.0)
    assert core.useful_utilization() == pytest.approx(0.25)
    # the pinned core is occupied 100% regardless of useful work
    assert core.tracker.occupied_time(env.now) == pytest.approx(100.0)


def test_work_time_helper():
    env = Environment()
    pool = CorePool(env, 1, factor=1.5)
    core = pool.allocate_pinned("x")
    assert core.work_time(10) == pytest.approx(15.0)


def test_utilization_pct_includes_pinned_and_scheduled():
    env = Environment()
    pool = CorePool(env, 4)
    pool.allocate_pinned("loop")

    def worker():
        yield from pool.execute(50)

    env.process(worker())
    env.run(until=100)
    # pinned core: 100 us occupied; scheduled: 50 us => 150% of one core
    assert pool.utilization_pct() == pytest.approx(150.0)


def test_total_busy_time_snapshot_delta():
    env = Environment()
    pool = CorePool(env, 4)

    def worker():
        yield from pool.execute(10)
        yield env.timeout(10)
        yield from pool.execute(10)

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
        yield from pool.execute(5)
        done.append(env.now)

    def release():
        yield env.timeout(20)
        core.unpin()

    env.process(worker())
    env.process(release())
    env.run()
    assert done == [25.0]
