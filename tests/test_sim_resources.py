"""Tests for Store (repro.sim.resources) and the reference FIFO server
(tests/resource_reference.py)."""

import pytest

from repro.sim import Environment, SimulationError, Store

from .resource_reference import Resource


# ---------------------------------------------------------------------------
# Resource (the reference the busy-until models are checked against)
# ---------------------------------------------------------------------------

def test_resource_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Environment(), capacity=0)


def test_resource_serializes_beyond_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    done = []

    def worker(i):
        yield from res.use(10)
        done.append((i, env.now))

    for i in range(4):
        env.process(worker(i))
    env.run()
    assert done == [(0, 10.0), (1, 10.0), (2, 20.0), (3, 20.0)]


def test_resource_immediate_grant_is_synchronous():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    assert req.processed  # fast path: no heap trip
    res.release(req)


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(i):
        yield from res.use(5)
        order.append(i)

    for i in range(5):
        env.process(worker(i))
    env.run()
    assert order == list(range(5))


def test_resource_release_of_unheld_request_is_error():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()  # queued
    res.release(first)
    assert res.users == [second]  # the release granted the queued one
    with pytest.raises(SimulationError):
        res.release(first)


def test_resource_utilization_accounting():
    env = Environment()
    res = Resource(env, capacity=1)

    def worker():
        yield from res.use(30)

    env.process(worker())
    env.run(until=60)
    assert res.busy_time() == pytest.approx(30.0)  # half of 60 us


def test_resource_count_reflects_users():
    env = Environment()
    res = Resource(env, capacity=3)
    reqs = [res.request() for _ in range(3)]
    assert all(req.triggered for req in reqs)
    assert len(res.users) == 3
    res.release(reqs[0])
    assert len(res.users) == 2


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    for item in "abc":
        store.put_nowait(item)
    env.process(consumer())
    env.run()
    assert got == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(9)
        store.put_nowait("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(9.0, "x")]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put_nowait("x")
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_multiple_waiting_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer("first"))
    env.process(consumer("second"))

    def producer():
        yield env.timeout(1)
        store.put_nowait("x")
        store.put_nowait("y")

    env.process(producer())
    env.run()
    assert got == [("first", "x"), ("second", "y")]
