"""Tests for distributed locks (repro.rdma.locks)."""

import pytest

from repro.config import CostModel
from repro.hw import build_cluster
from repro.rdma import ConnectionManager, DistributedLock, RdmaFabric
from repro.sim import Environment


def setup():
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    fabric.install_rnic("worker0")
    fabric.install_rnic("worker1")
    cm = ConnectionManager(env, fabric, "worker0", cost)
    return env, cost, fabric, cm


def with_qp(env, cm, body):
    """Run body(qp) after a warmed connection is available."""
    def runner():
        yield from cm.warm_up("worker1", "t", 1)
        qp = yield from cm.get_connection("worker1", "t")
        yield from body(qp)

    env.process(runner())
    env.run()


def test_lock_acquire_release_roundtrip():
    env, cost, fabric, cm = setup()
    lock = DistributedLock(env, fabric, "worker1", cost)
    log = []

    def body(qp):
        yield from lock.acquire(qp, 1)
        log.append(lock.word.value)
        yield from lock.release(qp, 1)
        log.append(lock.word.value)

    with_qp(env, cm, body)
    assert log == [1, 0]
    assert lock.stats.acquires == 1


def test_lock_mutual_exclusion():
    env, cost, fabric, cm = setup()
    lock = DistributedLock(env, fabric, "worker1", cost)
    critical = []

    def body(qp):
        def contender(holder):
            yield from lock.acquire(qp, holder)
            critical.append(("enter", holder, env.now))
            yield env.timeout(50)
            critical.append(("exit", holder, env.now))
            yield from lock.release(qp, holder)

        procs = [env.process(contender(h)) for h in (1, 2, 3)]
        for proc in procs:
            yield proc

    with_qp(env, cm, body)
    # critical sections never overlap
    inside = 0
    for kind, _holder, _t in critical:
        inside += 1 if kind == "enter" else -1
        assert 0 <= inside <= 1
    assert lock.stats.acquires == 3
    assert lock.stats.contended_retries > 0


def test_release_by_non_holder_rejected():
    env, cost, fabric, cm = setup()
    lock = DistributedLock(env, fabric, "worker1", cost)

    def body(qp):
        yield from lock.acquire(qp, 1)
        yield from lock.release(qp, 99)

    with pytest.raises(RuntimeError):
        with_qp(env, cm, body)


def test_lock_costs_fabric_round_trips():
    env, cost, fabric, cm = setup()
    lock = DistributedLock(env, fabric, "worker1", cost)
    timing = []

    def body(qp):
        t0 = env.now
        yield from lock.acquire(qp, 1)
        timing.append(env.now - t0)
        yield from lock.release(qp, 1)

    with_qp(env, cm, body)
    # at least one CAS round trip: 2x (rnic + base latency)
    assert timing[0] >= 2 * cost.rdma_base_latency_us
