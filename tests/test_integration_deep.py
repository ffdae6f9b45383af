"""Deeper integration and failure-injection tests across subsystems."""

import pytest

from repro.baselines import build_fuyao
from repro.config import CostModel
from repro.dne import DwrrScheduler
from repro.hw import SocDmaEngine, build_cluster
from repro.platform import FunctionSpec, ServerlessPlatform, Tenant
from repro.rdma import ConnectionManager, RdmaFabric
from repro.sim import Environment
from repro.workloads import DirectDriver, deploy_echo_pair


# ---------------------------------------------------------------------------
# SoC DMA engine
# ---------------------------------------------------------------------------

def test_soc_dma_service_time():
    env = Environment()
    cost = CostModel()
    dma = SocDmaEngine(env, cost)
    done = []

    def proc():
        yield dma.transfer(3500)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done[0] == pytest.approx(cost.soc_dma_base_us + 1.0)
    assert dma.transfers == 1
    assert dma.bytes_moved == 3500


def test_soc_dma_serializes_transfers():
    env = Environment()
    cost = CostModel()
    dma = SocDmaEngine(env, cost)
    done = []

    def proc(i):
        yield dma.transfer(0)
        done.append(env.now)

    for i in range(3):
        env.process(proc(i))
    env.run()
    assert done == pytest.approx(
        [cost.soc_dma_base_us * (i + 1) for i in range(3)]
    )


def test_soc_dma_rejects_negative():
    env = Environment()
    dma = SocDmaEngine(env, CostModel())
    with pytest.raises(ValueError):
        next(dma.transfer(-1))


def test_soc_dma_utilization():
    env = Environment()
    cost = CostModel()
    dma = SocDmaEngine(env, cost)

    done = []

    def proc():
        yield dma.transfer(3500)  # ~3.2 us
        done.append(env.now)

    env.process(proc())
    env.run(until=6.4)
    # busy for the one transfer, then idle: about half the window
    assert done == [cost.soc_dma_time(3500)]
    assert done[0] / env.now == pytest.approx(0.5, abs=0.05)
    assert (dma.transfers, dma.bytes_moved) == (1, 3500)


# ---------------------------------------------------------------------------
# Connection manager congestion path
# ---------------------------------------------------------------------------

def test_congested_qp_triggers_shadow_activation():
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    fabric.install_rnic("worker0")
    fabric.install_rnic("worker1")
    cm = ConnectionManager(env, fabric, "worker0", cost)
    cm.conns_per_peer = 3
    picked = []

    def run():
        yield from cm.warm_up("worker1", "t")
        first = yield from cm.get_connection("worker1", "t")
        first.pending_wrs = 20  # heavily loaded
        second = yield from cm.get_connection("worker1", "t")
        picked.append((first, second))

    env.process(run())
    env.run()
    first, second = picked[0]
    assert second is not first  # a shadow QP was activated instead
    assert cm.active_count() == 2


# ---------------------------------------------------------------------------
# FUYAO cold-copy configuration
# ---------------------------------------------------------------------------

def test_fuyao_cold_copies_slow_it_down():
    def run(cached):
        env = Environment()
        plat = ServerlessPlatform(env, engine_builder=build_fuyao)
        plat.add_tenant(Tenant("t1"))
        client = plat.deploy(FunctionSpec("c", "t1", work_us=0), "worker0")
        plat.deploy(FunctionSpec("s", "t1", work_us=0), "worker1")
        for engine in plat.engines.values():
            engine.copy_cached = cached
        plat.start()
        latencies = []

        def body():
            yield env.timeout(60_000)
            for _ in range(5):
                t0 = env.now
                yield from client.invoke("s", "x" * 8, 4096)
                latencies.append(env.now - t0)

        env.process(body())
        env.run(until=600_000)
        return sum(latencies) / len(latencies)

    assert run(cached=False) > run(cached=True)


# ---------------------------------------------------------------------------
# DWRR at the engine: two tenants through one DNE
# ---------------------------------------------------------------------------

def test_engine_dwrr_prefers_heavy_tenant():
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("gold", weight=4.0, pool_buffers=1024))
    plat.add_tenant(Tenant("bronze", weight=1.0, pool_buffers=1024))
    gold_client, gold_server = deploy_echo_pair(plat, tenant="gold",
                                                suffix="-g")
    bronze_client, bronze_server = deploy_echo_pair(plat, tenant="bronze",
                                                    suffix="-b")
    plat.start()
    drivers = []
    for i in range(24):
        drivers.append(DirectDriver(env, gold_client, gold_server,
                                    size=256, name=f"g{i}"))
        drivers.append(DirectDriver(env, bronze_client, bronze_server,
                                    size=256, name=f"b{i}"))

    def kickoff():
        yield env.timeout(40_000)
        for driver in drivers:
            env.process(driver.run())

    env.process(kickoff())
    env.run(until=180_000)
    engine = plat.engines["worker0"]
    gold = engine.stats.tenant_meter("gold").count
    bronze = engine.stats.tenant_meter("bronze").count
    assert gold > 0 and bronze > 0
    # under saturation the 4:1 weights shape the split
    assert gold / bronze == pytest.approx(4.0, rel=0.35)


# ---------------------------------------------------------------------------
# Function termination churn with in-flight traffic
# ---------------------------------------------------------------------------

def test_terminated_function_traffic_is_dropped_cleanly():
    """A scale-down race drops the message at the engine — the loop
    survives, the buffer is recycled, and a drop is counted."""
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t1"))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("victim", "t1", work_us=10), "worker1")
    plat.start()
    completed = []

    def body():
        yield env.timeout(40_000)
        reply = yield from client.invoke("victim", "a", 64)
        completed.append(reply.payload)
        # control plane withdraws the victim's routes mid-flight
        plat.coordinator.function_terminated("victim")
        env.process(client.invoke("victim", "b", 64))  # will never answer

    env.process(body())
    env.run(until=400_000)
    assert completed == ["a"]
    engine = plat.engines["worker0"]
    assert engine.stats.dropped == 1
    # engine loop is alive: a healthy request still flows afterwards
    pool = plat.pool_for("t1", "worker0")
    assert pool.free_count == pool.buffer_count - plat.recv_buffers


def test_redeploy_after_termination():
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t1"))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("svc", "t1", work_us=0), "worker1")
    plat.start()
    out = []

    def body():
        yield env.timeout(40_000)
        reply = yield from client.invoke("svc", "one", 64)
        out.append(reply.payload)
        plat.coordinator.function_terminated("svc")
        plat.functions.pop("svc")
        # redeploy on the other node; coordinator republishes routes
        plat.deploy(FunctionSpec("svc", "t1", work_us=0), "worker0")
        yield env.timeout(1000)
        reply = yield from client.invoke("svc", "two", 64)
        out.append(reply.payload)

    env.process(body())
    env.run(until=600_000)
    assert out == ["one", "two"]


# ---------------------------------------------------------------------------
# Pool backpressure: senders block on exhausted pools and recover
# ---------------------------------------------------------------------------

def test_pool_backpressure_recovers():
    env = Environment()
    plat = ServerlessPlatform(env, recv_buffers=4)
    # pool barely larger than the SRQ posting: senders must wait for
    # recycling instead of crashing
    plat.add_tenant(Tenant("t1", pool_buffers=8))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    plat.start()
    done = []

    def one(i):
        yield from client.invoke("server", f"m{i}", 64)
        done.append(i)

    def body():
        yield env.timeout(40_000)
        procs = [env.process(one(i)) for i in range(16)]
        for proc in procs:
            yield proc

    env.process(body())
    env.run(until=2_000_000)
    assert sorted(done) == list(range(16))


# ---------------------------------------------------------------------------
# Determinism of a full platform run
# ---------------------------------------------------------------------------

def test_full_platform_run_is_deterministic():
    def run_once():
        env = Environment()
        plat = ServerlessPlatform(env)
        client, server = deploy_echo_pair(plat)
        plat.start()
        driver = DirectDriver(env, client, server, size=512)

        def kickoff():
            yield env.timeout(40_000)
            yield from driver.run(max_requests=25)

        env.process(kickoff())
        env.run(until=500_000)
        return tuple(driver.latency.samples)

    assert run_once() == run_once()
