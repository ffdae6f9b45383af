"""Tests for the serverless platform: functions, iolib, assembly."""

import pytest

from repro.config import CostModel
from repro.dne import RouteError
from repro.platform import (
    FunctionSpec,
    ServerlessPlatform,
    Tenant,
)
from repro.sim import Environment


def make_platform(**kwargs):
    env = Environment()
    plat = ServerlessPlatform(env, **kwargs)
    plat.add_tenant(Tenant("t1"))
    return env, plat


def drive(env, plat, body, until=500_000):
    def driver():
        yield env.timeout(30_000)  # RC warm-up
        yield from body()

    env.process(driver())
    env.run(until=until)


# ---------------------------------------------------------------------------
# Tenant / deployment plumbing
# ---------------------------------------------------------------------------

def test_tenant_validation():
    with pytest.raises(ValueError):
        Tenant("x", weight=0)
    with pytest.raises(ValueError):
        Tenant("x", pool_buffers=0)


def test_duplicate_tenant_rejected():
    env, plat = make_platform()
    with pytest.raises(ValueError):
        plat.add_tenant(Tenant("t1"))


def test_deploy_unknown_tenant_rejected():
    env, plat = make_platform()
    with pytest.raises(KeyError):
        plat.deploy(FunctionSpec("f", "ghost"), "worker0")


def test_duplicate_function_rejected():
    env, plat = make_platform()
    plat.deploy(FunctionSpec("f", "t1"), "worker0")
    with pytest.raises(ValueError):
        plat.deploy(FunctionSpec("f", "t1"), "worker1")


def test_coordinator_publishes_routes():
    env, plat = make_platform()
    plat.deploy(FunctionSpec("f", "t1"), "worker1")
    for engine in plat.engines.values():
        assert engine.routes.node_for("f") == "worker1"
    assert plat.coordinator.node_of("f") == "worker1"


def test_coordinator_withdraws_routes():
    env, plat = make_platform()
    plat.deploy(FunctionSpec("f", "t1"), "worker1")
    plat.coordinator.function_terminated("f")
    for engine in plat.engines.values():
        with pytest.raises(RouteError):
            engine.routes.node_for("f")


def test_tenant_pools_created_per_node():
    env, plat = make_platform()
    p0 = plat.pool_for("t1", "worker0")
    p1 = plat.pool_for("t1", "worker1")
    assert p0 is not p1
    assert p0.tenant == p1.tenant == "t1"


def test_double_start_rejected():
    env, plat = make_platform()
    plat.start()
    with pytest.raises(RuntimeError):
        plat.start()


# ---------------------------------------------------------------------------
# Function RPC semantics
# ---------------------------------------------------------------------------

def test_cross_node_rpc_round_trip():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=5), "worker1")
    plat.start()
    got = []

    def body():
        reply = yield from client.invoke("server", "ping", 64)
        got.append(reply.payload)

    drive(env, plat, body)
    assert got == ["ping"]  # default handler echoes
    assert plat.functions["server"].handled == 1


def test_local_rpc_uses_skmsg_not_engine():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker0")
    plat.start()

    def body():
        yield from client.invoke("server", "ping", 64)

    drive(env, plat, body)
    assert client.iolib.intra_sends == 1
    assert client.iolib.inter_sends == 0
    assert plat.engines["worker0"].stats.tx_messages == 0


def test_local_rpc_is_faster_than_remote():
    results = {}
    for placement in ("worker0", "worker1"):
        env, plat = make_platform()
        client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
        plat.deploy(FunctionSpec("server", "t1", work_us=0), placement)
        plat.start()
        times = []

        def body():
            t0 = env.now
            yield from client.invoke("server", "x", 64)
            times.append(env.now - t0)

        drive(env, plat, body)
        results[placement] = times[0]
    assert results["worker0"] < results["worker1"]


def test_custom_handler_with_nested_invoke():
    env, plat = make_platform()

    def orchestrator(ctx, msg):
        yield from ctx.compute(1)
        reply = yield from ctx.invoke("leaf", {"n": 1}, 64)
        yield from ctx.respond({"leaf_said": reply.payload}, 128)

    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("mid", "t1", orchestrator), "worker0")
    plat.deploy(FunctionSpec("leaf", "t1", work_us=1), "worker1")
    plat.start()
    got = []

    def body():
        reply = yield from client.invoke("mid", "go", 64)
        got.append(reply.payload)

    drive(env, plat, body)
    assert got == [{"leaf_said": {"n": 1}}]


def test_concurrent_invocations_pipeline():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=100, concurrency=8),
                "worker1")
    plat.start()
    done = []

    def one():
        yield from client.invoke("server", "x", 64)
        done.append(env.now)

    def body():
        procs = [env.process(one()) for _ in range(8)]
        for proc in procs:
            yield proc

    drive(env, plat, body)
    assert len(done) == 8
    # concurrent handlers overlap: total elapsed far below 8 * serial
    assert max(done) - 30_000 < 8 * 100


def test_app_time_tracked():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=42), "worker1")
    plat.start()

    def body():
        yield from client.invoke("server", "x", 64)

    drive(env, plat, body)
    assert plat.functions["server"].app_time_us == pytest.approx(42.0)


def test_function_latency_recorded():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=10), "worker1")
    plat.start()

    def body():
        yield from client.invoke("server", "x", 64)

    drive(env, plat, body)
    assert len(plat.functions["server"].latency.samples) == 1
    assert plat.functions["server"].latency.mean() >= 10.0


def test_buffers_conserved_after_traffic():
    """No leaks: every pool returns to (total - SRQ-posted) free."""
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    plat.start()

    def body():
        for _ in range(20):
            yield from client.invoke("server", "x", 256)

    drive(env, plat, body)
    for node in ("worker0", "worker1"):
        pool = plat.pool_for("t1", node)
        assert pool.free_count == pool.buffer_count - plat.recv_buffers


def test_remote_send_without_engine_rejected():
    env = Environment()
    plat = ServerlessPlatform(env, engine_builder=lambda *a: None)
    plat.add_tenant(Tenant("t1"))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    plat.start()

    def body():
        yield env.timeout(1000)
        yield from client.invoke("server", "x", 64)

    env.process(body())
    with pytest.raises(RuntimeError, match="no network engine"):
        env.run(until=100_000)


def test_usage_snapshot_keys():
    env, plat = make_platform()
    plat.start()
    env.run(until=1000)
    snap = plat.usage_snapshot()
    assert "cpu:worker0" in snap and "dpu:worker0" in snap
    assert "engine:worker0" in snap and "app" in snap
