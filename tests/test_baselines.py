"""Tests for the baseline data planes: SPRIGHT, FUYAO, NightCore wiring."""

import pytest

from repro.baselines import (
    DATA_PLANES,
    NIGHTCORE_GATEWAY_US,
    NIGHTCORE_IPC_US,
    FuyaoEngine,
    SprightEngine,
    build_cne,
    build_dne,
    build_fuyao,
    build_spright,
    nightcore_engine_builder,
)
from repro.config import CostModel
from repro.dne import CpuNetworkEngine, DpuNetworkEngine
from repro.experiments.wiring import build_boutique
from repro.ingress import PalladiumIngress, ProxyIngress, TcpWorkerAdapter
from repro.platform import FunctionSpec, ServerlessPlatform, Tenant
from repro.sim import Environment
from repro.workloads import deploy_boutique


def make_platform(builder, **kwargs):
    env = Environment()
    plat = ServerlessPlatform(env, engine_builder=builder, **kwargs)
    plat.add_tenant(Tenant("t1"))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=5), "worker1")
    plat.start()
    return env, plat, client


def run_rpcs(env, plat, client, n=10, until=800_000):
    replies = []

    def body():
        yield env.timeout(60_000)
        for i in range(n):
            reply = yield from client.invoke("server", f"msg{i}", 256)
            replies.append(reply.payload)

    env.process(body())
    env.run(until=until)
    return replies


# ---------------------------------------------------------------------------
# SPRIGHT
# ---------------------------------------------------------------------------

def test_spright_cross_node_rpc():
    env, plat, client = make_platform(build_spright)
    replies = run_rpcs(env, plat, client)
    assert replies == [f"msg{i}" for i in range(10)]


def test_spright_engine_not_pinned():
    """SPRIGHT's forwarder is event-driven: no dedicated polling core."""
    env, plat, client = make_platform(build_spright)
    for node in ("worker0", "worker1"):
        assert plat.cluster.node(node).cpu.pinned == []


def test_spright_recycles_buffers():
    env, plat, client = make_platform(build_spright)
    run_rpcs(env, plat, client, n=12)
    for node in ("worker0", "worker1"):
        pool = plat.pool_for("t1", node)
        assert pool.free_count == pool.buffer_count  # no SRQ in SPRIGHT


def test_spright_slower_than_palladium():
    def mean_rtt(builder):
        env, plat, client = make_platform(builder)
        latencies = []

        def body():
            yield env.timeout(60_000)
            for _ in range(5):
                t0 = env.now
                yield from client.invoke("server", "x", 256)
                latencies.append(env.now - t0)

        env.process(body())
        env.run(until=800_000)
        return sum(latencies) / len(latencies)

    assert mean_rtt(build_spright) > mean_rtt(build_dne) * 1.5


# ---------------------------------------------------------------------------
# FUYAO
# ---------------------------------------------------------------------------

def test_fuyao_cross_node_rpc():
    env, plat, client = make_platform(build_fuyao)
    replies = run_rpcs(env, plat, client)
    assert replies == [f"msg{i}" for i in range(10)]


def test_fuyao_pins_a_polling_core_per_node():
    env, plat, client = make_platform(build_fuyao)
    for node in ("worker0", "worker1"):
        pinned = plat.cluster.node(node).cpu.pinned
        assert len(pinned) == 1
        assert "poller" in pinned[0].name


def test_fuyao_uses_one_sided_writes_no_races():
    """The dedicated RDMA pool keeps one-sided writes race-free."""
    env, plat, client = make_platform(build_fuyao)
    run_rpcs(env, plat, client, n=8)
    for node in ("worker0", "worker1"):
        assert plat.fabric.rnic(node).potential_races == 0


def test_fuyao_credits_are_returned():
    env, plat, client = make_platform(build_fuyao)
    run_rpcs(env, plat, client, n=8)
    env.run(until=env.now + 50_000)
    engine = plat.engines["worker0"]
    credits = engine._credits[("worker1", "t1")]
    assert len(credits.items) == engine.SLOTS_PER_PEER


def test_fuyao_engine_counts_messages():
    env, plat, client = make_platform(build_fuyao)
    run_rpcs(env, plat, client, n=6)
    assert plat.engines["worker0"].stats.tx_messages == 6
    assert plat.engines["worker1"].stats.rx_messages == 6


# ---------------------------------------------------------------------------
# CNE
# ---------------------------------------------------------------------------

def test_cne_cross_node_rpc():
    env, plat, client = make_platform(build_cne)
    replies = run_rpcs(env, plat, client)
    assert replies == [f"msg{i}" for i in range(10)]


def test_cne_pins_host_core_not_dpu():
    env, plat, client = make_platform(build_cne)
    for node in ("worker0", "worker1"):
        assert len(plat.cluster.node(node).cpu.pinned) == 1
        assert plat.cluster.node(node).dpu.pinned == []


def test_dne_pins_dpu_core_not_host():
    env, plat, client = make_platform(build_dne)
    for node in ("worker0", "worker1"):
        assert plat.cluster.node(node).cpu.pinned == []
        assert len(plat.cluster.node(node).dpu.pinned) == 1


# ---------------------------------------------------------------------------
# NightCore
# ---------------------------------------------------------------------------

def test_nightcore_has_no_engine():
    env = Environment()
    plat = ServerlessPlatform(env, engine_builder=nightcore_engine_builder,
                              intra_ipc_us=NIGHTCORE_IPC_US)
    assert plat.engines == {}


def test_nightcore_single_node_rpc_works():
    env = Environment()
    plat = ServerlessPlatform(env, engine_builder=nightcore_engine_builder,
                              intra_ipc_us=NIGHTCORE_IPC_US)
    plat.add_tenant(Tenant("t1"))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=5), "worker0")
    plat.start()
    replies = []

    def body():
        yield env.timeout(1000)
        reply = yield from client.invoke("server", "hi", 64)
        replies.append(reply.payload)

    env.process(body())
    env.run(until=100_000)
    assert replies == ["hi"]


def test_nightcore_ipc_costs_more_than_sk_msg():
    assert NIGHTCORE_IPC_US > CostModel().sk_msg_us  # queues cost more


#: config id -> (engine class, proxy ingress mode or None for Palladium,
#: worker0 adapter stack or None, intra-node IPC us or None for SK_MSG)
WIRING = {
    "palladium-dne": (DpuNetworkEngine, None, None, None),
    "palladium-cne": (CpuNetworkEngine, None, None, None),
    "fuyao": (FuyaoEngine, ProxyIngress.FSTACK, TcpWorkerAdapter.FSTACK, None),
    "fuyao-f": (FuyaoEngine, ProxyIngress.FSTACK, TcpWorkerAdapter.FSTACK,
                None),
    "fuyao-k": (FuyaoEngine, ProxyIngress.KERNEL, TcpWorkerAdapter.KERNEL,
                None),
    "spright": (SprightEngine, ProxyIngress.FSTACK, TcpWorkerAdapter.FSTACK,
                None),
    "nightcore": (None, ProxyIngress.KERNEL, TcpWorkerAdapter.KERNEL,
                  NIGHTCORE_IPC_US),
}


def test_data_plane_table_names_every_configuration():
    assert set(DATA_PLANES) == set(WIRING)


@pytest.mark.parametrize("config", sorted(WIRING))
def test_data_plane_wiring(config):
    engine_cls, mode, stack, ipc_us = WIRING[config]
    cost = CostModel()
    plat, ingress = build_boutique(
        config, Environment(), cost,
        lambda p: deploy_boutique(p, single_node=config == "nightcore"))
    if engine_cls is None:
        assert plat.engines == {}
    else:
        assert sorted(plat.engines) == ["worker0", "worker1"]
        assert all(type(e) is engine_cls for e in plat.engines.values())
    for runtime in plat.runtimes.values():
        assert runtime.intra_ipc_us == (cost.sk_msg_us if ipc_us is None
                                        else ipc_us)
    gateway_us = NIGHTCORE_GATEWAY_US if config == "nightcore" else 0.0
    assert ingress.cost.proxy_overhead_us == (cost.proxy_overhead_us
                                              + gateway_us)
    if mode is None:
        assert type(ingress) is PalladiumIngress
        assert plat.coordinator.placement[ingress.AGENT] == "ingress"
        return
    assert type(ingress) is ProxyIngress and ingress.mode == mode
    assert list(ingress.adapters) == ["worker0"]
    adapter = ingress.adapters["worker0"]
    assert adapter.stack_kind == stack
    assert adapter.cost is cost  # the gateway surcharge is ingress-only
