"""Tests for the descriptor channels and routing tables (repro.dne)."""

import pytest

from repro.config import CostModel
from repro.dne import ComchE, ComchP, InterNodeRoutes, IntraNodeRoutes, RouteError, SkMsgChannel, TcpChannel
from repro.hw import build_cluster
from repro.memory import Buffer, BufferDescriptor
from repro.sim import Environment, Store


def make_channel(cls):
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    channel = cls(env, cost)
    return env, cost, cluster, channel


def descriptor():
    buf = Buffer(64)
    buf.owner = "fn:a"
    return BufferDescriptor(buffer=buf, length=16)


# ---------------------------------------------------------------------------
# channel mechanics
# ---------------------------------------------------------------------------

def test_attach_is_idempotent():
    env, cost, cluster, channel = make_channel(ComchE)
    a = channel.attach("fn1")
    b = channel.attach("fn1")
    assert a is b


def test_attach_with_shared_inbox():
    env, cost, cluster, channel = make_channel(ComchE)
    inbox = Store(env)
    endpoint = channel.attach("fn1", inbox)
    assert endpoint.inbox is inbox


def test_function_send_requires_attach():
    env, cost, cluster, channel = make_channel(ComchE)
    cpu = cluster.node("worker0").cpu
    with pytest.raises(KeyError):
        next(channel.function_send(cpu, "ghost", descriptor()))


def test_dne_send_requires_attach():
    env, cost, cluster, channel = make_channel(ComchE)
    with pytest.raises(KeyError):
        channel.dne_send("ghost", descriptor())


def test_detach_disconnects_tenant():
    env, cost, cluster, channel = make_channel(ComchE)
    channel.attach("fn1")
    channel.detach("fn1")
    with pytest.raises(KeyError):
        channel.dne_send("fn1", descriptor())


def test_round_trip_latency_is_two_oneways():
    env, cost, cluster, channel = make_channel(ComchE)
    cpu = cluster.node("worker0").cpu
    endpoint = channel.attach("fn1")
    times = {}

    def fn():
        t0 = env.now
        yield from channel.function_send(cpu, "fn1", descriptor())
        reply = yield endpoint.recv()
        times["rtt"] = env.now - t0

    def dne():
        fn_id, desc = yield channel.server_inbox.get()
        channel.dne_send(fn_id, desc)

    env.process(fn())
    env.process(dne())
    env.run()
    assert times["rtt"] >= 2 * channel.oneway_us


def test_channel_counters():
    env, cost, cluster, channel = make_channel(ComchE)
    cpu = cluster.node("worker0").cpu
    endpoint = channel.attach("fn1")

    def fn():
        yield from channel.function_send(cpu, "fn1", descriptor())

    env.process(fn())
    env.run()
    assert channel.to_dne_count == 1


# ---------------------------------------------------------------------------
# variant characteristics (the Fig. 9 trade-offs)
# ---------------------------------------------------------------------------

def test_latency_ordering_p_fastest_tcp_slowest():
    cost = CostModel()
    env = Environment()
    p = ComchP(env, cost)
    e = ComchE(env, cost)
    tcp = TcpChannel(env, cost)
    assert p.oneway_us < e.oneway_us < tcp.oneway_us


def test_comch_p_within_budget_is_fast():
    env, cost, cluster, channel = make_channel(ComchP)
    for i in range(cost.comch_p_core_budget):
        channel.attach(f"fn{i}")
    assert channel._delivery_delay() == channel.oneway_us


def test_comch_p_oversubscription_penalty():
    """Beyond the DPU core budget, Comch-P delivery collapses (Fig. 9)."""
    env, cost, cluster, channel = make_channel(ComchP)
    for i in range(cost.comch_p_core_budget + 2):
        channel.attach(f"fn{i}")
    assert channel._delivery_delay() > channel.oneway_us + cost.comch_p_oneway_us


def test_comch_e_scales_without_penalty():
    env, cost, cluster, channel = make_channel(ComchE)
    for i in range(20):
        channel.attach(f"fn{i}")
    assert channel._delivery_delay() == channel.oneway_us


def test_skmsg_channel_is_local():
    env, cost, cluster, channel = make_channel(SkMsgChannel)
    assert channel.oneway_us < 1.0
    assert channel.ingest_cost_us() == 0.0  # charged by the CNE itself


# ---------------------------------------------------------------------------
# routing tables
# ---------------------------------------------------------------------------

def test_intra_routes_add_remove():
    routes = IntraNodeRoutes("worker0")
    routes.add_function("fn1")
    assert routes.is_local("fn1")
    routes.remove_function("fn1")
    assert not routes.is_local("fn1")


def test_intra_routes_version_bumps():
    routes = IntraNodeRoutes("worker0")
    v0 = routes.version
    routes.add_function("fn1")
    assert routes.version == v0 + 1
    routes.remove_function("missing")  # no-op
    assert routes.version == v0 + 1


def test_inter_routes_lookup():
    routes = InterNodeRoutes("worker0")
    routes.set_route("fn1", "worker1")
    assert routes.node_for("fn1") == "worker1"
    routes.remove_route("fn1")
    with pytest.raises(RouteError):
        routes.node_for("fn1")


def test_inter_routes_snapshot_is_copy():
    routes = InterNodeRoutes("worker0")
    routes.set_route("fn1", "worker1")
    snapshot = routes.routes
    snapshot["fn1"] = "tampered"
    assert routes.node_for("fn1") == "worker1"
