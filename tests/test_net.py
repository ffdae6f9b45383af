"""Tests for software network stacks, HTTP costs, and SK_MSG IPC."""

import pytest

from repro.config import CostModel
from repro.hw import CorePool, build_cluster, rss_queue
from repro.memory import Buffer, BufferDescriptor
from repro.net import (
    FStack,
    HttpProcessor,
    HttpRequest,
    HttpResponse,
    KernelTcpStack,
    SockMap,
)
from repro.sim import Environment, Store


# ---------------------------------------------------------------------------
# stacks
# ---------------------------------------------------------------------------

def test_kernel_stack_charges_cpu():
    env = Environment()
    cost = CostModel()
    cpu = CorePool(env, 1)
    stack = KernelTcpStack(env, cpu, cost)

    def proc():
        yield from stack.rx(512)
        yield from stack.tx(512)

    env.process(proc())
    env.run()
    assert env.now >= cost.kernel_tcp_us * 2
    assert stack.stats.rx_messages == 1
    assert stack.stats.tx_messages == 1


def test_kernel_livelock_penalty_grows_with_backlog():
    env = Environment()
    stack = KernelTcpStack(env, CorePool(env, 1), CostModel())
    assert stack._livelock_penalty() == 1.0
    stack.in_flight = 50
    assert stack._livelock_penalty() > 2.0
    stack.in_flight = 10_000
    assert stack._livelock_penalty() == 30.0  # capped


def test_kernel_overload_collapses_goodput():
    """Many concurrent messages on one core: per-message cost inflates."""
    cost = CostModel()
    results = {}
    for concurrency in (1, 64):
        env = Environment()
        stack = KernelTcpStack(env, CorePool(env, 1), cost)
        done = []

        def msg():
            yield from stack.rx(256)
            done.append(env.now)

        for _ in range(concurrency):
            env.process(msg())
        env.run()
        results[concurrency] = env.now / concurrency
    assert results[64] > results[1] * 1.3  # livelock: superlinear slowdown


def test_fstack_cheaper_than_kernel():
    cost = CostModel()
    times = {}
    for name, cls in (("kernel", KernelTcpStack), ("fstack", FStack)):
        env = Environment()
        if cls is FStack:
            pool = CorePool(env, 2)
            core = pool.allocate_pinned("w")
            stack = FStack(env, core, cost)
        else:
            stack = KernelTcpStack(env, CorePool(env, 1), cost)

        def proc():
            yield from stack.rx(256)

        env.process(proc())
        env.run()
        times[name] = env.now
    assert times["fstack"] < times["kernel"] / 3


def test_handshake_costs():
    env = Environment()
    cost = CostModel()
    stack = KernelTcpStack(env, CorePool(env, 1), cost)

    def proc():
        yield from stack.handshake()

    env.process(proc())
    env.run()
    assert env.now >= cost.tcp_handshake_us
    assert stack.stats.handshakes == 1


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------

def test_http_request_wire_bytes():
    req = HttpRequest("/home", body="x", body_bytes=256)
    assert req.wire_bytes == 256 + 180
    resp = HttpResponse(200, body_bytes=512)
    assert resp.wire_bytes == 512 + 180


def test_http_request_ids_unique():
    a = HttpRequest("/a")
    b = HttpRequest("/a")
    assert a.request_id != b.request_id


def test_http_processor_charges():
    env = Environment()
    cost = CostModel()
    http = HttpProcessor(CorePool(env, 1), cost)

    def proc():
        yield from http.parse(400)
        yield from http.serialize(400)

    env.process(proc())
    env.run()
    assert http.parsed == 1 and http.serialized == 1
    assert env.now > cost.http_parse_us


# ---------------------------------------------------------------------------
# SK_MSG sockmap
# ---------------------------------------------------------------------------

def _descriptor():
    buf = Buffer(64)
    buf.owner = "fn:a"
    return BufferDescriptor(buffer=buf, length=16)


def test_sockmap_register_and_redirect():
    env = Environment()
    sockmap = SockMap(env, CostModel())
    socket = sockmap.register("fn-b")
    sockmap.redirect("fn-b", _descriptor())
    assert socket.backlog == 1
    assert sockmap.messages == 1


def test_sockmap_lookup_missing():
    sockmap = SockMap(Environment(), CostModel())
    with pytest.raises(KeyError):
        sockmap.lookup("ghost")


def test_sockmap_send_charges_sender():
    env = Environment()
    cost = CostModel()
    sockmap = SockMap(env, cost)
    sockmap.register("fn-b")
    cpu = CorePool(env, 1)

    def proc():
        yield from sockmap.send(cpu, "fn-b", _descriptor())

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(cost.sk_msg_us)


def test_sockmap_shared_inbox():
    env = Environment()
    sockmap = SockMap(env, CostModel())
    inbox = Store(env)
    sockmap.register("fn-b", inbox)
    sockmap.redirect("fn-b", _descriptor())
    assert len(inbox.items) == 1


def test_sockmap_register_idempotent():
    env = Environment()
    sockmap = SockMap(env, CostModel())
    a = sockmap.register("fn")
    b = sockmap.register("fn")
    assert a is b


# ---------------------------------------------------------------------------
# RSS
# ---------------------------------------------------------------------------

def test_rss_stable():
    assert rss_queue("flow-1", 4) == rss_queue("flow-1", 4)


def test_rss_in_range_and_spread():
    picks = {rss_queue(f"flow-{i}", 8) for i in range(200)}
    assert picks.issubset(set(range(8)))
    assert len(picks) == 8  # all queues used across many flows


def test_rss_requires_queues():
    with pytest.raises(ValueError):
        rss_queue("x", 0)


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------

def test_link_serialization_and_latency():
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    link = cluster.fabric_link("worker0", "worker1")
    done = []

    def proc():
        yield from link.transmit(25_000)  # exactly 1 us serialization
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done[0] == pytest.approx(1.0 + cost.rdma_base_latency_us)
    assert link.frames == 1
    assert link.bytes_sent == 25_000


def test_link_contention_serializes_frames():
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    link = cluster.fabric_link("worker0", "worker1")
    done = []

    def proc(i):
        yield from link.transmit(250_000)  # 10 us each
        done.append(env.now)

    for i in range(3):
        env.process(proc(i))
    env.run()
    serial = [t - cost.rdma_base_latency_us for t in done]
    assert serial == pytest.approx([10.0, 20.0, 30.0])


def test_unknown_fabric_path_rejected():
    env = Environment()
    cluster = build_cluster(env, CostModel())
    with pytest.raises(KeyError):
        cluster.fabric_link("worker0", "client")
