"""End-to-end tests for the network engine (repro.dne.engine)."""

import pytest

from repro.config import CostModel
from repro.dataplane import Message
from repro.dne import ComchE, DpuNetworkEngine, DwrrScheduler, NetworkEngine
from repro.hw import build_cluster
from repro.memory import (
    BufferDescriptor,
    CrossProcessorExporter,
    MappingError,
    MemoryPool,
    OwnershipError,
    create_from_export,
)
from repro.rdma import Completion, Opcode, RdmaFabric
from repro.sim import Environment


def _request(buf):
    """A client->server descriptor naming ``buf``."""
    return BufferDescriptor(buf, buf.length,
                            Message(dst="server", src="client", tenant="t"))


def build_pair(cost=None, mode=NetworkEngine.MODE_OFF_PATH):
    """Two DNEs with one tenant and attached echo endpoints."""
    env = Environment()
    cost = cost or CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    engines, pools, channels = {}, {}, {}
    for name in ("worker0", "worker1"):
        node = cluster.node(name)
        channel = ComchE(env, cost, name=f"comch:{name}")
        engine = DpuNetworkEngine(env, node, fabric, cost, channel,
                                  scheduler=DwrrScheduler(), mode=mode,
                                  name=f"dne:{name}")
        pool = MemoryPool(env, "t", 128, 8192, name=f"pool:{name}")
        remote = create_from_export(
            CrossProcessorExporter(pool).export_pci().export_rdma().descriptor()
        )
        engine.setup_tenant("t", pool, remote, recv_buffers=32)
        engines[name], pools[name], channels[name] = engine, pool, channel
    for engine in engines.values():
        engine.routes.set_route("client", "worker0")
        engine.routes.set_route("server", "worker1")
    return env, cost, cluster, engines, pools, channels


def run_echo(env, cost, cluster, engines, pools, channels, n_messages=5,
             size=64):
    """Drive n closed-loop echoes through the engine pair; return RTTs."""
    ep_client = channels["worker0"].attach("client")
    ep_server = channels["worker1"].attach("server")
    engines["worker0"].start(warm_peers=[("worker1", "t")])
    engines["worker1"].start(warm_peers=[("worker0", "t")])
    host0 = cluster.node("worker0").cpu
    host1 = cluster.node("worker1").cpu
    rtts = []

    def server():
        while True:
            desc = yield ep_server.recv()
            buf = desc.buffer
            buf.check_owner("fn:server")
            buf.transfer("fn:server", engines["worker1"].agent)
            back = desc.derive(dst="client", tenant="t")
            yield from channels["worker1"].function_send(host1, "server", back)

    def client():
        yield env.timeout(25_000)  # RC warm-up
        for i in range(n_messages):
            t0 = env.now
            buf = pools["worker0"].get("fn:client")
            buf.write("fn:client", f"m{i}", size)
            buf.transfer("fn:client", engines["worker0"].agent)
            desc = _request(buf)
            yield from channels["worker0"].function_send(host0, "client", desc)
            resp = yield ep_client.recv()
            assert resp.buffer.read("fn:client") == f"m{i}"
            rtts.append(env.now - t0)
            pools["worker0"].put(resp.buffer, "fn:client")

    env.process(server(), name="server")
    env.process(client(), name="client")
    env.run(until=200_000)
    return rtts


def test_engine_end_to_end_echo():
    env, cost, cluster, engines, pools, channels = build_pair()
    rtts = run_echo(env, cost, cluster, engines, pools, channels)
    assert len(rtts) == 5
    assert all(20 < rtt < 100 for rtt in rtts)
    assert engines["worker0"].stats.tx_messages == 5
    assert engines["worker0"].stats.rx_messages == 5
    assert engines["worker1"].stats.rx_messages == 5


def test_engine_recycles_sender_buffers():
    env, cost, cluster, engines, pools, channels = build_pair()
    run_echo(env, cost, cluster, engines, pools, channels, n_messages=8)
    # all client-side buffers returned: free = total - SRQ-posted
    posted = 32
    assert pools["worker0"].free_count == 128 - posted
    assert engines["worker0"].stats.recycled == 8


def test_engine_replenishes_receive_buffers():
    env, cost, cluster, engines, pools, channels = build_pair()
    run_echo(env, cost, cluster, engines, pools, channels, n_messages=8)
    srq = engines["worker1"].rnic.srq("t")
    assert len(srq._queue.items) == 32  # consumed buffers were re-posted


def test_on_path_mode_is_slower_and_uses_soc_dma():
    results = {}
    for mode in (NetworkEngine.MODE_OFF_PATH, NetworkEngine.MODE_ON_PATH):
        env, cost, cluster, engines, pools, channels = build_pair(mode=mode)
        rtts = run_echo(env, cost, cluster, engines, pools, channels,
                        n_messages=5, size=1024)
        dma_transfers = sum(
            cluster.node(n).soc_dma.transfers for n in ("worker0", "worker1")
        )
        results[mode] = (sum(rtts) / len(rtts), dma_transfers)
    off_rtt, off_dma = results[NetworkEngine.MODE_OFF_PATH]
    on_rtt, on_dma = results[NetworkEngine.MODE_ON_PATH]
    assert off_dma == 0
    assert on_dma > 0
    assert on_rtt > off_rtt


def test_engine_mode_validation():
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    channel = ComchE(env, cost)
    with pytest.raises(ValueError):
        DpuNetworkEngine(env, cluster.node("worker0"), fabric, cost, channel,
                         mode="sideways")


def test_engine_requires_dpu():
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    channel = ComchE(env, cost)
    with pytest.raises(ValueError):
        DpuNetworkEngine(env, cluster.ingress_node, fabric, cost, channel)


def test_duplicate_tenant_rejected():
    env, cost, cluster, engines, pools, channels = build_pair()
    with pytest.raises(ValueError):
        engines["worker0"].setup_tenant("t", pools["worker0"])


def test_double_start_rejected():
    env, cost, cluster, engines, pools, channels = build_pair()
    engines["worker0"].start()
    with pytest.raises(RuntimeError):
        engines["worker0"].start()


def test_dpu_engine_requires_rdma_grant():
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    channel = ComchE(env, cost)
    engine = DpuNetworkEngine(env, cluster.node("worker0"), fabric, cost, channel)
    pool = MemoryPool(env, "t", 8, 1024)
    # PCI-only export: registration with the RNIC must fail
    remote = create_from_export(
        CrossProcessorExporter(pool).export_pci().descriptor()
    )
    with pytest.raises(MappingError):
        engine.setup_tenant("t", pool, remote)


def test_function_cannot_touch_buffer_after_send():
    """The token-passing invariant across the engine boundary."""
    env, cost, cluster, engines, pools, channels = build_pair()
    channels["worker0"].attach("client")
    channels["worker1"].attach("server")
    engines["worker0"].start(warm_peers=[("worker1", "t")])
    engines["worker1"].start()
    host0 = cluster.node("worker0").cpu
    violations = []

    def client():
        yield env.timeout(25_000)
        buf = pools["worker0"].get("fn:client")
        buf.write("fn:client", "data", 4)
        buf.transfer("fn:client", engines["worker0"].agent)
        desc = _request(buf)
        yield from channels["worker0"].function_send(host0, "client", desc)
        try:
            buf.write("fn:client", "tamper", 6)
        except OwnershipError:
            violations.append("caught")

    env.process(client())
    env.run(until=100_000)
    assert violations == ["caught"]


def test_engine_drops_message_for_unknown_function():
    env, cost, cluster, engines, pools, channels = build_pair()
    channels["worker0"].attach("client")
    # note: no "server" endpoint attached on worker1
    engines["worker0"].start(warm_peers=[("worker1", "t")])
    engines["worker1"].start()
    host0 = cluster.node("worker0").cpu

    def client():
        yield env.timeout(25_000)
        buf = pools["worker0"].get("fn:client")
        buf.write("fn:client", "data", 4)
        buf.transfer("fn:client", engines["worker0"].agent)
        desc = _request(buf)
        yield from channels["worker0"].function_send(host0, "client", desc)

    env.process(client())
    env.run(until=100_000)
    # message was dropped (never delivered) and its buffer recycled
    assert channels["worker1"].to_fn_count == 0
    assert pools["worker1"].free_count == 128 - 32


def test_engine_stats_tenant_meter():
    env, cost, cluster, engines, pools, channels = build_pair()
    run_echo(env, cost, cluster, engines, pools, channels, n_messages=4)
    meter = engines["worker0"].stats.tenant_meter("t")
    assert meter.count == 4


def test_inputs_wait_in_their_stores_while_the_engine_is_down():
    """CQEs and descriptors that arrive between crash() and restart()
    stay in the CQ and the Comch server inbox, out of the backlog; the
    restarted engine handles each exactly once, in FIFO order, RX
    first.  stop() leaves later arrivals in the stores too."""
    env, cost, cluster, engines, pools, channels = build_pair()
    engine = engines["worker1"]
    handled = []

    def record_cqe(completion):
        handled.append(completion.wr_id)
        yield env.timeout(1.0)

    def record_tx(tenant, fn_id, descriptor):
        handled.append(fn_id)
        yield env.timeout(1.0)

    engine._handle_cqe = record_cqe
    engine._handle_tx = record_tx
    cq, inbox = engine.rnic.cq, engine.channel.server_inbox

    def descriptor():
        return _request(pools["worker1"].get(engine.agent))

    engine.start()
    env.run(until=10.0)
    engine.crash()
    arrivals = [("cq", Completion(Opcode.SEND, 1)), ("in", ("fn-a", descriptor())),
                ("cq", Completion(Opcode.SEND, 2)), ("in", ("fn-b", descriptor()))]
    for store, item in arrivals:
        (cq if store == "cq" else inbox).put_nowait(item)
    assert [c.wr_id for c in cq.items] == [1, 2]
    assert [fn for fn, _ in inbox.items] == ["fn-a", "fn-b"]
    assert engine.qos_backlog() == 0
    env.run(until=20.0)
    assert handled == []

    engine.restart()
    assert not cq.items and not inbox.items
    env.run(until=30.0)
    assert handled == [1, 2, "fn-a", "fn-b"]
    # Running: a put hands the CQE to the engine at once.
    cq.put_nowait(Completion(Opcode.SEND, 3))
    assert not cq.items and engine.qos_backlog() == 1
    env.run(until=40.0)
    assert handled == [1, 2, "fn-a", "fn-b", 3]

    engine.stop()
    cq.put_nowait(Completion(Opcode.SEND, 4))
    inbox.put_nowait(("fn-c", descriptor()))
    env.run(until=50.0)
    assert [c.wr_id for c in cq.items] == [4] and len(inbox.items) == 1
    assert handled == [1, 2, "fn-a", "fn-b", 3]
