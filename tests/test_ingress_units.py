"""Unit tests for ingress internals: adapters, proxy pieces, workers."""

import pytest

from repro.config import CostModel
from repro.ingress import ClientConnection, GatewayStats, TcpWorkerAdapter
from repro.ingress.gateway import GatewayWorker, WorkerPool
from repro.net import HttpRequest
from repro.platform import FunctionSpec, ServerlessPlatform, Tenant
from repro.sim import Environment


def adapter_setup(stack_kind=TcpWorkerAdapter.FSTACK):
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t1"))
    plat.deploy(FunctionSpec("svc", "t1", work_us=3), "worker0")
    adapter = TcpWorkerAdapter(env, plat.runtimes["worker0"], plat.cost,
                               stack_kind=stack_kind)
    adapter.start()
    plat.start()
    return env, plat, adapter


@pytest.mark.parametrize("stack_kind",
                         [TcpWorkerAdapter.FSTACK, TcpWorkerAdapter.KERNEL])
def test_adapter_request_response_cycle(stack_kind):
    env, plat, adapter = adapter_setup(stack_kind)
    got = []

    def complete(ctx, body, length):
        got.append((ctx, body, length))
        yield env.timeout(0)

    request = HttpRequest("/svc", body="hello", body_bytes=64)
    adapter.deliver_request(request, "t1", "svc", "CTX", complete)
    env.run(until=100_000)
    assert got and got[0][0] == "CTX"
    assert got[0][1] == "hello"  # echo handler round-trips the body
    assert adapter.requests == 1
    assert adapter.responses == 1


def test_adapter_registered_as_local_endpoint():
    env, plat, adapter = adapter_setup()
    runtime = plat.runtimes["worker0"]
    assert runtime.intra_routes.is_local(adapter.adapter_id)
    # infrastructure endpoint: trusted across tenants
    assert not runtime.crosses_security_domain("t1", adapter.adapter_id)


def test_adapter_recycles_buffers():
    env, plat, adapter = adapter_setup()

    def complete(ctx, body, length):
        yield env.timeout(0)

    for i in range(5):
        adapter.deliver_request(HttpRequest("/svc", body=f"r{i}",
                                            body_bytes=64),
                                "t1", "svc", i, complete)
    env.run(until=200_000)
    pool = plat.pool_for("t1", "worker0")
    assert pool.free_count == pool.buffer_count - plat.recv_buffers


def test_adapter_double_start_is_noop():
    env, plat, adapter = adapter_setup()
    adapter.start()  # idempotent
    env.run(until=1000)


# ---------------------------------------------------------------------------
# gateway pieces
# ---------------------------------------------------------------------------

def test_client_connection_ids_unique():
    env = Environment()
    a = ClientConnection(env)
    b = ClientConnection(env)
    assert a.conn_id != b.conn_id
    assert a.open and b.open


def test_gateway_stats_initial():
    stats = GatewayStats()
    assert stats.accepted == stats.completed == stats.dropped == 0


def test_rss_pick_requires_workers():
    pool = WorkerPool(Environment(), CostModel(), None, "gw", None)
    with pytest.raises(RuntimeError):
        pool.pick(1)


def test_rss_pick_stable_per_connection():
    env = Environment()

    class _Core:
        class tracker:
            useful = 0.0

    pool = WorkerPool(env, CostModel(), None, "gw", None)
    pool.workers.extend(GatewayWorker(env, i, _Core()) for i in range(4))
    assert pool.pick(7) is pool.pick(7)


def test_worker_pause_extends_not_shrinks():
    env = Environment()

    class _Core:
        class tracker:
            useful = 0.0

    worker = GatewayWorker(env, 0, _Core())
    worker.pause(1000)
    worker.pause(500)  # shorter pause must not shorten the window
    assert worker._pause_until == 1000
