"""Tests for the cluster ingress gateways (Palladium / K / F) + autoscaler."""

from dataclasses import replace

import pytest

from repro.config import CostModel, SEC
from repro.experiments.wiring import wire_ingress
from repro.ingress import (
    ClientConnection,
    FIngress,
    GatewayWorker,
    KIngress,
    PalladiumIngress,
    TcpWorkerAdapter,
    WorkerPool,
)
from repro.net import HttpRequest
from repro.platform import ServerlessPlatform, Tenant
from repro.sim import Environment
from repro.workloads import ClientFleet, deploy_http_echo, ECHO_TENANT


def palladium_setup():
    env = Environment()
    plat = ServerlessPlatform(env)
    resolver = deploy_http_echo(plat)
    ingress = PalladiumIngress(env, plat.cluster, plat.fabric, plat.cost,
                               resolver, min_workers=1)
    ingress.add_tenant(ECHO_TENANT)
    plat.coordinator.subscribe(ingress.routes)
    plat.register_external(ingress.AGENT, "ingress")
    ingress.start()
    plat.start()
    return env, plat, ingress


def proxy_setup(kind):
    env = Environment()
    plat = ServerlessPlatform(env)
    resolver = deploy_http_echo(plat)
    adapter = TcpWorkerAdapter(env, plat.runtimes["worker0"], plat.cost,
                               stack_kind=TcpWorkerAdapter.FSTACK)
    factory = KIngress if kind == "k" else FIngress
    ingress = factory(env, plat.cluster, plat.cost, resolver,
                      {"worker0": adapter}, lambda fn: "worker0", cores=1)
    ingress.start()
    plat.start()
    return env, plat, ingress


def run_fleet(env, plat, ingress, clients=2, until=400_000):
    fleet = ClientFleet(env, plat.cluster, ingress, path="/echo",
                        body_bytes=128, payload="hello")

    def kickoff():
        yield env.timeout(50_000)
        fleet.spawn(clients)

    env.process(kickoff())
    env.run(until=until)
    return fleet


# ---------------------------------------------------------------------------
# Palladium ingress
# ---------------------------------------------------------------------------

def test_palladium_ingress_end_to_end():
    env, plat, ingress = palladium_setup()
    fleet = run_fleet(env, plat, ingress)
    assert fleet.total_completed() > 100
    assert fleet.total_errors() == 0
    # responses echo the request payload
    assert ingress.stats.completed == fleet.total_completed()


def test_palladium_ingress_payload_integrity():
    env, plat, ingress = palladium_setup()
    conn = ingress.connect()
    got = []

    def client():
        yield env.timeout(50_000)
        request = HttpRequest("/echo", body="precious", body_bytes=64)
        yield from plat.cluster.ether_up.transmit(request.wire_bytes)
        ingress.submit(conn, request)
        response = yield conn.inbox.get()
        got.append(response)

    env.process(client())
    env.run(until=300_000)
    assert got and got[0].body == "precious"
    assert got[0].status == 200


def test_palladium_ingress_recycles_buffers():
    env, plat, ingress = palladium_setup()
    fleet = run_fleet(env, plat, ingress)
    pool = ingress.pools[ECHO_TENANT]
    # free = total - posted receive buffers (replenished steady state)
    assert pool.free_count >= pool.buffer_count - ingress.recv_buffers - 8


def test_palladium_ingress_duplicate_tenant_rejected():
    env, plat, ingress = palladium_setup()
    with pytest.raises(ValueError):
        ingress.add_tenant(ECHO_TENANT)


def test_palladium_rss_spreads_connections():
    env = Environment()
    plat = ServerlessPlatform(env)
    resolver = deploy_http_echo(plat)
    ingress = PalladiumIngress(env, plat.cluster, plat.fabric, plat.cost,
                               resolver, min_workers=4)
    ingress.add_tenant(ECHO_TENANT)
    ingress.start()
    picks = {ingress.pool.pick(i).name for i in range(64)}
    assert len(picks) == 4


# ---------------------------------------------------------------------------
# Proxy ingresses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["k", "f"])
def test_proxy_ingress_end_to_end(kind):
    env, plat, ingress = proxy_setup(kind)
    fleet = run_fleet(env, plat, ingress)
    assert fleet.total_completed() > 50
    assert fleet.total_errors() == 0


def test_proxy_f_faster_than_k():
    results = {}
    for kind in ("k", "f"):
        env, plat, ingress = proxy_setup(kind)
        fleet = run_fleet(env, plat, ingress, clients=8)
        results[kind] = fleet.total_completed()
    assert results["f"] > results["k"] * 1.5


def test_palladium_beats_proxies():
    env, plat, ingress = palladium_setup()
    palladium = run_fleet(env, plat, ingress, clients=8).total_completed()
    env2, plat2, f_ingress = proxy_setup("f")
    fstack = run_fleet(env2, plat2, f_ingress, clients=8).total_completed()
    assert palladium > fstack


def test_adapter_stack_kind_validation():
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant(ECHO_TENANT))
    with pytest.raises(ValueError):
        TcpWorkerAdapter(env, plat.runtimes["worker0"], plat.cost,
                         stack_kind="quantum")


def test_kernel_adapter_uses_shared_cores():
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant(ECHO_TENANT))
    before = len(plat.cluster.node("worker0").cpu.pinned)
    TcpWorkerAdapter(env, plat.runtimes["worker0"], plat.cost,
                     stack_kind=TcpWorkerAdapter.KERNEL)
    assert len(plat.cluster.node("worker0").cpu.pinned) == before


def test_fstack_adapter_pins_a_core():
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant(ECHO_TENANT))
    before = len(plat.cluster.node("worker0").cpu.pinned)
    TcpWorkerAdapter(env, plat.runtimes["worker0"], plat.cost,
                     stack_kind=TcpWorkerAdapter.FSTACK)
    assert len(plat.cluster.node("worker0").cpu.pinned) == before + 1


# ---------------------------------------------------------------------------
# Autoscaler (hysteresis policy, §3.6)
# ---------------------------------------------------------------------------

class _FakeCore:
    useful = 0.0


class _FakeCpu:
    def allocate_pinned(self, name):
        return _FakeCore()


def _idle_loop(worker):
    yield worker.inbox.get()


def make_autoscaler(env, cost, workers=1):
    pool = WorkerPool(env, cost, _FakeCpu(), "gw", _idle_loop,
                      min_workers=1, max_workers=4)
    for _ in range(workers):
        pool.spawn()
    return pool.autoscaler, pool.workers


def test_autoscaler_scales_up_past_threshold():
    env = Environment()
    cost = CostModel()
    scaler, workers = make_autoscaler(env, cost)

    def load():
        while True:
            yield env.timeout(100_000)
            for worker in workers:
                worker.core.useful += 80_000  # 80% busy

    env.process(load())
    scaler.start()
    env.run(until=3.5 * SEC)
    assert len(workers) > 1
    assert scaler.scale_events >= 1


def test_autoscaler_scales_down_when_idle():
    env = Environment()
    cost = CostModel()
    # start with 3 workers, all idle
    scaler, workers = make_autoscaler(env, cost, workers=3)
    scaler.start()
    env.run(until=3.5 * SEC)
    assert len(workers) == 1  # reaped down to min


def test_autoscaler_respects_max():
    env = Environment()
    cost = CostModel()
    scaler, workers = make_autoscaler(env, cost)

    def load():
        while True:
            yield env.timeout(100_000)
            for worker in workers:
                worker.core.useful += 95_000

    env.process(load())
    scaler.start()
    env.run(until=10 * SEC)
    assert len(workers) == 4  # capped at max_workers


def test_scale_event_pauses_workers():
    env = Environment()
    cost = CostModel()
    worker = GatewayWorker(env, 0, _FakeCore())
    worker.pause(1000.0)
    resumed = []

    def proc():
        yield from worker.maybe_pause()
        resumed.append(env.now)

    env.process(proc())
    env.run()
    assert resumed == [1000.0]


@pytest.mark.parametrize("kind", ["palladium", "f-ingress"])
def test_scale_in_loses_no_request(kind):
    # Three extra workers under light load: the autoscaler reaps them
    # while requests and responses are queued for them.  A reaped
    # worker serves its queue before it unpins its core, and a response
    # whose worker is gone goes to a live one.
    env = Environment()
    cost = replace(CostModel(), ingress_autoscale_period_us=20_000,
                   ingress_scale_event_pause_us=200)
    plat = ServerlessPlatform(env, cost=cost)
    resolver = deploy_http_echo(plat)
    ingress = wire_ingress(plat, kind, resolver, {ECHO_TENANT: 512},
                           cores=1, max_workers=4)
    ingress.start()
    plat.start()
    for _ in range(3):
        ingress.pool.spawn()
    fleet = ClientFleet(env, plat.cluster, ingress, path="/echo",
                        timeout_us=200_000)

    def kickoff():
        yield env.timeout(30_000)
        fleet.spawn(2, connections_per_client=8)

    env.process(kickoff())
    env.run(until=300_000)
    assert ingress.pool.autoscaler.scale_ins >= 1
    assert fleet.total_errors() == 0
    assert fleet.disconnected_count() == 0


def test_reaped_worker_serves_its_queue_before_unpinning():
    env, plat, ingress = palladium_setup()
    worker = ingress.pool.spawn()
    conn = ClientConnection(env)
    pinned_while_draining = []

    def scenario():
        yield env.timeout(50_000)
        for _ in range(3):
            request = HttpRequest("/echo", body="x", body_bytes=64)
            worker.inbox.put_nowait(("request", (conn, request)))
        ingress.pool.reap()
        pinned_while_draining.append(worker.core._pinned)

    env.process(scenario())
    env.run(until=300_000)
    assert pinned_while_draining == [True]
    assert not worker.core._pinned
    assert len(conn.inbox.items) == 3  # answered through a live worker
