"""Tests for workloads: boutique, generators, traces."""

import pytest

from repro.config import SEC
from repro.platform import ServerlessPlatform, Tenant
from repro.sim import Environment
from repro.workloads import (
    BOUTIQUE_CHAINS,
    BOUTIQUE_FUNCTIONS,
    BOUTIQUE_PLACEMENT,
    BOUTIQUE_TENANT,
    CHAIN_PATHS,
    DirectDriver,
    TenantTrace,
    boutique_resolver,
    deploy_boutique,
    deploy_echo_pair,
    fig15_traces,
    path_payload,
)
from repro.workloads.boutique import boutique_specs


# ---------------------------------------------------------------------------
# Boutique model
# ---------------------------------------------------------------------------

def test_boutique_has_ten_functions():
    assert len(BOUTIQUE_FUNCTIONS) == 10
    assert len(boutique_specs()) == 10


def test_boutique_has_six_chains():
    assert len(BOUTIQUE_CHAINS) == 6


def test_eval_chains_exceed_eleven_exchanges():
    """The paper: each evaluated chain incurs >11 data exchanges."""
    for name in ("Home Query", "View Cart", "Product Query"):
        chain = next(c for c in BOUTIQUE_CHAINS if c.name == name)
        assert chain.exchange_count > 11


def test_placement_matches_paper():
    """Hotspots on one node, the remaining seven on the other (§4.3)."""
    hot = {fn for fn, node in BOUTIQUE_PLACEMENT.items() if node == "worker0"}
    assert hot == {"frontend", "checkout", "recommendation"}
    assert sum(1 for n in BOUTIQUE_PLACEMENT.values() if n == "worker1") == 7


def test_resolver_routes_to_frontend():
    assert boutique_resolver("/home") == (BOUTIQUE_TENANT, "frontend")
    assert boutique_resolver("/anything") == (BOUTIQUE_TENANT, "frontend")


def test_path_payload_ops():
    assert path_payload("/home") == {"op": "home"}
    assert path_payload("/viewcart") == {"op": "viewcart"}
    assert path_payload("/") == {"op": "home"}


def _boutique_platform(single_node=False):
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant(BOUTIQUE_TENANT, pool_buffers=1024))
    deploy_boutique(plat, single_node=single_node)
    plat.start()
    return env, plat


@pytest.mark.parametrize("path", sorted(CHAIN_PATHS.values()))
def test_every_chain_completes(path):
    env, plat = _boutique_platform()
    frontend = plat.functions["frontend"]
    replies = []

    def body():
        yield env.timeout(60_000)
        reply = yield from frontend.invoke("frontend", path_payload(path), 256)
        replies.append(reply.payload)

    env.process(body())
    env.run(until=1_000_000)
    assert len(replies) == 1
    assert "error" not in (replies[0] or {})


def test_single_node_deployment():
    env, plat = _boutique_platform(single_node=True)
    for fn in BOUTIQUE_FUNCTIONS:
        assert plat.coordinator.node_of(fn) == "worker0"


def test_home_query_touches_expected_services():
    env, plat = _boutique_platform()

    def body():
        yield env.timeout(60_000)
        yield from plat.functions["frontend"].invoke(
            "frontend", path_payload("/home"), 256
        )

    env.process(body())
    env.run(until=1_000_000)
    for fn in ("currency", "productcatalog", "cart", "recommendation", "ad"):
        assert plat.functions[fn].handled >= 1, fn
    assert plat.functions["payment"].handled == 0  # not on the home path


def test_checkout_touches_payment_and_email():
    env, plat = _boutique_platform()

    def body():
        yield env.timeout(60_000)
        yield from plat.functions["frontend"].invoke(
            "frontend", path_payload("/checkout"), 256
        )

    env.process(body())
    env.run(until=1_000_000)
    for fn in ("checkout", "payment", "email", "shipping"):
        assert plat.functions[fn].handled >= 1, fn
    assert plat.functions["cart"].handled == 2  # GetCart + EmptyCart


# ---------------------------------------------------------------------------
# DirectDriver
# ---------------------------------------------------------------------------

def test_direct_driver_closed_loop():
    env = Environment()
    plat = ServerlessPlatform(env)
    client, server = deploy_echo_pair(plat)
    plat.start()
    driver = DirectDriver(env, client, server, size=128)

    def kickoff():
        yield env.timeout(30_000)
        yield from driver.run(max_requests=5)

    env.process(kickoff())
    env.run(until=500_000)
    assert driver.completed == 5
    assert len(driver.latency.samples) == 5


def test_direct_driver_stop():
    env = Environment()
    plat = ServerlessPlatform(env)
    client, server = deploy_echo_pair(plat)
    plat.start()
    driver = DirectDriver(env, client, server)

    def kickoff():
        yield env.timeout(30_000)
        yield from driver.run()

    def stopper():
        yield env.timeout(100_000)
        driver.stop()

    env.process(kickoff())
    env.process(stopper())
    env.run(until=300_000)
    assert driver.completed > 0


# ---------------------------------------------------------------------------
# ClientFleet (closed-loop wrk clients)
# ---------------------------------------------------------------------------

class _ScriptedGateway:
    """Duck-typed gateway that answers from a script of statuses.

    Each ``submit`` takes the next entry: an HTTP status is answered at
    once, ``None`` drops the request.  Once the script runs out every
    request is dropped.
    """

    def __init__(self, env, script):
        self.env = env
        self.script = list(script)
        self.connections = []
        self.submitted = 0

    def connect(self):
        from repro.ingress.gateway import ClientConnection
        conn = ClientConnection(self.env)
        self.connections.append(conn)
        return conn

    def submit(self, conn, request):
        from repro.net import HttpResponse
        self.submitted += 1
        status = self.script.pop(0) if self.script else None
        if status is not None:
            conn.inbox.put_nowait(
                HttpResponse(status, request_id=request.request_id))


def test_client_fleet_accounts_ok_shed_and_timeout():
    from repro.hw import build_cluster
    from repro.workloads import ClientFleet
    env = Environment()
    gateway = _ScriptedGateway(env, [200, 503, None, 200])
    fleet = ClientFleet(env, build_cluster(env), gateway,
                        timeout_us=1_000.0, reconnect=True,
                        reconnect_us=500.0)
    fleet.spawn(1)
    # request 5 is dropped too; stop before its timeout fires
    env.run(until=2_000.0)
    (client,) = fleet.clients
    assert client.completed == 2
    assert client.rejected == 1
    assert client.errors == 1
    assert client.reconnects == 1
    assert not client.disconnected
    assert gateway.submitted == 5
    # the timed-out connection was torn down and a new one dialled
    assert [c.open for c in gateway.connections] == [False, True]
    assert fleet.total_completed() == 2 and fleet.total_errors() == 1
    # a completion is counted once by the fleet meter and once in the
    # client's latency; sheds and timeouts record in neither
    assert fleet.throughput.count == fleet.total_completed()
    for c in fleet.clients:
        assert len(c.latency.samples) == c.completed


# ---------------------------------------------------------------------------
# Tenant traces (Fig. 15)
# ---------------------------------------------------------------------------

def test_fig15_traces_match_paper_windows():
    t1, t2, t3 = fig15_traces()
    assert t1.weight == 6 and t2.weight == 1 and t3.weight == 2
    # Tenant-1 active the whole 4 minutes
    assert t1.active(0) and t1.active(239 * SEC)
    # Tenant-2 joins at 20 s, exits at 3m20s
    assert not t2.active(19 * SEC) and t2.active(21 * SEC)
    assert not t2.active(201 * SEC)
    # Tenant-3 runs 1m30s - 2m30s
    assert not t3.active(89 * SEC) and t3.active(91 * SEC)
    assert not t3.active(151 * SEC)


def test_trace_surge_pattern():
    trace = TenantTrace("t", 1.0, 0.0, 100 * SEC, concurrency=10,
                        surge_period_us=10 * SEC, surge_duty=0.5,
                        baseline_fraction=0.2)
    assert trace.drivers_at(1 * SEC) == 10      # surge phase
    assert trace.drivers_at(6 * SEC) == 2       # trough
    assert trace.drivers_at(11 * SEC) == 10     # next period
    assert trace.drivers_at(200 * SEC) == 0     # outside window


def test_steady_trace_constant():
    trace = TenantTrace("t", 1.0, 0.0, 10 * SEC, concurrency=7)
    assert trace.drivers_at(5 * SEC) == 7


# ---------------------------------------------------------------------------
# Diurnal schedules
# ---------------------------------------------------------------------------

def test_rate_schedule_interpolates():
    from repro.workloads import RateSchedule
    sched = RateSchedule([(0, 100.0), (100, 200.0)])
    assert sched.rate_at(-5) == 100.0
    assert sched.rate_at(0) == 100.0
    assert sched.rate_at(50) == 150.0
    assert sched.rate_at(100) == 200.0
    assert sched.rate_at(500) == 200.0
    assert sched.peak == 200.0


def test_rate_schedule_validation():
    from repro.workloads import RateSchedule
    with pytest.raises(ValueError):
        RateSchedule([])
    with pytest.raises(ValueError):
        RateSchedule([(10, 1.0), (0, 2.0)])  # unsorted
    with pytest.raises(ValueError):
        RateSchedule([(0, -1.0)])


def test_diurnal_schedule_shape():
    from repro.workloads import diurnal_schedule
    sched = diurnal_schedule(1_000_000, base_rps=100, peak_rps=1000)
    assert sched.rate_at(0) == 100
    assert sched.rate_at(200_000) == 1000          # morning peak
    assert sched.rate_at(450_000) == pytest.approx(600)  # lunch dip
    assert sched.rate_at(999_999) == pytest.approx(100, rel=0.01)
    with pytest.raises(ValueError):
        diurnal_schedule(1000, base_rps=10, peak_rps=5)


def test_scheduled_source_follows_curve():
    from repro.ingress import PalladiumIngress
    from repro.workloads import OpenLoopSource, RateSchedule, ScheduledSource
    from repro.workloads import deploy_http_echo
    from repro.platform import ServerlessPlatform

    env = Environment()
    plat = ServerlessPlatform(env)
    resolver = deploy_http_echo(plat)
    ingress = PalladiumIngress(env, plat.cluster, plat.fabric, plat.cost,
                               resolver, min_workers=2)
    ingress.add_tenant("echo", buffers=512)
    plat.coordinator.subscribe(ingress.routes)
    plat.register_external(ingress.AGENT, "ingress")
    ingress.start()
    plat.start()
    source = OpenLoopSource(env, plat.cluster, ingress, rate_rps=1.0,
                            path="/echo")
    schedule = RateSchedule([(0, 5_000.0), (100_000, 40_000.0),
                             (200_000, 5_000.0)])
    driver = ScheduledSource(env, source, schedule)

    def kickoff():
        yield env.timeout(50_000)
        yield from driver.run()

    env.process(kickoff())
    env.run(until=300_000)
    # offered load tracked the bell curve: mid-window rate far above edges
    mid = source.throughput.rate(140_000, 170_000)
    edge = source.throughput.rate(60_000, 80_000)
    assert mid > edge * 2
    assert source.completed > 0


def test_scattered_placement_is_complete():
    from repro.workloads.boutique import BOUTIQUE_FUNCTIONS, scattered_placement
    placement = scattered_placement()
    assert set(placement) == set(BOUTIQUE_FUNCTIONS)
    assert placement["frontend"] == "worker0"
    # every frontend dependency is remote in the scattered layout
    for fn in ("currency", "productcatalog", "cart", "ad"):
        assert placement[fn] == "worker1"
