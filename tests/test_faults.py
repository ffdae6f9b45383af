"""Tests for the fault-injection subsystem and the recovery machinery.

Covers the failure model end to end: QP error states with
flush-to-CQE semantics, shadow-pool eviction of fault-torn QPs,
capped reconnect backoff, reliable-send
retransmission and tenant-visible failures, node-crash failover to
surviving replicas, graceful degradation to the kernel-TCP fallback,
link flap/degrade, fault plans/injectors, and ingress health checks.
"""

import pytest

from repro.config import CostModel
from repro.dataplane import Message
from repro.dne import RouteError
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.hw import build_cluster
from repro.memory import MemoryPool
from repro.platform import (
    ElasticPlatform,
    FunctionSpec,
    InvokeTimeout,
    SendError,
    ServerlessPlatform,
    Tenant,
)
from repro.rdma import (
    ConnectionManager,
    Opcode,
    QPState,
    QpError,
    RdmaFabric,
    WorkRequest,
)
from repro.sim import Environment


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def make_fabric(cost=None):
    env = Environment()
    cost = cost or CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    r0 = fabric.install_rnic("worker0")
    r1 = fabric.install_rnic("worker1")
    return env, cost, fabric, r0, r1


def make_pools(env, r0, r1, count=16, size=4096):
    p0 = MemoryPool(env, "t", count, size, name="p0")
    p1 = MemoryPool(env, "t", count, size, name="p1")
    r0.register_pool(p0)
    r1.register_pool(p1)
    return p0, p1


def warm(env, cm, count=1):
    holder = {}

    def setup():
        holder["pool"] = yield from cm.warm_up("worker1", "t", count)

    env.process(setup())
    env.run()
    return holder["pool"]


def make_platform(elastic=False, **kwargs):
    env = Environment()
    cls = ElasticPlatform if elastic else ServerlessPlatform
    plat = cls(env, **kwargs)
    plat.add_tenant(Tenant("t1"))
    return env, plat


def drive(env, body, until=500_000, warmup=30_000):
    def driver():
        yield env.timeout(warmup)  # RC warm-up
        yield from body()

    env.process(driver())
    env.run(until=until)


# ---------------------------------------------------------------------------
# QP error state + flush-to-CQE (RNIC level)
# ---------------------------------------------------------------------------

def test_posts_on_errored_qp_flush_to_failed_cqes_in_order():
    env, cost, fabric, r0, r1 = make_fabric()
    p0, p1 = make_pools(env, r0, r1)
    cm = ConnectionManager(env, fabric, "worker0", cost)
    qp = warm(env, cm, 1)[0]
    cm.fail_connections(cause="injected")
    assert qp.state == QPState.ERROR

    wrs = [WorkRequest(opcode=Opcode.SEND, length=8) for _ in range(3)]
    for wr in wrs:
        r0.post_send(qp, wr)
    env.run()
    completions = []
    while True:
        c = r0.cq.try_get()
        if c is None:
            break
        completions.append(c)
    # every post flushed: failed CQE each, FIFO order, nothing executed
    assert [c.wr_id for c in completions] == [wr.wr_id for wr in wrs]
    assert all(c.flushed and not c.ok for c in completions)
    assert r0.flushed_cqes == 3
    assert qp.pending_wrs == 0


def test_inline_execute_on_errored_qp_raises():
    env, cost, fabric, r0, r1 = make_fabric()
    make_pools(env, r0, r1)
    cm = ConnectionManager(env, fabric, "worker0", cost)
    qp = warm(env, cm, 1)[0]
    cm.fail_connections(cause="injected")
    caught = []

    def poster():
        try:
            yield from r0.execute(qp, WorkRequest(opcode=Opcode.SEND, length=4))
        except QpError as exc:
            caught.append(exc.cause)

    env.process(poster())
    env.run()
    assert caught == ["injected"]


def test_peer_nic_death_errors_inflight_send():
    """A SEND stalled in RNR flushes when the peer NIC dies."""
    env, cost, fabric, r0, r1 = make_fabric()
    p0, p1 = make_pools(env, r0, r1)
    cm = ConnectionManager(env, fabric, "worker0", cost)
    qp = warm(env, cm, 1)[0]
    src = p0.get("dne0")
    src.write("dne0", "x", 1)
    # No receive buffer posted on worker1: the SEND blocks in RNR.
    r0.post_send(qp, WorkRequest(opcode=Opcode.SEND, buffer=src, length=1))
    def killer():
        yield env.timeout(50_000)
        r1.fail()

    env.process(killer())
    env.run()
    completion = r0.cq.try_get()
    assert completion is not None and completion.flushed and not completion.ok
    assert qp.state == QPState.ERROR


def test_fail_connections_errors_both_ends():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    qp = warm(env, cm, 2)[0]
    failed = cm.fail_connections(remote="worker1", tenant="t")
    assert failed == 2
    assert qp.state == QPState.ERROR and qp.peer.state == QPState.ERROR
    # idempotent: already-errored QPs are not failed again
    assert cm.fail_connections() == 0


# ---------------------------------------------------------------------------
# ConnectionManager: eviction, re-warm, reconnect backoff, budgets
# ---------------------------------------------------------------------------

def test_errored_qps_evicted_from_pool_on_next_touch():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    warm(env, cm, 4)
    assert cm.pooled_count() == 4
    cm.fail_peer("worker1")
    holder = {}

    def get():
        holder["qp"] = yield from cm.get_connection("worker1", "t")

    env.process(get())
    env.run()
    # the pool was purged, then a fresh connection established cold
    assert cm.evicted_qps == 4
    assert not holder["qp"].is_errored
    assert cm.pooled_count() == 1


def test_deactivate_idle_evicts_errored_and_demotes_idle():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    holder = {}

    def setup():
        yield from cm.warm_up("worker1", "t", 3)
        holder["qp"] = yield from cm.get_connection("worker1", "t")

    env.process(setup())
    env.run()
    qp = holder["qp"]
    assert qp.is_active
    # error one of the shadow QPs, then sweep
    shadow = next(q for q in cm._pool[("worker1", "t")] if q is not qp)
    cm.fail_connections(count=0)  # count=0: no-op guard
    cm._fail_qp(shadow, "injected")
    demoted = cm.deactivate_idle()
    assert demoted == 1  # the idle active QP went back to shadow
    assert qp.state == QPState.INACTIVE
    assert shadow not in cm._pool[("worker1", "t")]
    assert fabric.rnic("worker0").active_qps == 0


def test_warm_up_refills_pool_after_teardown():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    warm(env, cm, 4)
    cm.fail_peer("worker1")
    assert cm.evict_errored() == 4
    pool = warm(env, cm, 4)
    assert len(pool) == 4
    assert not any(qp.is_errored for qp in pool)


def test_connect_to_dead_peer_costs_setup_and_errors():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    cm.peer_alive = lambda remote: False
    holder = {}

    def get():
        holder["qp"] = yield from cm.get_connection("worker1", "t")
        holder["t"] = env.now

    env.process(get())
    env.run()
    assert holder["qp"].is_errored
    assert holder["t"] == pytest.approx(cost.rc_setup_us)
    assert cm.connect_failures == 1
    assert cm.pooled_count() == 0  # the errored QP was never pooled


def test_reconnect_backs_off_until_peer_returns():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    cm.reconnect_cap_us = 8_000.0
    alive = {"up": False}
    cm.peer_alive = lambda remote: alive["up"]
    cm.schedule_reconnect("worker1", "t")
    # duplicate schedule for the same (peer, tenant) is refused
    assert cm.schedule_reconnect("worker1", "t") is None

    def revive():
        yield env.timeout(20_000)
        alive["up"] = True

    env.process(revive())
    env.run()
    assert cm.reconnects_succeeded == 1
    assert cm.pooled_count() == 1
    # attempts at 1,3,7,15,23 ms (capped at 8): >= 4 before revival
    assert len(cm.backoff_delays[("worker1", "t")]) >= 4


# ---------------------------------------------------------------------------
# iolib: reliable sends, retry exhaustion, invoke timeouts
# ---------------------------------------------------------------------------

def _sink(ctx, msg):
    """Handler for raw iolib sends (no rid/reply_to to respond to)."""
    yield from ctx.compute()


def test_reliable_send_succeeds_without_retransmission():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", handler=_sink, work_us=0),
                "worker1")
    plat.start()

    def body():
        yield from client.iolib.send("fn:client", "server", "ping", 64,
                                     Message(tenant="t1"),
                                     timeout_us=20_000.0)

    drive(env, body)
    assert client.iolib.retransmissions == 0
    assert client.iolib.send_failures == 0
    assert plat.functions["server"].handled == 1


def test_reliable_send_guard_fires_inert_after_the_ack():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", handler=_sink, work_us=0),
                "worker1")
    plat.start()
    timeout_us = 20_000.0
    snapshots = []

    def snapshot():
        return client.iolib.retransmissions, client.iolib.send_failures

    def body():
        yield from client.iolib.send("fn:client", "server", "ping", 64,
                                     Message(tenant="t1"),
                                     timeout_us=timeout_us)
        snapshots.append(snapshot())
        # The guard was armed before the ack, so it has fired (with
        # nobody listening) by the end of this sleep.
        yield env.timeout(timeout_us)
        snapshots.append(snapshot())

    drive(env, body)
    assert len(snapshots) == 2
    assert snapshots[0] == snapshots[1] == (0, 0)
    # one delivery: the late guard sent no duplicate
    assert plat.functions["server"].handled == 1


def test_reliable_send_retry_exhaustion_is_tenant_visible():
    """An unroutable destination nacks every attempt -> SendError."""
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    plat.start()
    caught = []

    def body():
        plat.coordinator.function_terminated("server")
        try:
            yield from client.iolib.send("fn:client", "server", "ping", 64,
                                         Message(tenant="t1"),
                                         timeout_us=5_000.0)
        except SendError as exc:
            caught.append(str(exc))

    drive(env, body)
    assert len(caught) == 1 and "after 3 attempts" in caught[0]
    assert client.iolib.retransmissions == 2
    assert client.iolib.send_failures == 1


def test_invoke_times_out_against_crashed_node_without_recovery():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    plat.runtimes["worker0"].invoke_timeout_us = 10_000.0
    plat.start()
    caught = []

    pool = plat.pool_for("t1", "worker0")
    baseline = {}

    def body():
        baseline["free"] = pool.free_count
        # no recovery: routes still point at the dead node
        plat.crash_node("worker1", recovery=False)
        try:
            yield from client.invoke("server", "ping", 64)
        except InvokeTimeout:
            caught.append(env.now)

    drive(env, body, warmup=40_000)
    assert len(caught) == 1
    assert client.invoke_timeouts == 1
    # the in-flight buffer was flushed and recycled home
    assert pool.free_count == baseline["free"]


def test_invoke_deadline_fires_exactly_at_the_timeout():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    deadline_us = 10_000.0
    plat.runtimes["worker0"].invoke_timeout_us = deadline_us
    plat.start()
    sent, caught = [], []
    send = client.iolib.send

    def timed_send(*args, **kwargs):
        yield from send(*args, **kwargs)
        sent.append(env.now)

    client.iolib.send = timed_send

    def body():
        plat.crash_node("worker1", recovery=False)
        try:
            yield from client.invoke("server", "ping", 64)
        except InvokeTimeout:
            caught.append(env.now)

    drive(env, body, warmup=40_000)
    # The guard is armed once the request is handed off and is not
    # rounded to any timer granularity.
    assert len(sent) == len(caught) == 1
    assert caught[0] == sent[0] + deadline_us
    assert client.invoke_timeouts == 1


def test_invoke_reply_beats_the_guard_timeout():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    server = plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    deadline_us = 50_000.0
    plat.runtimes["worker0"].invoke_timeout_us = deadline_us
    plat.start()
    replies, snapshots = [], []

    def snapshot():
        return client.invoke_timeouts, len(client._pending), server.handled

    def body():
        reply = yield from client.invoke("server", "ping", 64)
        replies.append(reply.payload)
        snapshots.append(snapshot())
        # The guard was armed before the reply, so it has fired (with
        # nobody listening) by the end of this sleep.
        yield env.timeout(deadline_us)
        snapshots.append(snapshot())

    drive(env, body, warmup=40_000)
    assert len(replies) == 1
    assert client.invoke_timeouts == 0
    assert len(snapshots) == 2
    assert snapshots[0] == snapshots[1] == (0, 0, 1)


# ---------------------------------------------------------------------------
# node crash: coordinator withdrawal + replica failover + restart
# ---------------------------------------------------------------------------

def test_node_crash_fails_over_to_surviving_replica():
    env, plat = make_platform(elastic=True)
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    spec = FunctionSpec("svc", "t1", work_us=5)
    plat.deploy_service(spec, "worker1")   # svc#0 on worker1
    plat.scale_out(spec, "worker0")        # svc#1 on worker0
    plat.start()
    got = []

    def body():
        plat.crash_node("worker1")
        for _ in range(4):
            reply = yield from client.invoke("svc", "ping", 64)
            got.append(reply.payload)

    drive(env, body, warmup=40_000)
    assert got == ["ping"] * 4
    # only the survivor served; the dead replica left the rotation
    assert plat.services["svc"].replicas == ["svc#1"]
    assert plat.functions["svc#1"].handled == 4
    assert plat.functions["svc#0"].handled == 0
    # the coordinator withdrew the dead node's routes everywhere
    with pytest.raises(RouteError):
        plat.engines["worker0"].routes.node_for("svc#0")


def test_node_restart_restores_replicas_and_routes():
    env, plat = make_platform(elastic=True)
    plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    spec = FunctionSpec("svc", "t1", work_us=5)
    plat.deploy_service(spec, "worker1")
    plat.scale_out(spec, "worker0")
    plat.start()

    def body():
        plat.crash_node("worker1")
        yield env.timeout(50_000)
        plat.restart_node("worker1")

    drive(env, body, warmup=40_000)
    assert sorted(plat.services["svc"].replicas) == ["svc#0", "svc#1"]
    assert plat.engines["worker0"].routes.node_for("svc#0") == "worker1"
    assert plat.runtimes["worker1"].alive
    engine = plat.engines["worker1"]
    assert engine.available and engine.crashes == 1 and engine.restarts == 1
    # surviving engines re-established connectivity in the background
    assert plat.engines["worker0"].conn_mgr.reconnects_succeeded >= 1


def test_crashed_instance_drops_traffic_until_recover():
    env, plat = make_platform()
    server = plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.start()

    pool = plat.pool_for("t1", "worker1")
    baseline = {}

    def body():
        baseline["free"] = pool.free_count
        server.crash()
        yield from client.iolib.send("fn:client", "server", "x", 64,
                                     Message(tenant="t1"))
        yield env.timeout(20_000)

    drive(env, body)
    assert server.handled == 0
    assert server.dropped == 1
    # the dropped delivery's buffer was recycled to the pool
    assert pool.free_count == baseline["free"]


# ---------------------------------------------------------------------------
# engine crash: kernel-TCP graceful degradation
# ---------------------------------------------------------------------------

def test_engine_crash_degrades_to_kernel_tcp_and_back():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker1")
    plat.start()
    got = []

    def body():
        for engine in plat.engines.values():
            engine.crash()
        reply = yield from client.invoke("server", "ping", 64)
        got.append(reply.payload)
        # engines come back: traffic returns to the fast path
        for engine in plat.engines.values():
            engine.restart()
        yield env.timeout(5_000)
        reply = yield from client.invoke("server", "ping2", 64)
        got.append(reply.payload)

    drive(env, body, warmup=40_000)
    assert got == ["ping", "ping2"]
    # request + reply each crossed the kernel stack exactly once
    assert plat.tcp_fallback.sends == 2
    assert plat.tcp_fallback.delivered == 2
    assert client.iolib.fallback_sends == 1
    # after the restart the engine path carried the second round trip
    assert plat.engines["worker0"].stats.tx_messages >= 1


def test_engine_restart_requires_crash_first():
    env, plat = make_platform()
    plat.start()
    with pytest.raises(RuntimeError):
        plat.engines["worker0"].restart()


# ---------------------------------------------------------------------------
# link faults
# ---------------------------------------------------------------------------

def test_link_failure_stalls_transmits_until_recovery():
    env = Environment()
    cluster = build_cluster(env, CostModel())
    link = cluster.fabric_link("worker0", "worker1")
    link.fail()
    done = []

    def tx():
        yield from link.transmit(1000)
        done.append(env.now)

    env.process(tx())

    def healer():
        yield env.timeout(7_000)
        link.recover()

    env.process(healer())
    env.run()
    assert len(done) == 1 and done[0] >= 7_000
    assert link.flaps == 1
    assert link.downtime_us == pytest.approx(7_000)


def test_link_degrade_stretches_serialization():
    env = Environment()
    cluster = build_cluster(env, CostModel())
    link = cluster.fabric_link("worker0", "worker1")
    times = {}

    def tx(label):
        t0 = env.now
        yield from link.transmit(100_000)
        times[label] = env.now - t0

    env.process(tx("clean"))
    env.run()
    link.degrade(4.0)
    env.process(tx("degraded"))
    env.run()
    link.restore()
    env.process(tx("restored"))
    env.run()
    lat = link.base_latency_us
    assert times["degraded"] == pytest.approx(
        4.0 * (times["clean"] - lat) + lat)
    assert times["restored"] == pytest.approx(times["clean"])


# ---------------------------------------------------------------------------
# fault plans + injector
# ---------------------------------------------------------------------------

def test_plan_validates_kinds_and_times():
    with pytest.raises(ValueError):
        FaultEvent(10.0, "meteor-strike", "worker1")
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "node-crash", "worker1")


def test_plan_events_sorted_and_expanded():
    plan = (FaultPlan()
            .node_crash(5_000, "worker1", down_us=2_000)
            .link_flap(1_000, "worker0", "worker1", down_us=500))
    kinds = [e.kind for e in plan]
    assert kinds == ["link-down", "link-down", "link-up", "link-up",
                     "node-crash", "node-restart"]
    assert len(plan) == 6


def test_empty_plan_is_a_no_op():
    env, plat = make_platform()
    plat.start()
    injector = FaultInjector(env, plat, FaultPlan())
    assert injector.start() is None
    env.run(until=10_000)
    assert injector.timeline == []
    with pytest.raises(RuntimeError):
        injector.start()  # double start rejected


def test_injector_applies_node_crash_and_restart_on_schedule():
    env, plat = make_platform()
    plat.start()
    plan = FaultPlan().node_crash(40_000, "worker1", down_us=30_000)
    FaultInjector(env, plat, plan).start()
    env.run(until=50_000)
    assert not plat.runtimes["worker1"].alive
    env.run(until=100_000)
    assert plat.runtimes["worker1"].alive


def test_injector_records_timeline():
    env, plat = make_platform()
    plat.start()
    plan = (FaultPlan()
            .qp_error(35_000, "worker0", remote="worker1", count=2)
            .link_flap(40_000, "worker0", "worker1", down_us=1_000,
                       bidirectional=False))
    injector = FaultInjector(env, plat, plan)
    injector.start()
    env.run(until=60_000)
    assert injector.timeline == [
        (35_000.0, "qp-error", "worker0", 2),
        (40_000.0, "link-down", "worker0->worker1", None),
        (41_000.0, "link-up", "worker0->worker1", None),
    ]


def test_injector_mempool_exhaustion_blocks_then_releases():
    env, plat = make_platform()
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=0), "worker0")
    plat.start()
    plan = FaultPlan().mempool_exhaust(35_000, "worker0", "t1",
                                       duration_us=25_000)
    injector = FaultInjector(env, plat, plan)
    injector.start()
    done = []

    pool = plat.pool_for("t1", "worker0")
    baseline = {}

    def body():
        baseline["free"] = pool.free_count
        yield env.timeout(10_000)  # t=40k: inside the exhaustion window
        yield from client.invoke("server", "ping", 64)
        done.append(env.now)

    drive(env, body, warmup=30_000)
    # the send blocked on the drained pool until the release at t=60k
    assert len(done) == 1 and done[0] >= 60_000
    assert pool.free_count == baseline["free"]


# ---------------------------------------------------------------------------
# ingress failover (balancer level)
# ---------------------------------------------------------------------------

class _FakeIngress:
    """Duck-typed gateway instance for balancer unit tests."""

    def __init__(self, env):
        self.env = env
        self.healthy = True
        self.siblings = []
        self.submitted = []

    def start(self):
        pass

    def connect(self):
        from repro.ingress.gateway import ClientConnection
        return ClientConnection(self.env)

    def submit(self, conn, request):
        self.submitted.append(request)


def test_balancer_submit_fails_over_between_health_checks():
    from repro.ingress import IngressLoadBalancer
    from repro.net import HttpRequest
    env = Environment()
    instances = [_FakeIngress(env), _FakeIngress(env)]
    lb = IngressLoadBalancer(instances)
    lb.start()
    conn = lb.connect()
    owner, _conn = lb._owner[conn.conn_id]
    owner.healthy = False
    lb.submit(conn, HttpRequest("/"))
    survivor = next(i for i in instances if i is not owner)
    assert survivor.submitted and not owner.submitted
    assert lb.failovers == 1


def test_balancer_owner_map_bounded_under_connection_churn():
    # Regression: _owner grew one entry per connect() forever — a
    # churn workload (connect, use, close, repeat) leaked the map.
    from repro.ingress import IngressLoadBalancer
    env = Environment()
    instances = [_FakeIngress(env), _FakeIngress(env)]
    lb = IngressLoadBalancer(instances)
    lb.start()
    for _ in range(10_000):
        conn = lb.connect()
        lb.close(conn)
    # the amortized sweep keeps the map near the live set, not the
    # total ever connected
    assert len(lb._owner) < 1_000
    lb.prune_closed()
    assert len(lb._owner) == 0


def test_fault_plan_gateway_crash_expands_to_restart():
    plan = FaultPlan().gateway_crash(10_000.0, "gw2", down_us=5_000.0)
    kinds = [(e.at_us, e.kind, e.target) for e in plan.events]
    assert kinds == [(10_000.0, "gateway-crash", "gw2"),
                     (15_000.0, "gateway-restart", "gw2")]


def test_injector_gateway_crash_flips_health_flag():
    env = Environment()
    gw = _FakeIngress(env)
    plan = FaultPlan().gateway_crash(1_000.0, "gw0", down_us=2_000.0)
    injector = FaultInjector(env, platform=None, plan=plan)
    injector.register_gateway("gw0", _WithFailRecover(gw))
    injector.start()
    env.run(until=1_500)
    assert not gw.healthy
    env.run(until=3_500)
    assert gw.healthy
    assert [(k, t) for _, k, t, _ in injector.timeline] == [
        ("gateway-crash", "gw0"), ("gateway-restart", "gw0")]


def test_injector_rejects_unregistered_gateway():
    env = Environment()
    plan = FaultPlan().gateway_crash(1_000.0, "nope")
    injector = FaultInjector(env, platform=None, plan=plan)
    injector.start()
    with pytest.raises(ValueError, match="not registered"):
        env.run(until=2_000)


class _WithFailRecover:
    """Adapter giving _FakeIngress the fail/recover fault surface."""

    def __init__(self, inner):
        self._inner = inner

    def fail(self):
        self._inner.healthy = False

    def recover(self):
        self._inner.healthy = True

    @property
    def healthy(self):
        return self._inner.healthy


def test_palladium_ingress_health_flag():
    from repro.ingress import PalladiumIngress  # noqa: F401 - API check
    env, plat = make_platform()
    # the flag is what the balancer polls; fail/recover toggle it
    from repro.ingress.palladium import PalladiumIngress as PI
    ingress = PI(env, plat.cluster, plat.fabric, CostModel(),
                 lambda path: ("t1", "f"))
    assert ingress.healthy
    ingress.fail()
    assert not ingress.healthy
    ingress.recover()
    assert ingress.healthy
