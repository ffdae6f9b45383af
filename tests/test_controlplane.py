"""Tests for the explicit RDMA control plane: QP state machines, MR
lifecycle, pre-warm policies, the ops/sec ceiling, and the reconnect
edge cases around them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel
from repro.faults import FaultInjector, FaultPlan
from repro.hw import build_cluster
from repro.platform import ElasticPlatform, FunctionSpec, Tenant
from repro.rdma import (
    ConnectionManager,
    ControlPlaneConfig,
    DemandPredictivePrewarm,
    FixedFloorPrewarm,
    IllegalTransition,
    LEGAL_TRANSITIONS,
    QPState,
    QueuePair,
    RdmaFabric,
)
from repro.sim import Environment


def make_fabric(cost=None, workers=2):
    env = Environment()
    cost = cost or CostModel()
    cluster = build_cluster(env, cost, workers=workers)
    fabric = RdmaFabric(env, cluster, cost)
    for index in range(workers):
        fabric.install_rnic(f"worker{index}")
    return env, cost, fabric


def run_connect(config=None, peer_alive=None, **mgr_kwargs):
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost, config=config,
                            **mgr_kwargs)
    if peer_alive is not None:
        mgr.peer_alive = peer_alive
    out = {}

    def setup():
        out["qp"] = yield from mgr.get_connection("worker1", "t")

    env.process(setup())
    env.run()
    return env, mgr, out["qp"]


# ---------------------------------------------------------------------------
# verbs state machine
# ---------------------------------------------------------------------------

def test_verbs_ladder_walks_to_rts():
    env = Environment()
    qp = QueuePair(env, "a", "b", "t")
    assert qp.verbs_state == QPState.RESET
    qp.transition(QPState.INIT)
    qp.transition(QPState.RTR)
    qp.transition(QPState.RTS)
    assert qp.is_rts
    assert qp.transitions == [
        (QPState.RESET, QPState.INIT),
        (QPState.INIT, QPState.RTR),
        (QPState.RTR, QPState.RTS),
    ]


def test_skipping_a_rung_is_illegal():
    env = Environment()
    qp = QueuePair(env, "a", "b", "t")
    with pytest.raises(IllegalTransition):
        qp.transition(QPState.RTR)  # RESET -> RTR skips INIT
    with pytest.raises(IllegalTransition):
        qp.transition(QPState.RTS)


def test_error_is_terminal():
    env = Environment()
    qp = QueuePair(env, "a", "b", "t")
    qp.transition(QPState.INIT)
    qp.fail("test")
    assert qp.is_errored
    assert qp.verbs_state == QPState.ERROR
    with pytest.raises(IllegalTransition):
        qp.transition(QPState.RTR)
    # fail() is idempotent and records no duplicate edge
    edges_before = list(qp.transitions)
    qp.fail("again")
    assert qp.transitions == edges_before


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([QPState.INIT, QPState.RTR, QPState.RTS,
                                 QPState.ERROR]), max_size=6))
def test_property_every_recorded_transition_is_legal(sequence):
    """Whatever edges a caller attempts, only legal ones are recorded."""
    env = Environment()
    qp = QueuePair(env, "a", "b", "t")
    for target in sequence:
        try:
            qp.transition(target)
        except IllegalTransition:
            pass
    assert all(edge in LEGAL_TRANSITIONS for edge in qp.transitions)
    # and the recorded edges chain: each starts where the last ended
    walked = QPState.RESET
    for src, dst in qp.transitions:
        assert src == walked
        walked = dst
    assert qp.verbs_state == walked


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["get", "fail", "evict", "warm"]),
                min_size=1, max_size=8))
def test_property_handed_out_qps_are_rts(ops):
    """Any op interleaving: a live peer's manager only hands out RTS
    QPs, and every QP it ever made took only legal edges."""
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost)
    handed = []

    def driver():
        for op in ops:
            if op == "get":
                qp = yield from mgr.get_connection("worker1", "t")
                handed.append(qp)
            elif op == "fail":
                mgr.fail_connections()
            elif op == "evict":
                mgr.evict_errored()
            else:
                yield from mgr.warm_up("worker1", "t", count=2)

    env.process(driver())
    env.run()
    assert len(handed) == ops.count("get")
    for qp in handed:
        assert qp.is_rts or qp.is_errored  # errored only *after* handout
        assert all(edge in LEGAL_TRANSITIONS for edge in qp.transitions)
    # errored QPs may linger pooled until pruned; after eviction every
    # remaining pooled QP is RTS
    mgr.evict_errored()
    pooled = [qp for pool in mgr._pool.values() for qp in pool]
    for qp in pooled:
        assert qp.is_rts and not qp.is_errored


# ---------------------------------------------------------------------------
# flat vs explicit handshakes
# ---------------------------------------------------------------------------

def test_flat_default_charges_exactly_rc_setup():
    env, mgr, qp = run_connect()
    assert qp.is_rts
    assert qp.setup_us == pytest.approx(CostModel().rc_setup_us)
    # total time = handshake + the shadow-QP activation on handout
    assert env.now == pytest.approx(
        CostModel().rc_setup_us + CostModel().qp_activate_us)


def test_explicit_handshake_decomposes_the_ladder():
    config = ControlPlaneConfig(explicit=True)
    env, mgr, qp = run_connect(config=config)
    assert qp.is_rts and qp.peer is not None and qp.peer.is_rts
    floor = (config.reset_to_init_us + config.init_to_rtr_us
             + config.rtr_to_rts_us
             + config.cm_round_trips * config.cm_processing_us)
    # the CM datagrams ride the real links, so the total exceeds the
    # sum of the command costs by the round-trip latency
    assert qp.setup_us > floor
    # ...and the defaults are calibrated near the flat rc_setup_us
    assert qp.setup_us == pytest.approx(CostModel().rc_setup_us, rel=0.05)


def test_explicit_dead_peer_burns_time_and_errors():
    config = ControlPlaneConfig(explicit=True)
    env, mgr, qp = run_connect(config=config,
                               peer_alive=lambda remote: False)
    assert qp.is_errored
    assert mgr.connect_failures == 1
    assert mgr.cp.connect_failures == 1
    assert env.now > 0  # the failed handshake still burned setup time


def test_ceiling_fifo_queues_concurrent_setups():
    env, cost, fabric = make_fabric()
    config = ControlPlaneConfig(explicit=True, ops_per_sec=100.0)
    mgr = ConnectionManager(env, fabric, "worker0", cost, config=config)
    qps = []

    def one(i):
        qp = yield from mgr.get_connection("worker1", "t", fn=f"f{i}")
        qps.append(qp)

    # function scope => no pool sharing => both pay full handshakes
    cfg = ControlPlaneConfig(explicit=True, ops_per_sec=100.0,
                             share_scope="function")
    mgr.config = cfg
    mgr.cp.config = cfg
    env.process(one(0))
    env.process(one(1))
    env.run()
    assert len(qps) == 2
    # 4 verbs ops at 100/s = 40 ms of command-queue time per handshake:
    # the second handshake queued behind the first
    assert mgr.cp.throttle_wait_us > 0
    slow = max(qp.setup_us for qp in qps)
    fast = min(qp.setup_us for qp in qps)
    assert slow >= fast + 30_000.0


def test_unlimited_ceiling_adds_no_wait():
    env, mgr, qp = run_connect(config=ControlPlaneConfig(explicit=True))
    assert mgr.cp.throttle_wait_us == 0.0


def test_cp_throttle_fault_clamps_and_restores():
    env = Environment()
    plat = ElasticPlatform(env)
    plan = FaultPlan().cp_throttle(1_000.0, "worker0", ops_per_sec=50.0,
                                   duration_us=9_000.0)
    injector = FaultInjector(env, plat, plan)
    injector.start()
    cp = plat.fabric.control_plane("worker0")
    assert cp.ops_per_sec is None
    env.run(until=5_000.0)
    assert cp.ops_per_sec == 50.0
    env.run(until=20_000.0)
    assert cp.ops_per_sec == cp.config.ops_per_sec
    kinds = [kind for _, kind, _, _ in injector.timeline]
    assert kinds == ["cp-throttle", "cp-restore"]


# ---------------------------------------------------------------------------
# MR lifecycle
# ---------------------------------------------------------------------------

def test_hugepage_compaction_entry_count():
    env, cost, fabric = make_fabric()
    huge = fabric.control_plane("worker0", ControlPlaneConfig())
    four_mb = 4 * 1024 * 1024
    assert huge.entries_for(four_mb) == 2  # 2 MB pages
    assert huge.entries_for(1) == 1
    flat_cfg = ControlPlaneConfig(huge_pages=False)
    env2, cost2, fabric2 = make_fabric()
    small = fabric2.control_plane("worker0", flat_cfg)
    assert small.entries_for(four_mb) == 1024  # 4 KB pages
    assert small.entries_for(four_mb) == 512 * huge.entries_for(four_mb)


def test_register_region_cost_scales_with_entries():
    def charge(nbytes, huge_pages):
        env, cost, fabric = make_fabric()
        cp = fabric.control_plane(
            "worker0", ControlPlaneConfig(huge_pages=huge_pages))

        def body():
            yield from cp.register_region("t", nbytes)

        env.process(body())
        env.run()
        return env.now, cp

    small_t, _ = charge(4 * 1024 * 1024, huge_pages=True)
    big_t, cp = charge(4 * 1024 * 1024, huge_pages=False)
    assert big_t > small_t  # 1024 MTT entries vs 2
    assert cp.mr_registered_bytes == 4 * 1024 * 1024
    assert cp.mr_regions_registered == 1


def test_mr_handle_is_idempotent_and_releases():
    env, cost, fabric = make_fabric()
    cp = fabric.control_plane("worker0")
    handle = cp.mr_handle("t", 1 << 20)
    assert not handle.registered

    def body():
        yield from handle.acquire()
        first = env.now
        yield from handle.acquire()  # no second charge
        assert env.now == first

    env.process(body())
    env.run()
    assert handle.registered
    assert cp.mr_regions_registered == 1
    mrt = fabric.rnic("worker0").mrt
    registered = mrt.total_mtt_entries
    handle.release()
    assert not handle.registered
    assert mrt.total_mtt_entries < registered
    handle.release()  # idempotent


def test_lazy_policy_defers_eager_registers():
    env, cost, fabric = make_fabric()
    eager = fabric.control_plane("worker0", ControlPlaneConfig())
    assert eager.wants_eager_mr
    env2, cost2, fabric2 = make_fabric()
    lazy = fabric2.control_plane("worker0",
                                 ControlPlaneConfig(mr_policy="lazy"))
    assert not lazy.wants_eager_mr


# ---------------------------------------------------------------------------
# pre-warm policies
# ---------------------------------------------------------------------------

def test_fixed_floor_policy_target():
    policy = FixedFloorPrewarm(3)
    assert policy.active
    assert policy.target(0.0, 0, []) == 3
    assert policy.target(1e6, 10, [1.0] * 50) == 3


def test_predictive_policy_scales_with_recent_demand():
    policy = DemandPredictivePrewarm(window_us=1_000.0, headroom=2.0,
                                     floor=1, ceiling=4)
    assert policy.target(10_000.0, 0, []) == 1  # floor when idle
    recent = [9_500.0, 9_800.0]  # 2 cold connects in window * 2.0
    assert policy.target(10_000.0, 0, recent) == 4  # clamped to ceiling?
    policy = DemandPredictivePrewarm(window_us=1_000.0, headroom=1.5,
                                     floor=1, ceiling=32)
    assert policy.target(10_000.0, 0, recent) == 3  # ceil(2 * 1.5)
    stale = [1.0, 2.0]  # outside the window
    assert policy.target(10_000.0, 0, stale) == 1


def test_maintain_pools_tops_up_to_floor():
    env, cost, fabric = make_fabric()
    config = ControlPlaneConfig(prewarm="fixed", prewarm_floor=3)
    mgr = ConnectionManager(env, fabric, "worker0", cost, config=config)
    assert mgr.prewarm.active
    warmed = {}

    def body():
        # a cold connect creates the pool key (and demand history)
        yield from mgr.get_connection("worker1", "t")
        warmed["n"] = yield from mgr.maintain_pools()

    env.process(body())
    env.run()
    assert warmed["n"] == 2  # 1 cold + 2 pre-warmed = floor of 3
    assert mgr.pooled_count() == 3


def test_default_none_policy_keeps_maintenance_inert():
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost)
    assert not mgr.prewarm.active

    def body():
        yield from mgr.get_connection("worker1", "t")
        n = yield from mgr.maintain_pools()
        assert n == 0

    env.process(body())
    env.run()
    assert mgr.pooled_count() == 1


# ---------------------------------------------------------------------------
# connection sharing scope
# ---------------------------------------------------------------------------

def test_tenant_scope_multiplexes_across_functions():
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost)

    def body():
        a = yield from mgr.get_connection("worker1", "t", fn="fnA")
        b = yield from mgr.get_connection("worker1", "t", fn="fnB")
        assert a is b  # one tenant pool, both functions share it

    env.process(body())
    env.run()
    assert mgr.connections_established == 1


def test_function_scope_gives_private_pools():
    env, cost, fabric = make_fabric()
    config = ControlPlaneConfig(share_scope="function")
    mgr = ConnectionManager(env, fabric, "worker0", cost, config=config)

    def body():
        a = yield from mgr.get_connection("worker1", "t", fn="fnA")
        b = yield from mgr.get_connection("worker1", "t", fn="fnB")
        assert a is not b

    env.process(body())
    env.run()
    assert mgr.connections_established == 2
    # tenant-level accounting still sees both scopes
    assert mgr.tenant_active_count("t") == 2


# ---------------------------------------------------------------------------
# replica scale-out
# ---------------------------------------------------------------------------

def test_scale_out_remains_free_and_synchronous():
    env = Environment()
    plat = ElasticPlatform(env)
    plat.add_tenant(Tenant("t1", pool_buffers=64))
    spec = FunctionSpec("svc", "t1", work_us=5)
    plat.deploy_service(spec, "worker1", replicas=1)
    instance = plat.scale_out(spec, "worker0")  # no generator, no time
    assert env.now == 0.0
    assert instance.spec.name in plat.services["svc"].replicas


# ---------------------------------------------------------------------------
# reconnect edge cases
# ---------------------------------------------------------------------------

def test_backoff_cap_saturates():
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost,
                            reconnect_base_us=1_000.0,
                            reconnect_cap_us=4_000.0)
    mgr.peer_alive = lambda remote: False  # peer never comes back
    mgr.schedule_reconnect("worker1", "t")
    env.run(until=40_000.0)
    delays = mgr.backoff_delays[("worker1", "t")]
    assert delays[:3] == [1_000.0, 2_000.0, 4_000.0]
    assert len(delays) > 4
    assert all(d == 4_000.0 for d in delays[2:])  # capped, stays capped


def test_retry_budget_exhausts_mid_reconnect():
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost,
                            reconnect_base_us=1_000.0,
                            reconnect_cap_us=2_000.0,
                            tenant_retry_budget=3)
    mgr.peer_alive = lambda remote: False
    proc = mgr.schedule_reconnect("worker1", "t")
    assert proc is not None
    env.run()
    # the loop ran until the budget was spent mid-flight, then stopped
    assert mgr.reconnect_attempts["t"] == 3
    assert mgr.budget_exhausted >= 1
    assert mgr.reconnects_succeeded == 0
    # and a fresh schedule for the same tenant is refused outright
    assert mgr.schedule_reconnect("worker1", "t") is None
    # even toward a different peer: the budget is per-tenant
    assert mgr.schedule_reconnect("worker0", "t") is None


def test_eviction_of_errored_qp_while_reconnect_scheduled():
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost,
                            reconnect_base_us=1_000.0)
    alive = {"up": True}
    mgr.peer_alive = lambda remote: alive["up"]
    out = {}

    def body():
        yield from mgr.warm_up("worker1", "t", count=1)
        alive["up"] = False
        mgr.fail_connections(remote="worker1", tenant="t")
        proc = mgr.schedule_reconnect("worker1", "t")
        assert proc is not None
        # a second QP errors while the reconnect is already scheduled:
        # eviction still works, and no duplicate loop starts
        assert mgr.schedule_reconnect("worker1", "t") is None
        assert mgr.evict_errored() >= 1
        assert mgr.pooled_count() == 0
        yield env.timeout(5_000.0)
        alive["up"] = True  # peer recovers; the loop re-establishes
        out["scheduled"] = True

    env.process(body())
    env.run()
    assert out["scheduled"]
    assert mgr.reconnects_succeeded == 1
    assert mgr.pooled_count() == 1
    pooled = [qp for pool in mgr._pool.values() for qp in pool]
    assert all(qp.is_rts and not qp.is_errored for qp in pooled)
