"""Tests for the RDMA control plane: QP state machines, the RC
handshake and its ops/sec admission, MR lifecycle, pre-warm policies,
the conn-churn gate, and the reconnect edge cases around them."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel
from repro.experiments.__main__ import EXPERIMENTS, GATES
from repro.faults import FaultInjector, FaultPlan
from repro.hw import build_cluster
from repro.platform import ElasticPlatform, FunctionSpec, Tenant
from repro.rdma import (
    ConnectionManager,
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


def run_connect(peer_alive=None, **mgr_kwargs):
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost, **mgr_kwargs)
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
    assert qp.verbs_state == QPState.RTS
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
        assert qp.verbs_state == QPState.RTS or qp.is_errored  # errored only *after* handout
        assert all(edge in LEGAL_TRANSITIONS for edge in qp.transitions)
    # errored QPs may linger pooled until pruned; after eviction every
    # remaining pooled QP is RTS
    mgr.evict_errored()
    pooled = [qp for pool in mgr._pool.values() for qp in pool]
    for qp in pooled:
        assert qp.verbs_state == QPState.RTS and not qp.is_errored


# ---------------------------------------------------------------------------
# the RC handshake and the ops/sec ceiling
# ---------------------------------------------------------------------------

def test_flat_default_charges_exactly_rc_setup():
    env, mgr, qp = run_connect()
    assert qp.verbs_state == QPState.RTS
    assert qp.setup_us == pytest.approx(CostModel().rc_setup_us)
    # total time = handshake + the shadow-QP activation on handout
    assert env.now == pytest.approx(
        CostModel().rc_setup_us + CostModel().qp_activate_us)


def test_dead_peer_burns_time_and_errors():
    env, mgr, qp = run_connect(peer_alive=lambda remote: False)
    assert qp.is_errored
    assert mgr.connect_failures == 1
    assert mgr.cp.connect_failures == 1
    assert env.now > 0  # the failed handshake still burned setup time


def _concurrent_cold_connects():
    """Two cold connects at once, each to its own pool, under a
    100 ops/s control-plane ceiling."""
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost)
    mgr.cp.set_ceiling(100.0)
    qps = []

    def one(i):
        qp = yield from mgr.get_connection("worker1", f"t{i}")
        qps.append(qp)

    env.process(one(0))
    env.process(one(1))
    env.run()
    assert len(qps) == 2
    return mgr, qps


def test_ceiling_fifo_queues_concurrent_setups():
    mgr, qps = _concurrent_cold_connects()
    # 4 verbs ops at 100/s = 40 ms of command-queue time per handshake:
    # the second handshake queued behind the first
    assert mgr.cp.throttle_wait_us > 0
    slow = max(qp.setup_us for qp in qps)
    fast = min(qp.setup_us for qp in qps)
    assert slow >= fast + 30_000.0


def test_ceiling_delays_a_cold_handshake_on_the_default_path():
    mgr, qps = _concurrent_cold_connects()
    slow = max(qp.setup_us for qp in qps)
    assert slow >= CostModel().rc_setup_us + 40_000.0
    assert mgr.cp.throttle_wait_us > 0
    assert mgr.cp.ops_admitted == 8


def test_unlimited_ceiling_adds_no_wait():
    env, mgr, qp = run_connect()
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
    assert cp.ops_per_sec is None  # the ceiling the throttle replaced
    kinds = [kind for _, kind, _, _ in injector.timeline]
    assert kinds == ["cp-throttle", "cp-restore"]


def test_cp_restore_puts_back_the_replaced_ceiling():
    env = Environment()
    plat = ElasticPlatform(env)
    cp = plat.fabric.control_plane("worker0")
    cp.set_ceiling(200.0)
    plan = FaultPlan().cp_throttle(1_000.0, "worker0", ops_per_sec=50.0,
                                   duration_us=9_000.0)
    FaultInjector(env, plat, plan).start()
    env.run(until=5_000.0)
    assert cp.ops_per_sec == 50.0
    env.run(until=20_000.0)
    assert cp.ops_per_sec == 200.0


# ---------------------------------------------------------------------------
# MR lifecycle
# ---------------------------------------------------------------------------

def test_hugepage_compaction_entry_count():
    env, cost, fabric = make_fabric()
    cp = fabric.control_plane("worker0")
    four_mb = 4 * 1024 * 1024
    assert cp.entries_for(four_mb) == 2  # 2 MB pages
    assert cp.entries_for(1) == 1
    assert cp.entries_for(four_mb, page_bytes=4096) == 1024  # 4 KB pages
    assert (cp.entries_for(four_mb, page_bytes=4096)
            == 512 * cp.entries_for(four_mb))


def test_register_region_cost_scales_with_entries():
    def charge(nbytes, page_bytes):
        env, cost, fabric = make_fabric()
        cp = fabric.control_plane("worker0")

        def body():
            yield from cp.register_region("t", nbytes, page_bytes=page_bytes)

        env.process(body())
        env.run()
        return env.now, cp

    small_t, _ = charge(4 * 1024 * 1024, page_bytes=2 * 1024 * 1024)
    big_t, cp = charge(4 * 1024 * 1024, page_bytes=4096)
    assert big_t > small_t  # 1024 MTT entries vs 2
    assert cp.mr_registered_bytes == 4 * 1024 * 1024
    assert cp.mr_regions_registered == 1


def test_deregister_region_releases_mtt_entries():
    env, cost, fabric = make_fabric()
    cp = fabric.control_plane("worker0")
    out = {}

    def body():
        out["region"] = yield from cp.register_region("t", 1 << 20)

    env.process(body())
    env.run()
    assert cp.mr_regions_registered == 1
    mrt = fabric.rnic("worker0").mrt
    registered = mrt._total_mtt
    cp.deregister_region(out["region"])
    assert mrt._total_mtt < registered


# ---------------------------------------------------------------------------
# pre-warm policies
# ---------------------------------------------------------------------------

def test_fixed_floor_policy_target():
    policy = FixedFloorPrewarm(3)
    assert policy.target(0.0, 0, []) == 3
    assert policy.target(1e6, 10, [1.0] * 50) == 3


def test_predictive_policy_scales_with_recent_demand():
    policy = DemandPredictivePrewarm()
    policy.window_us, policy.headroom, policy.ceiling = 1_000.0, 2.0, 4
    assert policy.target(10_000.0, 0, []) == 1  # floor when idle
    recent = [9_500.0, 9_800.0]  # 2 cold connects in window * 2.0
    assert policy.target(10_000.0, 0, recent) == 4  # clamped to ceiling?
    policy = DemandPredictivePrewarm()
    policy.window_us = 1_000.0
    assert policy.target(10_000.0, 0, recent) == 3  # ceil(2 * 1.5)
    stale = [1.0, 2.0]  # outside the window
    assert policy.target(10_000.0, 0, stale) == 1


def test_maintain_pools_tops_up_to_floor():
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost,
                            prewarm=FixedFloorPrewarm(3))
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
    assert mgr.prewarm is None

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
        a = yield from mgr.get_connection("worker1", "t")
        b = yield from mgr.get_connection("worker1", "t")
        assert a is b  # one tenant pool, both functions share it

    env.process(body())
    env.run()
    assert mgr.connections_established == 1


# ---------------------------------------------------------------------------
# the conn-churn gate
# ---------------------------------------------------------------------------

_PREDICTIVE_CLAIM = ("conn-churn: predictive pre-warm matches warm-fixed "
                     "TTFB with at most a quarter of its pooled QPs")


def _churn_failures(result):
    return [text for check in GATES["conn-churn"].checks
            for text in check(result)]


def _doctor(result, column, value):
    doctored = copy.deepcopy(result)
    row = next(row for row in doctored.rows if row[0] == "warm-predictive")
    row[doctored.columns.index(column)] = value
    return doctored


def test_conn_churn_gate_rejects_a_doctored_predictive_pool():
    result = EXPERIMENTS["conn-churn"][1]()
    assert _churn_failures(result) == []
    fixed = result.find_row(scenario="warm-fixed")
    # as many pooled QPs as the fixed floor keeps
    assert _PREDICTIVE_CLAIM in _churn_failures(
        _doctor(result, "pooled_qps", fixed["pooled_qps"]))
    # a slower first byte than the fixed pool's
    assert _PREDICTIVE_CLAIM in _churn_failures(
        _doctor(result, "ttfb_p50_us", 2 * fixed["ttfb_p50_us"]))


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
    mgr = ConnectionManager(env, fabric, "worker0", cost)
    mgr.reconnect_cap_us = 4_000.0
    mgr.peer_alive = lambda remote: False  # peer never comes back
    mgr.schedule_reconnect("worker1", "t")
    env.run(until=40_000.0)
    delays = mgr.backoff_delays[("worker1", "t")]
    assert delays[:3] == [1_000.0, 2_000.0, 4_000.0]
    assert len(delays) > 4
    assert all(d == 4_000.0 for d in delays[2:])  # capped, stays capped


def test_eviction_of_errored_qp_while_reconnect_scheduled():
    env, cost, fabric = make_fabric()
    mgr = ConnectionManager(env, fabric, "worker0", cost)
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
    assert all(qp.verbs_state == QPState.RTS and not qp.is_errored for qp in pooled)
