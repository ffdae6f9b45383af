"""Live migration: checkpoint/restore, handover, drains, fallbacks."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.migration import LiveMigrator, kill_and_cold_start
from repro.platform import (
    ElasticPlatform,
    FunctionSpec,
    ServerlessPlatform,
    Tenant,
)
from repro.sim import Environment
from repro.telemetry import Telemetry


def make_platform(workers=2, svc_work_us=5, svc_concurrency=4,
                  telemetry=False, elastic=False):
    env = Environment()
    if telemetry:
        Telemetry.install(env)
    cls = ElasticPlatform if elastic else ServerlessPlatform
    plat = cls(env, workers=workers)
    plat.add_tenant(Tenant("t1", pool_buffers=1024))
    caller = plat.deploy(FunctionSpec("caller", "t1", work_us=0), "worker0")
    svc = plat.deploy(
        FunctionSpec("svc", "t1", work_us=svc_work_us,
                     concurrency=svc_concurrency), "worker1")
    plat.start()
    return env, plat, caller, svc


def drive(env, caller, n, out, dst="svc", start_us=30_000, gap_us=500):
    def body():
        yield env.timeout(start_us)
        for i in range(n):
            reply = yield from caller.invoke(dst, f"m{i}", 64)
            out.append(reply.payload)
            if gap_us:
                yield env.timeout(gap_us)

    env.process(body())


def migrate_at(env, plat, at_us, dst="worker0", holder=None, **kwargs):
    holder = holder if holder is not None else {}

    def proc():
        yield env.timeout(at_us)
        holder["record"] = yield from plat.migrate_function(
            "svc", dst, **kwargs)

    env.process(proc())
    return holder


# ---------------------------------------------------------------------------
# checkpoint/restore roundtrip
# ---------------------------------------------------------------------------

def test_migration_roundtrip_under_traffic():
    env, plat, caller, svc = make_platform()
    out = []
    drive(env, caller, 20, out)
    holder = migrate_at(env, plat, 33_000, state_bytes=256 * 1024)
    env.run(until=400_000)
    record = holder["record"]
    assert record.ok
    assert record.downtime_us > 0
    assert record.bytes_copied > 256 * 1024
    # ordered request/reply stream survives the move, nothing lost
    assert out == [f"m{i}" for i in range(20)]
    assert plat.coordinator.node_of("svc") == "worker0"
    assert svc.migrations == 1
    assert svc.handled == 20


def test_migrated_instance_runs_on_target_node():
    env, plat, caller, svc = make_platform()
    out = []
    drive(env, caller, 10, out)
    migrate_at(env, plat, 33_000)
    env.run(until=400_000)
    assert svc.iolib.runtime.node.name == "worker0"
    # the old node no longer has an intra-node route for svc
    assert not plat.runtimes["worker1"].intra_routes.is_local("svc")
    assert plat.runtimes["worker0"].intra_routes.is_local("svc")
    # every engine's inter-node table agrees with the placement record
    for engine in plat.engines.values():
        assert engine.routes.node_for("svc") == "worker0"


def test_migration_checkpoints_queued_cargo():
    # single-threaded slow service: a burst parks requests in its
    # queues, the freeze drains them into the checkpoint image.
    env, plat, caller, svc = make_platform(svc_work_us=2_000,
                                           svc_concurrency=1)
    out = []
    for i in range(6):
        drive(env, caller, 1, out, gap_us=0, start_us=30_000 + i)
    holder = migrate_at(env, plat, 31_000, state_bytes=64 * 1024,
                        dst="worker0")
    env.run(until=600_000)
    record = holder["record"]
    assert record.ok
    carried = record.messages_checkpointed + record.messages_redirected
    assert carried >= 1
    assert sorted(out) == sorted(f"m0" for _ in range(6))
    assert svc.handled == 6


def test_migration_same_node_rejected():
    env, plat, caller, svc = make_platform()
    with pytest.raises(ValueError):
        plat.migrate_function("svc", "worker1").send(None)


def test_migration_to_dead_node_rejected():
    env, plat, caller, svc = make_platform(workers=3)
    plat.crash_node("worker2")
    with pytest.raises(RuntimeError):
        plat.migrate_function("svc", "worker2").send(None)


# ---------------------------------------------------------------------------
# quiesce timeout / abort path
# ---------------------------------------------------------------------------

def make_hung_platform():
    """svc's handler blocks forever on a sink that never finishes."""
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t1", pool_buffers=1024))
    caller = plat.deploy(FunctionSpec("caller", "t1", work_us=0), "worker0")

    def svc_handler(ctx, msg):
        yield from ctx.invoke("sink", "x", 64)
        yield from ctx.respond("done", 64)

    svc = plat.deploy(FunctionSpec("svc", "t1", handler=svc_handler),
                      "worker1")
    plat.deploy(FunctionSpec("sink", "t1", work_us=10_000_000.0), "worker0")
    plat.start()
    return env, plat, caller, svc


def test_quiesce_timeout_aborts_and_instance_recovers():
    env, plat, caller, svc = make_hung_platform()
    out = []
    drive(env, caller, 1, out)  # wedges svc's only visible handler
    holder = migrate_at(env, plat, 35_000, quiesce_timeout_us=5_000.0)
    env.run(until=100_000)
    record = holder["record"]
    assert not record.ok
    assert record.reason == "quiesce-timeout"
    assert plat.coordinator.node_of("svc") == "worker1"  # never flipped
    assert not svc._frozen  # thawed in place, still serving
    assert plat.migrator.aborts == 1


# ---------------------------------------------------------------------------
# graceful node drain
# ---------------------------------------------------------------------------

def test_drain_node_migrates_all_and_withdraws():
    env, plat, caller, svc = make_platform()
    b = plat.deploy(FunctionSpec("aux", "t1", work_us=5), "worker1")
    out = []
    drive(env, caller, 8, out)
    done = {}

    def drain():
        yield env.timeout(32_000)
        done["migrated"] = yield from plat.drain_node("worker1")

    env.process(drain())
    env.run(until=400_000)
    assert done["migrated"] == ["aux", "svc"]
    assert "worker1" in plat.withdrawn_nodes
    assert not plat.runtimes["worker1"].alive
    assert plat.coordinator.node_of("svc") == "worker0"
    assert plat.coordinator.node_of("aux") == "worker0"
    assert len(out) == 8
    kinds = [e[0] for e in plat.coordinator.events]
    assert "node-drained" in kinds and "node-drain-expired" not in kinds


def test_drain_deadline_expiry_falls_back_to_crash():
    env, plat, caller, svc = make_hung_platform()
    out = []
    drive(env, caller, 1, out)  # svc cannot quiesce

    def drain():
        yield env.timeout(35_000)
        yield from plat.drain_node("worker1", deadline_us=4_000.0)

    env.process(drain())
    env.run(until=100_000)
    events = {e[0]: e for e in plat.coordinator.events}
    assert "node-drain-expired" in events
    assert events["node-drain-expired"][2] == ("svc",)
    assert not plat.runtimes["worker1"].alive
    assert "worker1" not in plat.withdrawn_nodes  # crashed, not drained
    assert svc.crashed


def test_drain_via_fault_plan():
    env, plat, caller, svc = make_platform()
    out = []
    drive(env, caller, 6, out)
    plan = FaultPlan().node_drain(at_us=32_000, node="worker1",
                                  deadline_us=60_000.0)
    injector = FaultInjector(env, plat, plan)
    injector.start()
    env.run(until=400_000)
    assert injector.timeline == [(32_000.0, "node-drain", "worker1",
                                  "scheduled")]
    assert "worker1" in plat.withdrawn_nodes
    assert len(out) == 6


def test_fault_plan_node_drain_builder():
    plan = FaultPlan().node_drain(at_us=10.0, node="w1", deadline_us=5.0,
                                  state_bytes=4096)
    (event,) = plan.events
    assert event.kind == "node-drain"
    assert event.target == "w1"
    assert event.params == {"deadline_us": 5.0, "state_bytes": 4096}


# ---------------------------------------------------------------------------
# migrate during a link flap
# ---------------------------------------------------------------------------

def test_migration_survives_link_flap():
    def run(flap):
        env, plat, caller, svc = make_platform()
        out = []
        drive(env, caller, 12, out)
        if flap:
            plan = FaultPlan().link_flap(at_us=33_500, src="worker1",
                                         dst="worker0", down_us=8_000.0)
            FaultInjector(env, plat, plan).start()
        holder = migrate_at(env, plat, 33_000, state_bytes=1024 * 1024)
        env.run(until=500_000)
        return holder["record"], out

    base, out_base = run(flap=False)
    flapped, out_flap = run(flap=True)
    assert base.ok and flapped.ok
    # the copy stalls while the link is down, stretching the blackout,
    # but the handover still completes and no request is lost
    assert flapped.downtime_us > base.downtime_us + 5_000.0
    assert out_base == out_flap == [f"m{i}" for i in range(12)]


# ---------------------------------------------------------------------------
# recovery must not resurrect stale routes (elasticity fix)
# ---------------------------------------------------------------------------

def test_node_recovery_skips_replicas_migrated_during_outage():
    env = Environment()
    plat = ElasticPlatform(env)
    plat.add_tenant(Tenant("t1", pool_buffers=1024))
    plat.deploy(FunctionSpec("caller", "t1", work_us=0), "worker0")
    plat.deploy_service(FunctionSpec("svc", "t1", work_us=5), "worker1",
                        replicas=2)
    plat.start()
    plat.crash_node("worker1")
    assert plat.replica_count("svc") == 0
    # while worker1 is down both replicas are re-placed on worker0
    # (what a drain-or-relocate controller would do); the placement
    # record — authoritative — now points away from worker1
    for rid in ("svc#0", "svc#1"):
        plat.coordinator.placement[rid] = "worker0"
        plat.services["svc"].add(rid)
    plat.restart_node("worker1")
    # recovery must not double-add or resurrect worker1-era records
    assert plat.services["svc"].replicas == ["svc#0", "svc#1"]
    assert plat.coordinator.placement["svc#0"] == "worker0"


def test_node_recovery_restores_replicas_still_placed_there():
    env = Environment()
    plat = ElasticPlatform(env)
    plat.add_tenant(Tenant("t1", pool_buffers=1024))
    plat.deploy(FunctionSpec("caller", "t1", work_us=0), "worker0")
    plat.deploy_service(FunctionSpec("svc", "t1", work_us=5), "worker1",
                        replicas=2)
    plat.start()
    plat.crash_node("worker1")
    restored = plat.handle_node_recovery("worker1")
    # direct restart path: placement unchanged, both come back
    assert sorted(restored) == ["svc#0", "svc#1"]


# ---------------------------------------------------------------------------
# kill-and-cold-start baseline
# ---------------------------------------------------------------------------

def test_cold_start_baseline_relocates_slowly():
    env, plat, caller, svc = make_platform()
    done = {}

    def cold():
        yield env.timeout(30_000)
        t0 = env.now
        done["replacement"] = yield from kill_and_cold_start(
            plat, "svc", "worker0")
        done["took"] = env.now - t0

    env.process(cold())
    out = []
    drive(env, caller, 3, out, start_us=200_000)
    env.run(until=600_000)
    assert done["took"] == plat.cost.cold_start_us
    assert plat.coordinator.node_of("svc") == "worker0"
    assert out == ["m0", "m1", "m2"]  # replacement serves traffic
    assert done["replacement"] is plat.functions["svc"]
    assert done["replacement"] is not svc


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------

def test_migration_emits_span_tree_and_metrics():
    env, plat, caller, svc = make_platform(telemetry=True)
    out = []
    drive(env, caller, 6, out)
    migrate_at(env, plat, 33_000, state_bytes=128 * 1024)
    env.run(until=400_000)
    tel = env.telemetry
    roots = [s for s in tel.tracer.spans if s.name.startswith("migrate")]
    names = sorted({s.name for s in roots})
    assert names == ["migrate", "migrate.checkpoint", "migrate.copy",
                     "migrate.flip", "migrate.restore"]
    assert tel.tracer.check_integrity() == []
    snap = tel.metrics.snapshot()
    assert snap["migrations_total"]["values"][0]["value"] == 1
    assert "migration_downtime_us" in snap
    assert "migration_bytes_copied" in snap


def test_migrator_lazy_and_optional():
    # a platform that never migrates has no migrator state at all
    env, plat, caller, svc = make_platform()
    assert plat._migrator is None
    assert isinstance(plat.migrator, LiveMigrator)
    assert plat.migrator is plat.migrator  # cached
