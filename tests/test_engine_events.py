"""Focused tests for engine event handling, stats, and edge paths."""

import pytest

from repro.baselines import build_cne, build_dne
from repro.config import CostModel, cost_model_overrides
from repro.platform import FunctionSpec, ServerlessPlatform, Tenant
from repro.sim import Environment
from repro.workloads import DirectDriver, deploy_echo_pair


def echo_platform(builder=build_dne, **plat_kwargs):
    env = Environment()
    plat = ServerlessPlatform(env, engine_builder=builder, **plat_kwargs)
    client, server = deploy_echo_pair(plat)
    plat.start()
    return env, plat, client, server


def run_driver(env, client, server, n=10, until=400_000):
    driver = DirectDriver(env, client, server, size=256)

    def kickoff():
        yield env.timeout(40_000)
        yield from driver.run(max_requests=n)

    env.process(kickoff())
    env.run(until=until)
    return driver


def test_unknown_event_kind_rejected():
    env, plat, client, server = echo_platform()
    engine = plat.engines["worker0"]
    engine.inject_event("martian", {})
    with pytest.raises(ValueError, match="unknown engine event"):
        env.run(until=10_000)


def test_engine_byte_counters():
    env, plat, client, server = echo_platform()
    driver = run_driver(env, client, server, n=10)
    assert driver.completed == 10
    engine = plat.engines["worker0"]
    assert engine.stats.tx_bytes == 10 * 256
    assert engine.stats.rx_bytes == 10 * 256


def test_engine_no_drops_in_steady_state():
    env, plat, client, server = echo_platform()
    run_driver(env, client, server, n=20)
    for engine in plat.engines.values():
        assert engine.stats.dropped == 0


def test_engine_stop_halts_processing():
    env, plat, client, server = echo_platform()
    driver = DirectDriver(env, client, server, size=64)

    def kickoff():
        yield env.timeout(40_000)
        plat.engines["worker0"].stop()
        env.process(driver.run(max_requests=1))

    env.process(kickoff())
    env.run(until=200_000)
    assert driver.completed == 0  # engine down: nothing flows


def test_engine_cpu_pct_pinned_vs_scheduled():
    env, plat, client, server = echo_platform()
    run_driver(env, client, server, n=5)
    engine = plat.engines["worker0"]
    # DNE is pinned: reports full occupancy regardless of load
    assert engine.engine_cpu_pct(0.0) == 100.0
    assert engine.busy_us > 0


def test_cne_interrupt_penalty_grows_with_backlog():
    env, plat, client, server = echo_platform(builder=build_cne)
    engine = plat.engines["worker0"]
    def protocol_us():
        return sum(us for category, us in engine._tx_charges()
                   if category == "protocol")

    base = protocol_us()
    for i in range(200):
        engine.scheduler.enqueue("echo", ("x", None), nbytes=64)
    loaded = protocol_us()
    assert loaded > base


def test_replenish_period_configurable():
    env, plat, client, server = echo_platform()
    assert plat.engines["worker0"].replenish_period_us == 50.0


def test_cost_override_slows_engine():
    slow = cost_model_overrides(dne_tx_proc_us=5.0, dne_rx_proc_us=5.0)
    times = {}
    for label, cost in (("fast", None), ("slow", slow)):
        env = Environment()
        plat = ServerlessPlatform(env, cost=cost or CostModel())
        client, server = deploy_echo_pair(plat)
        plat.start()
        driver = run_driver(env, client, server, n=5)
        times[label] = driver.latency.mean()
    assert times["slow"] > times["fast"] + 20


def test_engine_handles_interleaved_tenants():
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("a", pool_buffers=512))
    plat.add_tenant(Tenant("b", pool_buffers=512))
    ca, sa = deploy_echo_pair(plat, tenant="a", suffix="-a")
    cb, sb = deploy_echo_pair(plat, tenant="b", suffix="-b")
    plat.start()
    da = DirectDriver(env, ca, sa, size=128)
    db = DirectDriver(env, cb, sb, size=128)

    def kickoff():
        yield env.timeout(40_000)
        env.process(da.run(max_requests=8))
        env.process(db.run(max_requests=8))

    env.process(kickoff())
    env.run(until=500_000)
    assert da.completed == 8 and db.completed == 8
    engine = plat.engines["worker0"]
    assert engine.stats.tenant_meter("a").count == 8
    assert engine.stats.tenant_meter("b").count == 8
    # tenants kept separate pools throughout
    for tenant in ("a", "b"):
        pool = plat.pool_for(tenant, "worker1")
        assert pool.free_count == pool.buffer_count - plat.recv_buffers
