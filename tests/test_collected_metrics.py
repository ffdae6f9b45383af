"""Collected metrics: families read from the counts their owners keep."""

import pytest

from repro.baselines import build_fuyao, build_spright
from repro.baselines.spright import _TcpFrame
from repro.dataplane import Message
from repro.ingress import IngressLoadBalancer
from repro.net import HttpRequest
from repro.platform import FunctionSpec, ServerlessPlatform, Tenant
from repro.rdma import Completion, Opcode
from repro.sim import Environment
from repro.telemetry import (Gauge, MetricsRegistry, RateRule, Selector,
                             Telemetry)


class TestRegistry:
    def test_counters_sum_across_owners_and_export_as_floats(self):
        reg = MetricsRegistry()
        reg.collect("hits_total", "Hits.", ("node",),
                    lambda: {("a",): 2, ("b",): 1, ("c",): 0})
        reg.collect("hits_total", "Hits.", ("node",), lambda: {"a": 3})
        values = reg.snapshot()["hits_total"]["values"]
        assert values == [{"labels": {"node": "a"}, "value": 5.0},
                          {"labels": {"node": "b"}, "value": 1.0}]
        assert all(type(v["value"]) is float for v in values)

    def test_gauges_keep_the_value_read(self):
        reg = MetricsRegistry()
        reg.collect("depth", "Queue depth.", ("node",),
                    lambda: {"a": 7, "b": 0}, Gauge)
        values = reg.snapshot()["depth"]["values"]
        assert [v["value"] for v in values] == [7, 0]
        assert 'depth{node="a"} 7\n' in reg.prometheus_text()

    def test_readers_run_at_each_export(self):
        reg = MetricsRegistry()
        counts = {}
        reg.collect("hits_total", "Hits.", ("node",), lambda: counts)
        assert "hits_total" not in reg.snapshot()
        counts["a"] = 1
        assert reg.snapshot()["hits_total"]["values"][0]["value"] == 1.0

    def test_collected_and_pushed_families_merge_in_name_order(self):
        reg = MetricsRegistry()
        reg.collect("hits_total", "Hits.", ("node",), lambda: {"a": 1})
        reg.counter("apples_total").labels().inc()
        reg.histogram("zebra_us").labels().observe(3.0)
        assert list(reg.snapshot()) == ["apples_total", "hits_total",
                                        "zebra_us"]

    def test_a_family_is_pushed_or_collected_never_both(self):
        reg = MetricsRegistry()
        reg.collect("hits_total", "Hits.", ("node",), dict)
        with pytest.raises(TypeError, match="collected"):
            reg.counter("hits_total")
        reg.counter("pushed_total")
        with pytest.raises(TypeError, match="pushed"):
            reg.collect("pushed_total", "", (), dict)

    def test_collection_never_fires_the_observer(self):
        reg = MetricsRegistry()
        fired = []
        reg.observer = lambda: fired.append(1)
        reg.collect("hits_total", "Hits.", ("node",), lambda: {"a": 1})
        reg.snapshot()
        reg.prometheus_text()
        assert fired == []

    def test_selector_on_a_collected_family_raises(self):
        reg = MetricsRegistry()
        reg.collect("hits_total", "Hits.", ("node",), lambda: {"a": 1})
        with pytest.raises(ValueError, match="hits_total is collected"):
            Selector("hits_total").scalar(reg)
        assert Selector("never_seen_total").scalar(reg) == 0.0

    def test_monitor_rule_on_a_collected_family_fails_when_evaluated(self):
        env = Environment()
        tel = Telemetry.install(env)
        tel.metrics.collect("hits_total", "Hits.", ("node",),
                            lambda: {"a": 1})
        tel.attach_monitor(step_us=1_000.0).add_rule(
            RateRule("hits", "hits_total", 5_000.0))
        env.run(until=2_000.0)  # past a step the next observation catches
        with pytest.raises(ValueError, match="hits_total is collected"):
            tel.metrics.histogram("lat_us").labels().observe(1.0)


def _dropped_total(tel, engine):
    values = tel.metrics.snapshot().get("engine_dropped_total",
                                        {"values": []})["values"]
    return sum(v["value"] for v in values
               if v["labels"]["engine"] == engine.name)


def _started(builder=None):
    env = Environment()
    tel = Telemetry.install(env)
    kwargs = {"engine_builder": builder} if builder else {}
    plat = ServerlessPlatform(env, **kwargs)
    plat.add_tenant(Tenant("t", pool_buffers=1024))
    plat.deploy(FunctionSpec("f", "t", work_us=1), "worker1")
    plat.start()
    env.run(until=100_000)
    return env, tel, plat


class TestDropPaths:
    """Each drop counts once: ``stats.dropped`` is the exported sum."""

    def test_spright_rx_unknown_tenant_and_vanished_destination(self):
        env, tel, plat = _started(build_spright)
        engine = plat.engines["worker1"]
        for tenant, dst in (("nobody", "f"), ("t", "ghost")):
            message = Message(dst=dst, tenant=tenant, owner=engine.agent)
            env.process(engine._handle_tcp_rx(
                _TcpFrame(message, b"x", 64, tenant)))
        env.run(until=env.now + 10_000)
        assert engine.stats.drops == {"rx": 2}
        assert engine.stats.dropped == _dropped_total(tel, engine) == 2

    def test_dne_rx_length_error(self):
        env, tel, plat = _started()
        engine = plat.engines["worker1"]
        buffer = engine._tenants["t"].pool.get(engine.agent)
        completion = Completion(Opcode.RECV, wr_id=0, ok=False,
                                buffer=buffer, length=64, message=Message(),
                                tenant="t", is_recv=True)
        env.process(engine._handle_recv(completion))
        env.run(until=env.now + 10_000)
        assert engine.stats.drops == {"rx": 1}
        assert engine.stats.dropped == _dropped_total(tel, engine) == 1


def test_fuyao_exports_only_the_paths_it_shares():
    env, tel, plat = _started(build_fuyao)
    engine = plat.engines["worker1"]
    engine.stats.shed["t", "tail"] += 2
    engine.stats.tx_errors += 1
    engine.stats.drops["rx"] += 1
    engine.stats.tenant_rx["t"] += 1
    snap = tel.metrics.snapshot()
    assert _dropped_total(tel, engine) == 2 and engine.stats.dropped == 3
    assert {"labels": {"engine": engine.name, "tenant": "t", "policy": "tail"},
            "value": 2.0} in snap["qos_sched_dropped_total"]["values"]
    assert {"labels": {"engine": engine.name}, "value": 1.0} in \
        snap["engine_tx_errors_total"]["values"]
    assert "engine_rx_total" not in snap


def test_crashed_functions_counts_are_still_exported():
    env = Environment()
    tel = Telemetry.install(env)
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t", pool_buffers=1024))
    caller = plat.deploy(FunctionSpec("caller", "t", work_us=0), "worker0")
    plat.deploy(FunctionSpec("svc", "t", work_us=1), "worker1")
    plat.start()

    def drive():
        yield env.timeout(30_000)
        for i in range(3):
            yield from caller.invoke("svc", i, 64)

    env.process(drive())
    env.run(until=60_000)
    plat.functions.pop("svc").crash()
    values = tel.metrics.snapshot()["fn_handled_total"]["values"]
    assert {"labels": {"fn": "svc", "tenant": "t"}, "value": 3.0} in values


class _Gateway:
    """Duck-typed gateway instance: counts what it is handed."""

    def __init__(self, env):
        self.env = env
        self.healthy = True
        self.siblings = []
        self.submitted = 0

    def start(self):
        pass

    def connect(self):
        from repro.ingress.gateway import ClientConnection
        return ClientConnection(self.env)

    def submit(self, conn, request):
        self.submitted += 1


def test_balancer_failover_is_exported():
    env = Environment()
    tel = Telemetry.install(env)
    lb = IngressLoadBalancer([_Gateway(env), _Gateway(env)])
    lb.start()
    conn = lb.connect()
    lb._owner[conn.conn_id][0].healthy = False
    lb.submit(conn, HttpRequest("/"))
    snap = tel.metrics.snapshot()
    assert snap["gateway_failovers_total"]["values"] == [
        {"labels": {}, "value": 1.0}]
    assert sum(v["value"] for v in
               snap["ingress_tier_spray_total"]["values"]) == 1.0
