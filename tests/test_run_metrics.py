"""Run-level metrics pinned against ``tests/golden/run_metrics.json``.

Each run below is a short instrumented scenario.  Together they reach
the metric families the stack exports: the four boutique data planes,
an overload point with the full QoS stack, a node and engine crash with
restart, live and cold relocations, and a two-gateway balancer.  For
each run the golden file holds the ``metrics.snapshot()`` JSON and the
sha256 of ``metrics.prometheus_text()``.

Families no run below reaches:

* ``gateway_failovers_total``: no run fails a gateway behind the
  balancer.  Its pushed site called ``.inc()`` on the family instead of
  a child, so a failover with telemetry on raised ``AttributeError``;
  the collected family is checked in ``tests/test_collected_metrics.py``.
* ``telemetry_dropped_series_total``: no run exceeds the per-family
  label-cardinality cap (``tests/test_telemetry.py`` drives it).

Re-pin only for an intended change to what the metrics report::

    PYTHONPATH=src python tests/test_run_metrics.py --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.config import CostModel
from repro.experiments.ext_overload import run_overload_point
from repro.experiments.fig16_boutique import run_boutique_point
from repro.experiments.runner import after
from repro.experiments.wiring import build_boutique, wire_ingress
from repro.faults import FaultInjector, FaultPlan
from repro.ingress import IngressLoadBalancer
from repro.migration import kill_and_cold_start
from repro.platform import ElasticPlatform, ServerlessPlatform
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.workloads import (ECHO_TENANT, ClientFleet, boutique_specs,
                             deploy_http_echo, path_payload)

GOLDEN = Path(__file__).parent / "golden" / "run_metrics.json"


def _boutique(config):
    def run():
        point = run_boutique_point(config, "Home Query", 8,
                                   duration_us=20_000.0, with_telemetry=True)
        return point["telemetry"]
    return run


def _overload():
    point = run_overload_point("palladium-dne", 3.0, duration_us=20_000.0,
                               with_telemetry=True)
    return point["telemetry"]


def _place_split(plat):
    for spec in boutique_specs():
        plat.deploy(spec, "worker1" if spec.name in ("currency", "ad")
                    else "worker0")


def _fleet(env, plat, ingress, clients):
    fleet = ClientFleet(env, plat.cluster, ingress, path="/home",
                        body_bytes=256, payload=path_payload("/home"),
                        timeout_us=10_000.0, reconnect=True,
                        reconnect_us=2_000.0, stats_bucket_us=5_000.0)
    after(env, 40_000.0, lambda: fleet.spawn(clients))
    return fleet


def _crash():
    """worker1 fail-stops and restarts; worker0's engine crashes."""
    env = Environment()
    tel = Telemetry.install(env)
    plat, ingress = build_boutique("palladium-dne", env, CostModel(),
                                   _place_split, platform=ElasticPlatform)
    for runtime in plat.runtimes.values():
        runtime.invoke_timeout_us = 5_000.0
    ingress.start()
    plat.start()
    _fleet(env, plat, ingress, 6)
    plan = (FaultPlan()
            .node_crash(60_000.0, "worker1", down_us=20_000.0)
            .engine_crash(100_000.0, "worker0", down_us=5_000.0))
    FaultInjector(env, plat, plan).start()
    env.run(until=130_000.0)
    return tel


def _migration():
    """A live migration under traffic, then a kill-and-cold-start."""
    env = Environment()
    tel = Telemetry.install(env)
    plat, ingress = build_boutique("palladium-dne", env, CostModel(),
                                   _place_split)
    for runtime in plat.runtimes.values():
        runtime.invoke_timeout_us = 5_000.0
    ingress.start()
    plat.start()
    _fleet(env, plat, ingress, 6)

    def relocate():
        yield env.timeout(60_000.0)
        yield from plat.migrate_function("currency", "worker0",
                                         state_bytes=256 * 1024)
        yield env.timeout(5_000.0)
        yield from kill_and_cold_start(plat, "ad", "worker0")

    env.process(relocate(), name="relocate")
    env.run(until=100_000.0)
    return tel


def _balancer():
    """Two Palladium gateways behind the L1 balancer; few RQ buffers."""
    env = Environment()
    tel = Telemetry.install(env)
    plat = ServerlessPlatform(env, recv_buffers=4)
    resolver = deploy_http_echo(plat)
    gateways = [wire_ingress(plat, "palladium", resolver,
                             {ECHO_TENANT: 256}, cores=1)
                for _ in range(2)]
    balancer = IngressLoadBalancer(gateways)
    balancer.start()
    plat.start()
    fleet = ClientFleet(env, plat.cluster, balancer, path="/echo",
                        body_bytes=128, payload="x")
    after(env, 40_000.0, lambda: fleet.spawn(6))
    env.run(until=60_000.0)
    return tel


RUNS = {
    "boutique-palladium-dne": _boutique("palladium-dne"),
    "boutique-palladium-cne": _boutique("palladium-cne"),
    "boutique-spright": _boutique("spright"),
    "boutique-fuyao-k": _boutique("fuyao-k"),
    "overload-qos": _overload,
    "crash-restart": _crash,
    "migration": _migration,
    "balancer": _balancer,
}


def _record(name):
    metrics = RUNS[name]().metrics
    return {
        "snapshot": json.loads(json.dumps(metrics.snapshot())),
        "prometheus_sha256": hashlib.sha256(
            metrics.prometheus_text().encode()).hexdigest(),
    }


def _dumps(runs) -> str:
    return json.dumps(runs, indent=1, sort_keys=True) + "\n"


def _moved(expected: dict, actual: dict):
    """``family{labels}`` of every series that differs, sorted."""
    moved = []
    for family in sorted(set(expected) | set(actual)):
        want, got = expected.get(family), actual.get(family)
        if want is None or got is None:
            moved.append(f"{family} (family "
                         f"{'added' if want is None else 'missing'})")
            continue
        if {k: v for k, v in want.items() if k != "values"} != \
                {k: v for k, v in got.items() if k != "values"}:
            moved.append(f"{family} (type, help or label names)")

        def series(values):
            return {json.dumps(v["labels"], sort_keys=True): v["value"]
                    for v in values}
        want_s, got_s = series(want["values"]), series(got["values"])
        for labels in sorted(set(want_s) | set(got_s)):
            if want_s.get(labels) != got_s.get(labels):
                moved.append(f"{family}{labels}: {want_s.get(labels)!r} "
                             f"-> {got_s.get(labels)!r}")
    return moved


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_metrics_match_golden(golden, name):
    actual = _record(name)
    expected = golden[name]
    moved = _moved(expected["snapshot"], actual["snapshot"])
    assert not moved, f"{name}: series moved:\n" + "\n".join(moved)
    assert actual["prometheus_sha256"] == expected["prometheus_sha256"]
    assert _dumps({name: actual}) == _dumps({name: expected})


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_run_metrics.py --update")
    GOLDEN.write_text(_dumps({name: _record(name) for name in sorted(RUNS)}))
    print(f"wrote {GOLDEN}")
