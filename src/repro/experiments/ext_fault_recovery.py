"""Extension — failure recovery under a worker-node crash.

Not a figure from the paper: this experiment exercises the fault-
injection subsystem (:mod:`repro.faults`) end to end.  The Online
Boutique runs with its hotspots (frontend, checkout, recommendation)
pinned to worker0 and every leaf service deployed as a two-replica
elastic service with one replica per worker.  A :class:`FaultPlan`
fail-stops worker1 mid-run and restarts it later; wrk-style clients
redial after timeouts so goodput *recovery* is observable.

Configurations:

==========================  ================================================
palladium-dne               DNE + full recovery (route withdrawal, replica
                            failover, QP eviction, background reconnect)
palladium-dne-no-recovery   same data plane, fault handling disabled: the
                            physical crash still happens, but routes and
                            replica rotation keep pointing at the dead node
palladium-cne               host-core engine, full recovery
spright                     kernel-TCP baseline, full recovery
==========================  ================================================

The headline metric is ``restored_pct``: steady-state goodput during
the outage (after clients re-dial) as a percentage of pre-fault
goodput.  With recovery enabled the surviving replicas absorb the
traffic (>= 90%); without it, every request keeps round-robining into
the dead node and goodput collapses.  ``recover_ms`` is the time from
the crash until goodput is back to >= 90% of the pre-fault level.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import CostModel
from ..faults import FaultInjector, FaultPlan
from ..platform import ElasticPlatform
from ..sim import Environment
from ..telemetry import BurnWindow, RateRule, Selector, Slo, Telemetry
from ..workloads import BOUTIQUE_TENANT, ClientFleet, boutique_specs, path_payload

from .parallel import Plan, sweep
from .runner import ExperimentResult, after
from .wiring import build_boutique

__all__ = ["attach_fault_monitor", "run_fault_point",
           "run_ext_fault_recovery", "FAULT_CONFIGS"]

#: the evaluated configurations (see module docstring)
FAULT_CONFIGS = ("palladium-dne", "palladium-dne-no-recovery",
                 "palladium-cne", "spright")

#: the paper's hotspots stay singletons on worker0; every leaf becomes
#: a two-replica service (primary on worker1, standby on worker0)
HOTSPOTS = ("frontend", "checkout", "recommendation")

NO_RECOVERY_SUFFIX = "-no-recovery"


def _place(plat) -> None:
    """Hotspots as singletons on worker0, each leaf as two replicas."""
    specs = {spec.name: spec for spec in boutique_specs()}
    for name in HOTSPOTS:
        plat.deploy(specs[name], "worker0")
    for name, spec in specs.items():
        if name in HOTSPOTS:
            continue
        # Replica #0 on worker1 (the paper's placement for the leaves),
        # replica #1 on worker0 — the survivor the failover targets.
        plat.deploy_service(spec, "worker1")
        plat.scale_out(spec, "worker0")


def attach_fault_monitor(telemetry, step_us: float = 1_000.0,
                         arm_at_us: float = 0.0):
    """The SLO bundle for the crash/recovery runs.

    One availability SLO on the boutique tenant: good = responses
    delivered (plus any admission sheds), total = requests accepted.
    A dead worker shows up as requests that keep arriving (clients
    re-dial) while responses stall — sustained budget burn.  A
    recovered plane takes at most a brief client re-dial dip.
    """
    mon = telemetry.attach_monitor(step_us=step_us, arm_at_us=arm_at_us)
    # The default burn windows assume open-loop traffic.  This fleet is
    # closed-loop: after a crash every client blocks on its 30 ms
    # timeout and re-dials 5 ms later, so failures arrive in
    # synchronized ~35 ms bursts and a millisecond-scale short window
    # is empty more often than not (the alert would flap).  Size both
    # windows to cover at least one full retry burst, and keep the
    # thresholds below the max burn (1/budget = 5 at objective 0.80) —
    # the default page threshold of 8 would be unreachable.
    windows = (
        BurnWindow("fast", long_us=40_000.0, short_us=40_000.0,
                   threshold=2.0, severity="page"),
        BurnWindow("slow", long_us=60_000.0, short_us=40_000.0,
                   threshold=1.5, severity="ticket"),
    )
    mon.add_slo(Slo(
        "slo-availability-boutique", objective=0.80,
        good=[Selector("ingress_responses_total",
                       {"tenant": BOUTIQUE_TENANT}),
              Selector("ingress_admission_rejected_total",
                       {"tenant": BOUTIQUE_TENANT})],
        total=[Selector("ingress_requests_total",
                        {"tenant": BOUTIQUE_TENANT})],
        windows=windows,
        # Post-crash the windows see only the retry trickle — a high
        # min_events would mute exactly the outage we watch for.
        min_events=5,
        labels={"tenant": BOUTIQUE_TENANT, "sli": "availability"}))
    mon.add_rule(RateRule("offered_rps", "ingress_requests_total", 5_000.0))
    mon.add_rule(RateRule("delivered_rps", "ingress_responses_total",
                          5_000.0))
    return mon


def run_fault_point(
    config: str,
    clients: int = 12,
    warmup_us: float = 40_000.0,
    crash_at_us: float = 140_000.0,
    down_us: float = 100_000.0,
    post_us: float = 90_000.0,
    invoke_timeout_us: float = 15_000.0,
    client_timeout_us: float = 30_000.0,
    cost: Optional[CostModel] = None,
    with_telemetry: bool = False,
    with_monitor: bool = False,
) -> Dict[str, object]:
    """One node-crash/restart run; returns goodput + recovery metrics.

    Timeline: clients start at ``warmup_us``; worker1 fail-stops at
    ``crash_at_us`` and restarts ``down_us`` later; the run ends
    ``post_us`` after the restart.  The pre/outage/post goodput windows
    are trimmed away from the transition edges so each one measures a
    steady state.  ``with_monitor`` implies telemetry and attaches
    :func:`attach_fault_monitor`; everything outside the ``telemetry``
    key stays byte-identical to an uninstrumented run.
    """
    recovery = not config.endswith(NO_RECOVERY_SUFFIX)
    base = config[:-len(NO_RECOVERY_SUFFIX)] if not recovery else config
    cost = cost or CostModel()
    env = Environment()
    telemetry = (Telemetry.install(env)
                 if with_telemetry or with_monitor else None)
    if with_monitor:
        # Arm one slow-long-window past client start, before the crash.
        attach_fault_monitor(telemetry, arm_at_us=warmup_us + 60_000.0)
    plat, ingress = build_boutique(base, env, cost, _place,
                                   platform=ElasticPlatform,
                                   stats_bucket_us=5_000.0)
    for runtime in plat.runtimes.values():
        runtime.invoke_timeout_us = invoke_timeout_us
    ingress.start()
    plat.start()

    fleet = ClientFleet(env, plat.cluster, ingress, path="/home",
                        body_bytes=256, payload=path_payload("/home"),
                        timeout_us=client_timeout_us,
                        reconnect=True, reconnect_us=5_000.0,
                        stats_bucket_us=5_000.0)
    after(env, warmup_us, lambda: fleet.spawn(clients))

    plan = FaultPlan().node_crash(crash_at_us, "worker1", down_us=down_us)
    injector = FaultInjector(env, plat, plan, recovery=recovery)
    injector.start()

    restart_at = crash_at_us + down_us
    end = restart_at + post_us
    env.run(until=end)

    # Steady-state windows (multiples of the 5 ms meter resolution).
    pre = fleet.rps(warmup_us + 40_000.0, crash_at_us)
    outage = fleet.rps(crash_at_us + 40_000.0, restart_at - 5_000.0)
    post = fleet.rps(restart_at + 30_000.0, end)

    # Time from the crash until a 10 ms goodput window is back to 90%
    # of the pre-fault level (includes the clients' own re-dial time).
    recover_ms = -1.0
    if pre > 0:
        t = crash_at_us
        while t + 10_000.0 <= end:
            if fleet.rps(t, t + 10_000.0) >= 0.9 * pre:
                recover_ms = (t - crash_at_us) / 1000.0
                break
            t += 5_000.0

    completed = fleet.total_completed()
    errors = fleet.total_errors()
    metrics: Dict[str, object] = {
        "pre_rps": pre,
        "outage_rps": outage,
        "post_rps": post,
        "restored_pct": 100.0 * outage / pre if pre else 0.0,
        "post_pct": 100.0 * post / pre if pre else 0.0,
        "recover_ms": recover_ms,
        "availability_pct": (100.0 * completed / (completed + errors)
                             if completed + errors else 0.0),
        "client_errors": errors,
        "client_reconnects": sum(c.reconnects for c in fleet.clients),
        "qp_reconnects": sum(e.conn_mgr.reconnects_succeeded
                             for e in plat.engines.values()),
        "flushed_cqes": sum(e.rnic.flushed_cqes
                            for e in plat.engines.values()),
        "fault_events": len(injector.timeline),
    }
    if telemetry is not None:
        metrics["telemetry"] = telemetry
    return metrics


@sweep
def run_ext_fault_recovery(
    configs=FAULT_CONFIGS,
    clients: int = 12,
    cost: Optional[CostModel] = None,
    **point_kwargs,
) -> Plan:
    """Goodput through a worker-node crash, per configuration."""
    configs = tuple(configs)
    points = yield [(run_fault_point, (config,),
                     dict(clients=clients, cost=cost, **point_kwargs))
                    for config in configs]
    result = ExperimentResult(
        "EXT - failure recovery (worker1 crash + restart)",
        columns=["config", "pre_rps", "outage_rps", "post_rps",
                 "restored_pct", "recover_ms", "avail_pct",
                 "client_errors", "qp_reconnects", "flushed_cqes"],
    )
    for config, m in zip(configs, points):
        result.add_row(config, round(m["pre_rps"]), round(m["outage_rps"]),
                       round(m["post_rps"]), round(m["restored_pct"], 1),
                       round(m["recover_ms"], 1),
                       round(m["availability_pct"], 1),
                       int(m["client_errors"]), int(m["qp_reconnects"]),
                       int(m["flushed_cqes"]))
    result.note(
        "recovery (route withdrawal + replica failover + QP eviction + "
        "reconnect) should restore >= 90% of pre-fault goodput during "
        "the outage; the no-recovery baseline keeps routing into the "
        "dead node and collapses"
    )
    return result
