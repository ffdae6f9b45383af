"""Extension — goodput under overload with and without QoS (repro.qos).

The paper's multi-tenant story (§3.4) stops at DWRR fairness between
*well-behaved* tenants; this extension asks what happens when tenants
misbehave.  Three tenants (gold/silver/best — weights 10/2/1, classes
guaranteed/standard/best-effort) drive a two-hop relay→echo chain
through each data plane with *open-loop* sources swept past the
saturation point.  Palladium's DNE runs the full :mod:`repro.qos`
stack — token-bucket + SLO admission at the ingress, CoDel-bounded
DWRR queues, and hop-by-hop credit windows — while the SPRIGHT and
FUYAO baselines get only what their papers describe: unbounded ingress
queues and naive tail-drop at a full engine queue.

Expected shape (the acceptance criterion for this extension):

* Palladium (DNE) holds >= ~90 % of its peak goodput at 2x the
  saturating load — excess is shed *at the edge* before it can queue.
* The tail-drop baselines degrade markedly past saturation: queues
  grow without bound, completions blow the deadline, and goodput
  collapses toward zero.
* In the isolation run, a weight-10 guaranteed tenant offered its fair
  share keeps its goodput while the best-effort hog is shed first.

Offered load is expressed as a multiple of each configuration's
empirically calibrated saturation throughput (:data:`CAPACITY_RPS`),
so "2x" means the same degree of overload for every data plane.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..baselines import DATA_PLANES
from ..config import CostModel
from ..ingress import PalladiumIngress
from ..platform import FunctionSpec, ServerlessPlatform, Tenant
from ..qos import DROP_CODEL, DROP_TAIL, QueueBounds, qos_for_platform
from ..sim import Environment
from ..telemetry import (QuantileRule, RateRule, RatioRule, Selector, Slo,
                         Telemetry)
from ..workloads import OpenLoopSource

from .parallel import Plan, sweep
from .runner import ExperimentResult, after
from .wiring import wire_ingress

__all__ = [
    "attach_overload_monitor",
    "run_ext_overload",
    "run_overload_isolation",
    "run_overload_point",
    "CAPACITY_RPS",
    "DEADLINE_US",
    "OVERLOAD_CONFIGS",
    "TENANTS",
]

#: evaluated data planes: Palladium's DNE with the full QoS stack vs
#: the two multi-node baselines with naive tail-drop only
OVERLOAD_CONFIGS = ("palladium-dne", "spright", "fuyao")

#: uniform engine cost inflation (the Fig. 15 trick) so the sweep
#: saturates at a few thousand RPS and each point stays a small sim;
#: applied symmetrically to every design's forwarding path
OVERLOAD_THROTTLE = 6.0

#: (name, DWRR weight, QoS class, share of offered load)
TENANTS = (
    ("gold", 10.0, "guaranteed", 0.50),
    ("silver", 2.0, "standard", 0.25),
    ("best", 1.0, "best-effort", 0.25),
)

#: end-to-end SLO every completion is judged against (same for all
#: tenants; the *classes* differ in how early the gate sheds them)
DEADLINE_US = 5_000.0

#: calibrated single-config saturation goodput (requests/s) at
#: OVERLOAD_THROTTLE; "multiplier" in the sweep is relative to this.
#: Re-calibrate whenever the cost model or the throttle changes.
CAPACITY_RPS = {
    "palladium-dne": 20_000.0,
    "spright": 8_500.0,
    "fuyao": 10_500.0,
}

#: per-tenant engine queue bound; tail-drop for baselines, CoDel for
#: Palladium (the credit window keeps Palladium's queues below this)
QUEUE_CAPACITY = 64

#: admission caps: each tenant's token bucket admits slightly *below*
#: its fair share of capacity, so past saturation the downstream
#: pipeline keeps a stable operating point and the excess is rejected
#: at the edge (the deadline gate handles transient queue growth)
RATE_CAP_SLACK = 0.85


def _throttled(cost: CostModel) -> CostModel:
    """Inflate engine-side costs so saturation happens at low RPS.

    Every data plane's forwarding path is scaled by the same factor
    (DNE/Comch for Palladium, kernel TCP + SK_MSG for SPRIGHT,
    one-sided write/poll + SK_MSG for FUYAO) so "1x capacity" means
    the same degree of engine saturation in each configuration.
    """
    t = OVERLOAD_THROTTLE
    return dataclasses.replace(
        cost,
        dne_tx_proc_us=cost.dne_tx_proc_us * t,
        dne_rx_proc_us=cost.dne_rx_proc_us * t,
        comch_e_cpu_us=cost.comch_e_cpu_us * t,
        kernel_tcp_us=cost.kernel_tcp_us * t,
        kernel_irq_us=cost.kernel_irq_us * t,
        sk_msg_us=cost.sk_msg_us * t,
        sk_msg_interrupt_us=cost.sk_msg_interrupt_us * t,
        fuyao_tx_us=cost.fuyao_tx_us * t,
        fuyao_rx_us=cost.fuyao_rx_us * t,
    )


def _relay_handler(dst_fn: str):
    """Entry function: one inter-node hop (invoke echo), then respond."""

    def _relay(ctx, msg):
        reply = yield from ctx.invoke(dst_fn, msg.payload, msg.size)
        yield from ctx.respond(reply.payload, reply.size)

    return _relay


def _echo(ctx, msg):
    yield from ctx.respond(msg.payload, msg.size)


def _resolver(path: str) -> Tuple[str, str]:
    tenant = path.strip("/")
    return tenant, f"relay-{tenant}"


def _deploy(plat: ServerlessPlatform, config: str):
    """Tenants, relay/echo chains and QoS for one config.

    Returns the ingress QoS for Palladium, ``None`` for the baselines.
    """
    qos_on = config == "palladium-dne"
    capacity = CAPACITY_RPS[config]
    for name, weight, qos_class, share in TENANTS:
        tenant = Tenant(name, weight=weight, pool_buffers=1024)
        if qos_on:
            # QoS contract: class + deadline + a rate cap just under
            # the tenant's fair share of the calibrated capacity.
            tenant.qos_class = qos_class
            tenant.deadline_us = DEADLINE_US
            tenant.rate_rps = RATE_CAP_SLACK * share * capacity
            tenant.burst = 64
        plat.add_tenant(tenant)
        relay = plat.deploy(FunctionSpec(f"relay-{name}", name,
                                         _relay_handler(f"echo-{name}"),
                                         work_us=2.0, concurrency=64),
                            "worker0")
        # A relay whose inner invoke was shed must give up at the SLO,
        # or every dropped message permanently strands a handler slot.
        # The guard reads the node runtime's timeout.
        relay.iolib.runtime.invoke_timeout_us = DEADLINE_US
        plat.deploy(FunctionSpec(f"echo-{name}", name, _echo,
                                 work_us=2.0, concurrency=64), "worker1")

    if qos_on:
        # Full stack: CoDel-bounded DWRR + hop-by-hop credits + an
        # SLO-aware admission gate at the ingress.  The delay estimate
        # uses the *throttled* per-event engine cost.
        cost = plat.cost
        svc_us = (cost.dne_tx_proc_us + cost.comch_e_cpu_us) * 1.6
        plat.enable_qos(
            bounds=QueueBounds(QUEUE_CAPACITY, policy=DROP_CODEL,
                               codel_target_us=500.0,
                               codel_interval_us=5_000.0),
            credits=True, credit_base=48, credit_min=4,
            credit_low_water=8, credit_high_water=56,
            credit_sources=(PalladiumIngress.AGENT,),
        )
        return qos_for_platform(plat, service_us_estimate=svc_us)
    # Baselines keep only what their papers describe: a naive
    # tail-drop at a full engine queue, unbounded everywhere else.
    plat.enable_qos(bounds=QueueBounds(QUEUE_CAPACITY, policy=DROP_TAIL))
    return None


#: SLO objectives by QoS class: (latency, availability).  The class IS
#: the contract — guaranteed tenants get tight objectives, standard a
#: looser pair, best-effort next to none (a best-effort burn-rate page
#: would be a contradiction in terms).
CLASS_OBJECTIVES = {
    "guaranteed": (0.95, 0.95),
    "standard": (0.80, 0.90),
    "best-effort": (0.60, 0.80),
}


def attach_overload_monitor(telemetry, step_us: float = 1_000.0,
                            arm_at_us: float = 0.0):
    """The standard SLO bundle for the overload sweep.

    Per tenant: a latency SLO (delivered responses within the deadline)
    and an availability SLO where *good* counts both delivered
    responses and deliberate admission sheds — Palladium rejecting a
    hog at the edge is the QoS stack working, not an outage, while a
    baseline silently queueing requests to death burns budget.
    Objectives come from :data:`CLASS_OBJECTIVES`.  Plus dashboard
    recording rules (offered/delivered rates, windowed p99, shed
    ratio).  Returns the attached monitor.
    """
    mon = telemetry.attach_monitor(step_us=step_us, arm_at_us=arm_at_us)
    for name, _, qos_class, _ in TENANTS:
        latency_obj, avail_obj = CLASS_OBJECTIVES[qos_class]
        mon.add_slo(Slo(
            f"slo-latency-{name}", objective=latency_obj,
            hist_metric="ingress_latency_us", threshold_us=DEADLINE_US,
            where={"tenant": name}, min_events=20,
            labels={"tenant": name, "sli": "latency"}))
        mon.add_slo(Slo(
            f"slo-availability-{name}", objective=avail_obj,
            good=[Selector("ingress_responses_total", {"tenant": name}),
                  Selector("ingress_admission_rejected_total",
                           {"tenant": name})],
            total=[Selector("ingress_requests_total", {"tenant": name})],
            min_events=20,
            labels={"tenant": name, "sli": "availability"}))
    mon.add_rule(RateRule("offered_rps", "ingress_requests_total", 5_000.0))
    mon.add_rule(RateRule("delivered_rps", "ingress_responses_total",
                          5_000.0))
    mon.add_rule(QuantileRule("ingress_p99_us", "ingress_latency_us",
                              0.99, 10_000.0))
    mon.add_rule(RatioRule("shed_ratio", "ingress_admission_rejected_total",
                           "ingress_requests_total", 10_000.0, default=0.0))
    return mon


def run_overload_point(
    config: str,
    multiplier: float,
    duration_us: float = 200_000.0,
    warmup_us: float = 160_000.0,
    cost: Optional[CostModel] = None,
    tenant_multipliers: Optional[Dict[str, float]] = None,
    with_telemetry: bool = False,
    with_monitor: bool = False,
) -> Dict[str, object]:
    """One (config, offered-load) cell of the overload sweep.

    ``multiplier`` scales every tenant's offered rate relative to its
    share of :data:`CAPACITY_RPS`; ``tenant_multipliers`` additionally
    scales individual tenants (the isolation study's hog).
    ``with_monitor`` implies telemetry and attaches the standard SLO
    bundle (:func:`attach_overload_monitor`); the monitor piggybacks on
    observations, so everything outside the ``telemetry`` key stays
    byte-identical to a monitor-off run (the CI determinism gate).
    """
    cost = _throttled(cost or CostModel())
    env = Environment()
    telemetry = (Telemetry.install(env)
                 if with_telemetry or with_monitor else None)
    if with_monitor:
        # Arm one slow-long-window past traffic start so no burn
        # window reaches back into the idle warmup.
        attach_overload_monitor(telemetry, arm_at_us=warmup_us + 60_000.0)
    plane = DATA_PLANES[config]
    plat = ServerlessPlatform(env, cost=cost, engine_builder=plane.engine)
    qos = _deploy(plat, config)
    tenants = {name: 1024 for name, _, _, _ in TENANTS}
    if qos is None:
        ingress = wire_ingress(plat, plane.ingress, _resolver, tenants,
                               cores=2, stack=plane.stack)
    else:
        # NB: recv postings draw from the same per-tenant ingress pool
        # the TX path allocates from — keep recv_buffers well below the
        # pool size or the gateway wedges on an exhausted pool.
        ingress = wire_ingress(plat, plane.ingress, _resolver, tenants,
                               cores=4, recv_buffers=128, qos=qos)
    ingress.start()
    plat.start()

    capacity = CAPACITY_RPS[config]
    end_us = warmup_us + duration_us
    sources: Dict[str, OpenLoopSource] = {}
    for name, _, _, share in TENANTS:
        scale = multiplier * (tenant_multipliers or {}).get(name, 1.0)
        rate = share * capacity * scale
        sources[name] = OpenLoopSource(
            env, plat.cluster, ingress, rate_rps=rate,
            path=f"/{name}", body_bytes=256, rng=None,
            name=f"src-{name}", deadline_us=DEADLINE_US,
        )

    def start_sources():
        for source in sources.values():
            env.process(source.run(until_us=end_us),
                        name=f"{source.name}-run")

    after(env, warmup_us, start_sources)
    measure_from = warmup_us + duration_us * 0.25
    env.run(until=end_us)

    window_s = (env.now - measure_from) / 1e6
    per_tenant = {}
    for name, weight, qos_class, share in TENANTS:
        src = sources[name]
        scale = multiplier * (tenant_multipliers or {}).get(name, 1.0)
        per_tenant[name] = {
            "class": qos_class,
            "weight": weight,
            "offered_rps": share * capacity * scale,
            "goodput_rps": src.goodput_rps(measure_from, env.now),
            "good": src.good,
            "late": src.late,
            "rejected": src.rejected,
            "lost": src.lost(),
        }

    engine0 = plat.engines["worker0"]
    gate = ingress.qos.gate if getattr(ingress, "qos", None) else None
    metrics = {
        "config": config,
        "multiplier": multiplier,
        "offered_rps": sum(t["offered_rps"] for t in per_tenant.values()),
        "goodput_rps": sum(t["goodput_rps"] for t in per_tenant.values()),
        "throughput_rps": sum(
            s.throughput.rate(measure_from, env.now) * 1e6
            for s in sources.values()),
        "good": sum(t["good"] for t in per_tenant.values()),
        "late": sum(t["late"] for t in per_tenant.values()),
        "rejected": sum(t["rejected"] for t in per_tenant.values()),
        "lost": sum(t["lost"] for t in per_tenant.values()),
        "gate_admitted": gate.admitted if gate else 0,
        "gate_rejected": gate.rejected if gate else 0,
        "gate_rejections": (
            {f"{t}:{r}": n for (t, r), n in sorted(gate.rejections.items())}
            if gate else {}),
        "sched_dropped": sum(e.scheduler.dropped
                             for e in plat.engines.values()),
        "engine_dropped": sum(e.stats.dropped
                              for e in plat.engines.values()),
        "ingress_dropped": ingress.stats.dropped,
        "fairness_ratio": engine0.scheduler.fairness_ratio(),
        "window_s": window_s,
        "per_tenant": per_tenant,
    }
    if telemetry is not None:
        if telemetry.monitor is not None:
            telemetry.monitor.catch_up()  # boundaries after the last pushed site
        metrics["telemetry"] = telemetry
    return metrics


@sweep
def run_ext_overload(
    configs=OVERLOAD_CONFIGS,
    multipliers=(0.5, 0.8, 1.0, 1.5, 2.0, 3.0),
    duration_us: float = 200_000.0,
    warmup_us: float = 160_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Goodput vs offered load past saturation, per data plane."""
    configs = tuple(configs)
    multipliers = tuple(multipliers)
    all_points = yield [(run_overload_point,
                         (config, m, duration_us, warmup_us, cost), {})
                        for config in configs for m in multipliers]
    result = ExperimentResult(
        "Ext - goodput under overload (QoS vs tail-drop)",
        columns=["config", "multiplier", "offered_rps", "goodput_rps",
                 "pct_peak", "rejected", "late", "lost", "sched_dropped",
                 "fairness"],
    )
    for ci, config in enumerate(configs):
        points = all_points[ci * len(multipliers):(ci + 1) * len(multipliers)]
        peak = max(p["goodput_rps"] for p in points) or 1.0
        for p in points:
            result.add_row(
                config, p["multiplier"], round(p["offered_rps"]),
                round(p["goodput_rps"]),
                round(100.0 * p["goodput_rps"] / peak, 1),
                p["rejected"], p["late"], p["lost"], p["sched_dropped"],
                round(p["fairness_ratio"], 3),
            )
    result.note(
        "open-loop gold/silver/best (w 10/2/1) past saturation; "
        "palladium-dne sheds at the edge (admission + credits + CoDel) "
        "and holds >=90% of peak at 2x, tail-drop baselines collapse"
    )
    return result


@sweep
def run_overload_isolation(
    multiplier: float = 1.0,
    hog_multiplier: float = 5.0,
    duration_us: float = 200_000.0,
    warmup_us: float = 160_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Per-tenant isolation: a best-effort hog vs a guaranteed tenant.

    gold and silver offer their fair share; best offers
    ``hog_multiplier`` times its share (2x aggregate by default).  The
    QoS stack should shed the hog at the gate while the weight-10
    guaranteed tenant keeps its goodput.
    """
    point, = yield [(run_overload_point,
                     ("palladium-dne", multiplier, duration_us, warmup_us,
                      cost), {"tenant_multipliers": {"best": hog_multiplier}})]
    result = ExperimentResult(
        "Ext - per-tenant isolation under a best-effort hog",
        columns=["tenant", "class", "weight", "offered_rps",
                 "goodput_rps", "goodput_pct", "rejected", "late",
                 "lost"],
    )
    for name, _, _, _ in TENANTS:
        t = point["per_tenant"][name]
        offered = t["offered_rps"] or 1.0
        result.add_row(
            name, t["class"], t["weight"], round(t["offered_rps"]),
            round(t["goodput_rps"]),
            round(100.0 * t["goodput_rps"] / offered, 1),
            t["rejected"], t["late"], t["lost"],
        )
    rejections = ", ".join(
        f"{key}={n}" for key, n in point["gate_rejections"].items())
    result.note(
        f"aggregate {round(point['offered_rps'])} rps offered; gate "
        f"sheds [{rejections or 'none'}]; DWRR fairness "
        f"{round(point['fairness_ratio'], 3)}; the hog is rejected at "
        "the edge, the guaranteed tenant keeps its share"
    )
    return result
