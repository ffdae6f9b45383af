"""Extension experiment: connection churn against the RDMA control plane.

Swift (arXiv 2501.19051) argues the RDMA *control plane* — QP setup,
CM round-trips, MR registration — is the bottleneck for elastic RDMA
computing.  This experiment measures exactly that, using the control
plane of :mod:`repro.rdma.controlplane`: thousands of short-lived
function instances arrive along the stylized diurnal trace
(:func:`repro.workloads.diurnal.diurnal_schedule`) and each one wants
to deliver a first byte to a peer node.  What the instance pays before
that byte lands depends on the provisioning policy:

* **cold** — a private pool per instance (pool key
  ``"<tenant>/fn<index>"``), no pre-warming, and the MR registered
  lazily at spin-up: every instance pays the full RC handshake plus
  one ``ibv_reg_mr``;
* **warm-fixed / warm-predictive** — tenant shadow pool kept
  pre-established by a pre-warm policy; the instance only *activates*
  a shadow QP (RoGUE's local promotion) and the region was registered
  eagerly at deploy time;
* **shared** — tenant-scoped pool whose QPs stay active under
  multiplexed traffic: the instance pays neither setup nor
  activation, just the wire.

The second half sweeps offered churn against a per-node control-plane
**ops/sec ceiling**: below the ceiling, completed setups track offered
load; past it, the verbs FIFO saturates and completions plateau — the
throughput knee.  Everything is deterministic (arrivals are integrated
from the rate curve, no RNG), so scenario and ceiling points share
one ``parallel_map`` and merge byte-identically for any worker count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import CostModel
from ..hw import build_cluster
from ..rdma import (
    RDMA_HEADER_BYTES,
    ConnectionManager,
    DemandPredictivePrewarm,
    FixedFloorPrewarm,
    PrewarmPolicy,
    RdmaFabric,
)
from ..sim import AllOf, Environment
from ..workloads.diurnal import RateSchedule, diurnal_schedule

from .parallel import Plan, sweep
from .runner import ExperimentResult

__all__ = ["run_ceiling_point", "run_churn_point", "run_ext_conn_churn"]

#: the first byte every instance wants to land on the peer
FIRST_BYTE_FRAME = 64 + RDMA_HEADER_BYTES

#: known churn scenarios
SCENARIOS = ("cold", "warm-fixed", "warm-predictive", "shared")

#: shadow QPs the warm-fixed pool keeps established (its deploy-time
#: warm-up and its pre-warm floor)
WARM_FLOOR = 4


def _arrivals(schedule: RateSchedule, offset_us: float,
              cap: Optional[int] = None) -> List[float]:
    """Deterministic arrival times integrated from the rate curve.

    Inter-arrival gaps are ``1e6 / rate(t)`` — the rate curve's
    deterministic skeleton (no RNG, so serial and parallel sweeps are
    byte-identical by construction).
    """
    times: List[float] = []
    t = 0.0
    end = schedule.end_us
    while True:
        rate = schedule.rate_at(t)
        if rate <= 0.0:
            t += 1_000.0
            if t >= end:
                break
            continue
        t += 1e6 / rate
        if t >= end:
            break
        times.append(offset_us + t)
        if cap is not None and len(times) >= cap:
            break
    return times


def _scenario_prewarm(scenario: str) -> Optional[PrewarmPolicy]:
    """The pre-warm policy a scenario's tenant pool runs under."""
    if scenario == "warm-fixed":
        return FixedFloorPrewarm(WARM_FLOOR)
    if scenario == "warm-predictive":
        return DemandPredictivePrewarm()
    if scenario in ("cold", "shared"):
        return None
    raise ValueError(f"unknown scenario {scenario!r}")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _run_world(scenario: str, arrival_times: List[float], state_bytes: int,
               prewarm: Optional[PrewarmPolicy],
               ops_per_sec: Optional[float], warmup_us: float,
               maintenance_period_us: float = 5_000.0) -> Dict[str, float]:
    """One simulated world: arrivals churn, TTFBs are collected."""
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost, workers=2)
    fabric = RdmaFabric(env, cluster, cost)
    fabric.install_rnic("worker0")
    fabric.install_rnic("worker1")
    mgr = ConnectionManager(env, fabric, "worker0", cost, prewarm=prewarm)
    cp = mgr.cp
    cp.set_ceiling(ops_per_sec)
    tenant = "churn"
    warm_pool = scenario in ("warm-fixed", "warm-predictive", "shared")
    # ceiling points churn cold too: every arrival is its own function
    cold = scenario == "cold" or scenario.startswith("ceiling@")
    ttfbs: List[float] = []
    done_times: List[float] = []

    def setup():
        """Deploy-time work, off every instance's critical path."""
        if warm_pool:
            floor = 1 if scenario == "warm-predictive" else WARM_FLOOR
            yield from mgr.warm_up("worker1", tenant, count=floor)
            # tenant pool region registered eagerly at deploy
            yield from cp.register_region(tenant, state_bytes)

    def maintenance():
        """The engine-core-thread stand-in: demote idlers, pre-warm."""
        while True:
            yield env.timeout(maintenance_period_us)
            if scenario != "shared":
                mgr.deactivate_idle()
            yield from mgr.maintain_pools()

    def instance(index: int, at_us: float):
        yield env.timeout(at_us)
        t0 = env.now
        if cold:
            # The runtime issues the QP handshake and the lazy MR
            # registration together at spin-up (both verbs commands
            # enqueue on the command queue at arrival — sequencing them
            # would head-of-line block the MR op behind every newer
            # arrival's handshake reservation).
            conn = env.process(
                mgr.get_connection("worker1", f"{tenant}/fn{index}"),
                name=f"churn-conn{index}")
            reg = env.process(cp.register_region(tenant, state_bytes),
                              name=f"churn-reg{index}")
            yield AllOf(env, [conn, reg])
            qp = conn.value
        else:
            qp = yield from mgr.get_connection("worker1", tenant)
            reg = None
        if not qp.is_errored:
            yield from fabric.link("worker0", "worker1").transmit(
                FIRST_BYTE_FRAME)
            ttfbs.append(env.now - t0)
            done_times.append(env.now)
        if reg is not None:
            cp.deregister_region(reg.value)
        if scenario == "warm-fixed" or scenario == "warm-predictive":
            # instance teardown: its QP drops back to shadow state
            mgr.deactivate_idle()

    env.process(setup(), name="churn-setup")
    env.process(maintenance(), name="churn-maintenance")
    for index, at_us in enumerate(arrival_times):
        env.process(instance(index, at_us), name=f"churn-fn{index}")
    horizon = (arrival_times[-1] if arrival_times else warmup_us)
    env.run(until=horizon + 500_000.0)

    ttfbs.sort()
    duration_s = max(1e-9, (arrival_times[-1] - arrival_times[0]) / 1e6
                     if len(arrival_times) > 1 else 1e-9)
    # completions credited only inside the offered window — the drain
    # tail would otherwise hide the saturation knee
    window_end = arrival_times[-1] if arrival_times else 0.0
    in_window = sum(1 for t in done_times if t <= window_end)
    return {
        "scenario": scenario,
        "instances": len(arrival_times),
        "offered_per_s": (len(arrival_times) - 1) / duration_s
        if len(arrival_times) > 1 else 0.0,
        "completed_per_s": in_window / duration_s
        if len(arrival_times) > 1 else 0.0,
        "completed": len(ttfbs),
        "ttfb_p50_us": _percentile(ttfbs, 0.50),
        "ttfb_p95_us": _percentile(ttfbs, 0.95),
        "ttfb_mean_us": sum(ttfbs) / len(ttfbs) if ttfbs else 0.0,
        "setups": mgr.connections_established,
        "pooled_qps": mgr.pooled_count(),
        "prewarm_ms": cp.setup_time_spent / 1_000.0,
        "cp_wait_ms": cp.throttle_wait_us / 1_000.0,
        "cp_ops": cp.ops_admitted,
        "mr_bytes": cp.mr_registered_bytes,
    }


def run_churn_point(scenario: str, day_us: float = 2_000_000.0,
                    base_rps: float = 400.0, peak_rps: float = 2_400.0,
                    state_kb: int = 64,
                    ops_per_sec: Optional[float] = None,
                    max_instances: Optional[int] = None) -> Dict[str, float]:
    """One churn scenario under the diurnal trace; returns its metrics."""
    schedule = diurnal_schedule(day_us, base_rps, peak_rps)
    warmup_us = 50_000.0
    arrival_times = _arrivals(schedule, warmup_us, cap=max_instances)
    return _run_world(scenario, arrival_times, state_kb * 1024,
                      _scenario_prewarm(scenario), ops_per_sec, warmup_us)


def run_ceiling_point(multiplier: float, ops_per_sec: float = 400.0,
                      duration_us: float = 1_000_000.0,
                      state_kb: int = 64) -> Dict[str, float]:
    """Cold churn at a constant rate against a verbs-ops ceiling.

    ``multiplier`` scales the offered spin-up rate relative to the
    ceiling's service capacity (one cold spin-up = 4 verbs commands
    for the handshake + 1 MR registration, so capacity is
    ``ops_per_sec / 5`` spin-ups per second).
    """
    capacity_per_s = ops_per_sec / 5.0
    offered_per_s = capacity_per_s * multiplier
    schedule = RateSchedule([(0.0, offered_per_s),
                             (duration_us, offered_per_s)])
    warmup_us = 10_000.0
    arrival_times = _arrivals(schedule, warmup_us)
    point = _run_world(f"ceiling@{multiplier:g}x", arrival_times,
                       state_kb * 1024, None, ops_per_sec, warmup_us)
    point["ceiling_per_s"] = capacity_per_s
    return point


@sweep
def run_ext_conn_churn(
    scenarios: Sequence[str] = SCENARIOS,
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    day_us: float = 2_000_000.0,
    base_rps: float = 400.0,
    peak_rps: float = 2_400.0,
    ops_per_sec: float = 400.0,
    state_kb: int = 64,
    max_instances: Optional[int] = None,
) -> Plan:
    """The connection-churn study: policy TTFBs + the ceiling knee."""
    calls = [(run_churn_point, (scenario,),
              dict(day_us=day_us, base_rps=base_rps, peak_rps=peak_rps,
                   state_kb=state_kb, max_instances=max_instances))
             for scenario in scenarios]
    calls += [(run_ceiling_point, (multiplier,),
               dict(ops_per_sec=ops_per_sec, state_kb=state_kb))
              for multiplier in multipliers]
    points = yield calls
    result = ExperimentResult(
        name="ext_conn_churn (control-plane churn: TTFB by policy + "
             "ops-ceiling knee)",
        columns=["scenario", "instances", "offered_per_s",
                 "completed_per_s", "ttfb_p50_us", "ttfb_p95_us",
                 "ttfb_mean_us", "setups", "pooled_qps", "prewarm_ms",
                 "cp_wait_ms"],
    )
    for point in points:
        result.add_row(
            point["scenario"], point["instances"],
            point["offered_per_s"], point["completed_per_s"],
            point["ttfb_p50_us"], point["ttfb_p95_us"],
            point["ttfb_mean_us"], point["setups"], point["pooled_qps"],
            point["prewarm_ms"], point["cp_wait_ms"],
        )
    by_scenario = {p["scenario"]: p for p in points}
    if {"cold", "warm-fixed", "shared"} <= set(by_scenario):
        cold = by_scenario["cold"]["ttfb_p50_us"]
        warm = by_scenario["warm-fixed"]["ttfb_p50_us"]
        shared = by_scenario["shared"]["ttfb_p50_us"]
        result.note(
            f"TTFB p50: cold {cold:,.1f}us > warm {warm:,.2f}us > "
            f"shared {shared:,.2f}us "
            f"({'ordering holds' if cold > warm > shared else 'ORDERING VIOLATED'})")
    knees = [p for p in points if str(p["scenario"]).startswith("ceiling@")]
    if knees:
        cap = knees[0].get("ceiling_per_s", 0.0)
        result.note(
            "ops ceiling {:.0f}/s (= {:.0f} spin-ups/s): completions {} "
            "as offered crosses the knee".format(
                ops_per_sec, cap,
                " -> ".join(f"{p['completed_per_s']:.0f}/s"
                            for p in knees)))
    return result
