"""Extension — gateway-tier scale-out under O(10^6) modeled clients.

Not a figure from the paper: this experiment drives the hierarchical
ingress tier (:mod:`repro.ingress.tier`) with the flow-aggregate
workload frontend (:mod:`repro.workloads.aggregate`).  Client
populations are modeled as aggregate streams — client classes with an
arrival rate, payload mix, tenant, and Zipf popularity skew — rather
than per-client simulation objects, so a single host sweeps a million
modeled clients per point in about 0.4 s of CPU (2.0 s for the
five-point sweep on a shared 2-vCPU VM).

The sweep grows the L1 spray layer from 1 to 16 Palladium gateways
under a fixed 2 M rps offered load (1 M clients at 2 rps across three
client classes).  Two effects compound as gateways are added:

* **fast-path capacity** grows linearly (each DPU serves hot flows at
  ``fastpath_rps``), and
* **flow-table coverage** grows with the aggregate table capacity, so
  the hot-path hit ratio climbs and the expensive slow-path punt rate
  collapses.

At the largest point the run also fail-stops one gateway mid-sweep:
the consistent-hash ring re-sprays only the dead gateway's flows, its
flow-table entries are shipped to the successors (misses during the
sync window pay the cold-punt cost, they never error), and any
backlog is redirected.  The conservation ledger is exact integers —
``admitted == completed + rejected`` after drain, so ``lost`` is
structurally observable (and must be 0).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import CostModel
from ..workloads import ClientClass, FlowAggregateModel

from .parallel import Plan, sweep
from .runner import ExperimentResult

__all__ = ["gateway_scale_classes", "run_gateway_scale_point",
           "run_ext_gateway_scale", "GATEWAY_COUNTS"]

#: the evaluated spray-layer widths
GATEWAY_COUNTS = (1, 2, 4, 8, 16)

#: fraction of the run spent warming the flow tables before measuring
WARMUP_FRAC = 0.625


def gateway_scale_classes(scale: float = 1.0) -> list:
    """The three-class client mix (1 M clients at ``scale=1``).

    web/mobile/iot at 600k/300k/100k clients, 2 rps each — 2 M rps
    offered in total.  ``scale`` shrinks every class proportionally
    (used by the quick/CI variants); rates per client are unchanged.
    """
    def n(clients: int) -> int:
        return max(1, int(clients * scale))

    return [
        ClientClass("web", "tenant-a", clients=n(600_000),
                    rps_per_client=2.0, body_bytes=512, zipf_s=0.8),
        ClientClass("mobile", "tenant-b", clients=n(300_000),
                    rps_per_client=2.0, body_bytes=256, zipf_s=0.8),
        ClientClass("iot", "tenant-c", clients=n(100_000),
                    rps_per_client=2.0, body_bytes=64, zipf_s=0.8),
    ]


def run_gateway_scale_point(
    gateways: int,
    *,
    scale: float = 1.0,
    duration_us: float = 400_000.0,
    warmup_us: Optional[float] = None,
    crash: bool = False,
    crash_post_us: float = 150_000.0,
    table_capacity: int = 131_072,
    tenant_quota: Optional[int] = None,
    classes: Optional[Sequence[ClientClass]] = None,
    cost: Optional[CostModel] = None,
) -> Dict[str, object]:
    """One sweep point; optionally fail-stop a gateway at the end.

    Timeline: the tier runs ``duration_us`` with goodput/p99 measured
    over ``[warmup_us, duration_us]`` (flow tables warm during the
    warmup).  With ``crash=True`` (requires >= 2 gateways) one
    mid-ring gateway fail-stops at ``duration_us`` and the run
    continues ``crash_post_us`` more; the post window starts 30 ms
    after the crash so it measures the re-sprayed steady state, and
    the blip window covers the 30 ms right after the crash.
    """
    cost = cost or CostModel()
    model = FlowAggregateModel(
        classes if classes is not None else gateway_scale_classes(scale),
        gateways,
        table_capacity=table_capacity,
        tenant_quota=tenant_quota,
        hot_us=cost.tier_fastpath_us,
        cold_us=cost.tier_slowpath_us,
        sync_us=cost.tier_flow_sync_us,
    )
    if crash and gateways < 2:
        raise ValueError("crash point needs at least 2 gateways")
    if warmup_us is None:
        warmup_us = WARMUP_FRAC * duration_us

    model.run(duration_us, drain=not crash)
    metrics: Dict[str, object] = {
        "gateways": gateways,
        "clients": model.modeled_clients,
        "offered_rps": model.offered_rps,
        "goodput_rps": model.goodput_rps(warmup_us, duration_us),
        "p99_us": model.percentile(99.0, warmup_us, duration_us),
        "hot_ratio": model.hot_ratio(),
        "crashed": 0,
        "post_rps": 0.0,
        "blip_p99_us": 0.0,
        "flows_synced": 0,
    }

    if crash:
        victim = f"gw{gateways // 2}"
        end = duration_us + crash_post_us
        model.run(crash_post_us,
                  events=[(duration_us, "crash", victim)], drain=True)
        metrics["crashed"] = 1
        metrics["post_rps"] = model.goodput_rps(duration_us + 30_000.0, end)
        metrics["blip_p99_us"] = model.percentile(
            99.0, duration_us, duration_us + 30_000.0)
        metrics["flows_synced"] = model.flows_synced

    # Ledger totals (exact integers; lost must be 0 — drained runs
    # have no inflight, so admitted fully decomposes).
    # Fluid sections process zero kernel events; benches report model
    # epochs instead so their throughput is still attributable.
    metrics["epochs"] = model.epochs
    metrics["admitted"] = model.admitted
    metrics["completed"] = model.completed
    metrics["rejected"] = model.rejected
    metrics["redirected"] = model.redirected
    metrics["lost"] = (model.admitted - model.completed
                       - model.rejected - model.inflight())
    metrics["conserved"] = model.conserved()
    return metrics


@sweep
def run_ext_gateway_scale(
    gateway_counts: Sequence[int] = GATEWAY_COUNTS,
    *,
    scale: float = 1.0,
    duration_us: float = 400_000.0,
    crash_post_us: float = 150_000.0,
    table_capacity: int = 131_072,
) -> Plan:
    """Aggregate goodput and p99 vs gateway count, crash at the top.

    Every row is an independent run; the largest gateway count also
    takes the mid-sweep fail-stop so the failover path is exercised
    at full scale.  Rows merge deterministically for any ``REPRO_JOBS``.
    """
    counts = tuple(gateway_counts)
    if not counts:
        raise ValueError("need at least one gateway count")
    crash_n = max(counts)
    points = yield [(run_gateway_scale_point, (n,),
                     dict(scale=scale, duration_us=duration_us,
                          crash=(n == crash_n and n >= 2),
                          crash_post_us=crash_post_us,
                          table_capacity=table_capacity))
                    for n in counts]
    result = ExperimentResult(
        "EXT - gateway-tier scale-out (flow-aggregate clients)",
        columns=["gateways", "clients", "goodput_rps", "p99_us",
                 "hot_pct", "rejected", "crashed", "post_rps",
                 "blip_p99_us", "flows_synced", "lost"],
    )
    for m in points:
        result.add_row(
            int(m["gateways"]), int(m["clients"]),
            round(m["goodput_rps"]), round(m["p99_us"], 1),
            round(100.0 * m["hot_ratio"], 1), int(m["rejected"]),
            int(m["crashed"]), round(m["post_rps"]),
            round(m["blip_p99_us"], 1), int(m["flows_synced"]),
            int(m["lost"]))
    result.note(
        "goodput scales with the spray width as DPU fast-path capacity "
        "and flow-table coverage both grow; the largest point "
        "fail-stops one gateway mid-run — the ring re-sprays only its "
        "flows, synced table entries punt cold during the sync window, "
        "and the exact ledger shows lost == 0"
    )
    return result
