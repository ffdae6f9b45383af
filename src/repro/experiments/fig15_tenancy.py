"""Fig. 15 — Multi-tenant RDMA bandwidth sharing at the DNE (§4.2).

Three tenants (weights 6 : 1 : 2), each an echo client/server pair
across the two workers, contend for a DNE configured to sustain about
110 K RPS on its single DPU core.  Palladium's DWRR scheduler is
compared against an FCFS DNE with no tenancy awareness.

Paper anchors: with DWRR, when Tenant-2 joins, Tenant-1 drops from
115 K to 90 K while Tenant-2 gets 15 K (exactly 6:1); with Tenant-3
active the split becomes 65/11/22 K (6:1:2).  Under FCFS the bursty
tenants starve Tenant-1.

The paper's four-minute trace is compressed by ``time_scale`` (default
1/120, i.e. a two-second simulation) — pure clock compression; rates
are unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..baselines import build_dne, build_dne_fcfs
from ..config import CostModel, SEC
from ..platform import ServerlessPlatform, Tenant
from ..sim import Environment
from ..workloads import DirectDriver, TenantTrace, deploy_echo_pair, fig15_traces

from .parallel import Plan, sweep
from .runner import ExperimentResult

__all__ = ["run_fig15", "run_tenancy"]

SCHEDULERS = {"dwrr": build_dne, "fcfs": build_dne_fcfs}

#: scales the DNE's per-message costs so one DPU core saturates at
#: roughly the paper's configured 110 K RPS
DNE_THROTTLE = 2.36


def _throttled(cost: CostModel) -> CostModel:
    """The paper 'configures the DNE to sustain ~110K RPS' (§4.2)."""
    return replace(
        cost,
        dne_tx_proc_us=cost.dne_tx_proc_us * DNE_THROTTLE,
        dne_rx_proc_us=cost.dne_rx_proc_us * DNE_THROTTLE,
        comch_e_cpu_us=cost.comch_e_cpu_us * DNE_THROTTLE,
    )


def run_tenancy(
    scheduler: str = "dwrr",
    time_scale: float = 1.0 / 120.0,
    traces: Optional[List[TenantTrace]] = None,
    cost: Optional[CostModel] = None,
    bucket_us: Optional[float] = None,
    concurrency_scale: Dict[str, int] = None,
) -> ExperimentResult:
    """Run the three-tenant contention trace under one scheduler."""
    cost = _throttled(cost or CostModel())
    traces = traces or fig15_traces()
    # Bursty tenants offer more load than their fair share (that is
    # what lets FCFS starve Tenant-1).
    concurrency = concurrency_scale or {
        "tenant-1": 48, "tenant-2": 64, "tenant-3": 96,
    }
    env = Environment()
    plat = ServerlessPlatform(env, cost=cost,
                              engine_builder=SCHEDULERS[scheduler])
    total_us = 240 * SEC * time_scale
    bucket = bucket_us or max(10_000.0, total_us / 48)
    clients = {}
    for idx, trace in enumerate(traces):
        plat.add_tenant(Tenant(trace.tenant, weight=trace.weight,
                               pool_buffers=1024))
        client, server = deploy_echo_pair(
            plat, tenant=trace.tenant, weight=trace.weight, suffix=f"-{idx}"
        )
        clients[trace.tenant] = (client, server)
    for engine in plat.engines.values():
        engine.stats.bucket_us = bucket
    plat.start()

    warm = 30_000.0

    def driver_proc(trace: TenantTrace, index: int, client, server):
        while True:
            now = (env.now - warm) / time_scale
            if now < 0 or index >= trace.drivers_at(now):
                yield env.timeout(bucket / 4)
                continue
            yield from client.invoke(server, "p", 256)

    for trace in traces:
        client, server = clients[trace.tenant]
        n = concurrency[trace.tenant]
        for i in range(n):
            env.process(driver_proc(trace, i, client, server),
                        name=f"{trace.tenant}-drv{i}")

    env.run(until=warm + total_us)

    engine0 = plat.engines["worker0"]
    result = ExperimentResult(
        f"Fig 15 - tenant bandwidth sharing ({scheduler})",
        columns=["paper_time_s", "tenant-1_rps", "tenant-2_rps", "tenant-3_rps"],
    )
    series = {
        t.tenant: dict(engine0.stats.tenant_meter(t.tenant).series())
        for t in traces
    }
    ticks = sorted({tick for s in series.values() for tick in s})
    for tick in ticks:
        paper_time = (tick - warm) / time_scale / SEC
        result.add_row(
            round(paper_time, 1),
            *(round(series[t.tenant].get(tick, 0.0) * 1e6)
              for t in traces),
        )
        result.series.setdefault("ticks", []).append(tick)
    result.note(f"scheduler={scheduler}, time_scale={time_scale:.5f}")
    return result


@sweep
def run_fig15(time_scale: float = 1.0 / 120.0,
              cost: Optional[CostModel] = None) -> Plan:
    """Both panels of Fig. 15: FCFS (1), then Palladium's DWRR (2)."""
    return (yield [(run_tenancy, (scheduler, time_scale), {"cost": cost})
                   for scheduler in ("fcfs", "dwrr")])
