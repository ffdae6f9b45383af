"""Fig. 14 — Horizontal scaling of the cluster ingress (§4.1.3).

Load ramps up: a new client joins every 10 (paper-)seconds, each client
saturating its connections (wrk pinned to a core with multiple
connections).  Compared designs:

* **Palladium** ingress with the hysteresis autoscaler (spawn >60 %,
  reap <30 % mean useful utilization; scale events briefly interrupt
  service — the dips of Fig. 14 (2));
* **F-Ingress** with the same autoscaler adapted to it;
* **K-Ingress**, interrupt-driven: takes cores as load arrives until
  the node is saturated, then collapses and sheds clients.

The paper's multi-minute experiment is compressed two ways, neither of
which changes the scaling dynamics:

* ``time_scale`` compresses the schedule (ramp interval, autoscaler
  period, scale-event pause, sampling period) uniformly;
* ``cost_scale`` inflates per-message processing costs so the absolute
  request rate — and hence the event count — shrinks while per-core
  utilization, the autoscaler's input, is unchanged.

Outputs time series of ingress CPU cores in use and RPS, indexed by
*paper* seconds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..config import CostModel, SEC
from ..platform import ServerlessPlatform
from ..sim import Environment, TimeSeries
from ..workloads import ClientFleet, ECHO_TENANT, deploy_http_echo

from .parallel import Plan, sweep
from .runner import ExperimentResult
from .wiring import wire_ingress

__all__ = ["run_fig14", "run_fig14_panels"]


def _cpu_series(env: Environment, pools, series: TimeSeries, period_us: float):
    """Sample ingress CPU usage (cores) across pools once per period."""
    prev = 0.0
    while True:
        yield env.timeout(period_us)
        busy = sum(pool.total_busy_time() for pool in pools)
        series.record(env.now, (busy - prev) / period_us)
        prev = busy


def run_fig14(
    kind: str = "palladium",
    steps: int = 10,
    step_paper_s: float = 10.0,
    time_scale: float = 0.05,
    cost_scale: float = 6.0,
    connections_per_client: int = 12,
    max_workers: int = 8,
    kernel_cores: int = 8,
    cost: Optional[CostModel] = None,
    timeout_paper_s: float = 0.5,
) -> ExperimentResult:
    """One ingress design under the ramp; returns CPU & RPS time series."""
    base = (cost or CostModel()).scaled(cost_scale)
    cost = replace(
        base,
        ingress_autoscale_period_us=base.ingress_autoscale_period_us * time_scale,
        ingress_scale_event_pause_us=base.ingress_scale_event_pause_us * time_scale,
    )
    step_us = step_paper_s * SEC * time_scale
    sample_us = 1 * SEC * time_scale
    env = Environment()
    plat = ServerlessPlatform(env, cost=cost)
    resolver = deploy_http_echo(plat)
    tenants = {ECHO_TENANT: 512}
    if kind == "k-ingress":
        ingress = wire_ingress(plat, kind, resolver, tenants,
                               cores=kernel_cores)
    else:
        ingress = wire_ingress(plat, kind, resolver, tenants, cores=1,
                               max_workers=max_workers)
    ingress.start()
    plat.start()
    fleet = ClientFleet(env, plat.cluster, ingress, path="/echo",
                        body_bytes=256, payload="x",
                        timeout_us=timeout_paper_s * SEC * time_scale,
                        stats_bucket_us=sample_us)
    cpu_series = TimeSeries("ingress-cores")
    pools = [plat.cluster.ingress_node.cpu]
    if getattr(ingress, "cpu", None) is not None:
        pools.append(ingress.cpu)  # K-Ingress private kernel cores
    env.process(
        _cpu_series(env, pools, cpu_series, sample_us),
        name="cpu-sampler",
    )

    warm_us = 30_000.0

    def ramp():
        yield env.timeout(warm_us)
        yield from fleet.ramp(step_us, clients_per_step=1,
                              connections_per_client=connections_per_client,
                              steps=steps)

    env.process(ramp(), name="ramp")
    horizon = warm_us + (steps + 1) * step_us
    env.run(until=horizon)

    result = ExperimentResult(
        f"Fig 14 - ingress horizontal scaling ({kind})",
        columns=["paper_s", "cpu_cores", "rps", "clients", "disconnected"],
    )
    rps_series = fleet.throughput.series()
    rps_by_tick = {int(t // sample_us): v * 1e6 for t, v in rps_series}
    for t, cores in cpu_series:
        tick = int(t // sample_us)
        paper_s = (t - warm_us) / time_scale / SEC
        clients_now = max(0, min(steps, int(paper_s // step_paper_s) + 1))
        result.add_row(
            round(paper_s, 1),
            round(cores, 2),
            round(rps_by_tick.get(tick - 1, 0.0)),
            clients_now,
            fleet.disconnected_count(),
        )
    result.add_series("cpu", list(cpu_series))
    result.add_series("rps", [(t, v * 1e6) for t, v in rps_series])
    scaler = ingress.pool.autoscaler if ingress.pool is not None else None
    if scaler is not None:
        result.add_series("workers", list(scaler.count_series))
        result.note(f"scale events: {scaler.scale_events}")
    result.note(f"disconnected clients: {fleet.disconnected_count()}")
    result.note(f"time_scale={time_scale}, cost_scale={cost_scale}")
    return result


@sweep
def run_fig14_panels(**kwargs) -> Plan:
    """Every ingress design under the same ramp, one point per design."""
    return (yield [(run_fig14, (kind,), kwargs)
                   for kind in ("palladium", "f-ingress", "k-ingress")])
