"""Fig. 11 — Off-path DNE (cross-processor shm) vs on-path DNE (§4.1.1).

An echo server/client function pair on different nodes, driven in a
closed loop.  The off-path engine lets the RNIC DMA straight into host
memory; the on-path engine stages every payload through DPU-local
memory via the weak SoC DMA engine.

Paper anchors: off-path achieves up to 30 % more RPS and >20 % lower
latency; the two are close at low concurrency and diverge as the SoC
DMA engine saturates.
"""

from __future__ import annotations

from typing import Optional

from ..baselines import build_dne, build_dne_onpath
from ..config import CostModel, SEC
from ..platform import ServerlessPlatform, Tenant
from ..sim import Environment
from ..workloads import DirectDriver, deploy_echo_pair

from .parallel import Plan, sweep
from .runner import ExperimentResult, after

__all__ = ["run_fig11", "run_echo_point"]

MODES = {"off-path": build_dne, "on-path": build_dne_onpath}


def run_echo_point(
    mode: str,
    payload_bytes: int,
    concurrency: int,
    duration_us: float = 100_000.0,
    warmup_us: float = 40_000.0,
    cost: Optional[CostModel] = None,
):
    """One Fig. 11 cell; returns ``(rps, mean_latency_us)``."""
    cost = cost or CostModel()
    env = Environment()
    plat = ServerlessPlatform(env, cost=cost, engine_builder=MODES[mode])
    client, server_name = deploy_echo_pair(
        plat, buffer_bytes=max(8192, 2 * payload_bytes)
    )
    plat.start()
    drivers = [
        DirectDriver(env, client, server_name, payload="x", size=payload_bytes,
                     name=f"drv{i}")
        for i in range(concurrency)
    ]

    def start_drivers():
        for driver in drivers:
            env.process(driver.run(), name=driver.name)

    after(env, warmup_us, start_drivers)
    env.run(until=warmup_us + duration_us)
    completed = sum(d.completed for d in drivers)
    samples = [s for d in drivers for s in d.latency.samples]
    mean_latency = sum(samples) / len(samples) if samples else 0.0
    return completed / (duration_us / 1e6), mean_latency


@sweep
def run_fig11(
    payload_sizes=(64, 512, 1024, 4096, 16384),
    concurrencies=(1, 4, 8, 16, 32, 64),
    duration_us: float = 100_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Reproduce both Fig. 11 panels.

    Panel (1): RPS vs payload size on a single connection.
    Panel (2): RPS vs concurrency at 1 KB payloads.
    """
    cost = cost or CostModel()
    grid = [("payload", mode, size, size, 1)
            for mode in MODES for size in payload_sizes]
    grid += [("concurrency", mode, conc, 1024, conc)
             for mode in MODES for conc in concurrencies]
    points = yield [(run_echo_point, (mode, size, conc, duration_us),
                     {"cost": cost}) for _, mode, _, size, conc in grid]
    result = ExperimentResult(
        "Fig 11 - off-path vs on-path DNE",
        columns=["panel", "mode", "x", "rps", "mean_latency_us"],
    )
    for (panel, mode, x, _, _), (rps, lat) in zip(grid, points):
        result.add_row(panel, mode, x, round(rps), round(lat, 1))
    result.note(
        "paper: off-path up to 30% higher RPS, >20% lower latency; "
        "gap grows with concurrency as the SoC DMA engine saturates"
    )
    return result
