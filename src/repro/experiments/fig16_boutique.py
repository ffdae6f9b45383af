"""Fig. 16 + Table 2 — Online Boutique across six data planes (§4.3).

The full system evaluation: the ten-function Online Boutique deployed
with the paper's placement (hotspots on worker0, the rest on worker1 —
except NightCore, which cannot cross nodes and runs everything on
worker0), driven by wrk-style closed-loop clients through each design's
cluster ingress.

The six configurations (:data:`CONFIGS`) are rows of
:data:`repro.baselines.DATA_PLANES`, whose docstring lists each one's
engine, ingress and worker adapter.

Paper anchors: Palladium-DNE 5.1-20.9x NightCore, 2.1-4.1x FUYAO-F,
2.4-4.1x SPRIGHT, and 1.3-1.8x CNE beyond 20 clients; Table 2 mean
latencies (e.g. Home Query @20/80 clients: 1.12/3.19 ms for DNE,
10.77/42.8 ms for NightCore).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import CostModel, SEC
from ..sim import Environment
from ..telemetry import Telemetry
from ..workloads import CHAIN_PATHS, ClientFleet, deploy_boutique, path_payload

from .parallel import Plan, sweep
from .runner import ExperimentResult, after
from .wiring import build_boutique

__all__ = ["run_fig16", "run_table2", "run_boutique_point", "CONFIGS", "EVAL_CHAINS"]

EVAL_CHAINS = ("Home Query", "View Cart", "Product Query")

#: the six evaluated data-plane configurations
CONFIGS = ("palladium-dne", "palladium-cne", "fuyao-f", "fuyao-k",
           "spright", "nightcore")


def run_boutique_point(
    config: str,
    chain: str,
    clients: int,
    duration_us: float = 250_000.0,
    warmup_us: float = 80_000.0,
    cost: Optional[CostModel] = None,
    with_telemetry: bool = False,
    sidecar_us: Optional[float] = None,
    single_node: Optional[bool] = None,
) -> Dict[str, float]:
    """One Fig. 16 / Table 2 cell.

    Returns rps, mean latency (ms), engine CPU% (both workers), worker
    adapter CPU%, and DPU core%.  With ``with_telemetry`` the run is
    instrumented (spans + metrics + cycle ledger) and the
    :class:`~repro.telemetry.Telemetry` bundle is attached under the
    extra ``"telemetry"`` key; telemetry never perturbs the simulation,
    so all other keys are identical either way.  ``sidecar_us``
    overrides the per-hop sidecar cost and ``single_node`` the
    placement (default: only NightCore runs on one node); the
    ablations set them.
    """
    cost = cost or CostModel()
    env = Environment()
    telemetry = Telemetry.install(env) if with_telemetry else None
    if single_node is None:
        single_node = config == "nightcore"
    plat, ingress = build_boutique(
        config, env, cost,
        lambda p: deploy_boutique(p, single_node=single_node),
        sidecar_us=sidecar_us)
    ingress.start()
    plat.start()
    path = CHAIN_PATHS[chain]
    fleet = ClientFleet(env, plat.cluster, ingress, path=path,
                        body_bytes=256, payload=path_payload(path),
                        timeout_us=5 * SEC)
    after(env, warmup_us, lambda: fleet.spawn(clients))
    measure_from = warmup_us + duration_us * 0.3
    baseline = {}
    env.defer(measure_from, lambda: baseline.update(plat.usage_snapshot()))
    env.run(until=warmup_us + duration_us)

    engine_pct = sum(
        e.engine_cpu_pct(measure_from, baseline.get(f"engine:{name}", 0.0))
        for name, e in plat.engines.items()
    )
    adapter_pct = 0.0
    for runtime in plat.runtimes.values():
        for pinned in runtime.node.cpu.pinned:
            if "tcpgw" in pinned.name:
                adapter_pct += 100.0
    metrics = {
        "rps": fleet.rps(measure_from, env.now),
        "latency_ms": fleet.mean_latency_us() / 1000.0,
        "engine_cpu_pct": engine_pct,
        "adapter_cpu_pct": adapter_pct,
        "dpu_pct": plat.dpu_cpu_pct(measure_from, baseline),
        "errors": fleet.total_errors(),
    }
    if telemetry is not None:
        metrics["telemetry"] = telemetry
    return metrics


@sweep
def run_fig16(
    chains=EVAL_CHAINS,
    client_counts=(20, 60, 80),
    configs=CONFIGS,
    duration_us: float = 250_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Reproduce Fig. 16: RPS + utilization per chain/config/clients."""
    cost = cost or CostModel()
    grid = [(chain, config, clients)
            for chain in chains
            for config in configs
            for clients in client_counts]
    points = yield [(run_boutique_point, (config, chain, clients, duration_us),
                     {"cost": cost}) for chain, config, clients in grid]
    result = ExperimentResult(
        "Fig 16 - Online Boutique",
        columns=["chain", "config", "clients", "rps", "latency_ms",
                 "engine_cpu_pct", "adapter_cpu_pct", "dpu_pct"],
    )
    for (chain, config, clients), m in zip(grid, points):
        result.add_row(chain, config, clients, round(m["rps"]),
                       round(m["latency_ms"], 2),
                       round(m["engine_cpu_pct"]),
                       round(m["adapter_cpu_pct"]),
                       round(m["dpu_pct"]))
    result.note(
        "paper: DNE 5.1-20.9x NightCore, 2.1-4.1x FUYAO-F, 2.4-4.1x "
        "SPRIGHT, 1.3-1.8x CNE (>20 clients); FUYAO engine CPU >500%"
    )
    return result


@sweep
def run_table2(
    client_counts=(20, 60, 80),
    configs=CONFIGS,
    chains=EVAL_CHAINS,
    duration_us: float = 250_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Table 2: mean latency (ms) per chain / config / client count."""
    cost = cost or CostModel()
    cells = [(chain, n) for chain in chains for n in client_counts]
    points = yield [(run_boutique_point, (config, chain, clients, duration_us),
                     {"cost": cost})
                    for config in configs for chain, clients in cells]
    result = ExperimentResult(
        "Table 2 - mean latency (ms) of Online Boutique chains",
        columns=["config"] + [f"{chain}@{n}" for chain, n in cells],
    )
    for i, config in enumerate(configs):
        row = points[i * len(cells):(i + 1) * len(cells)]
        result.add_row(config, *(round(m["latency_ms"], 2) for m in row))
    result.note("paper Table 2: e.g. Home@20/60/80 = DNE 1.12/2.55/3.19, "
                "CNE 1.43/4.39/5.62, NightCore 10.77/32.4/42.8 ms")
    return result
