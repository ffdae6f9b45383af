"""Fig. 13 — Cluster ingress designs (§4.1.3).

An HTTP echo function on a worker node serves external clients relayed
by one of three one-core cluster ingresses:

* **K-Ingress** — NGINX on the kernel TCP/IP stack, proxying TCP to the
  worker (deferred conversion; worker terminates TCP again via F-stack);
* **F-Ingress** — the same proxy on DPDK F-stack;
* **Palladium** — HTTP/TCP terminated at the edge, payload converted to
  RDMA (early conversion; no protocol stack on the worker).

Paper anchors: Palladium up to 11.4x / 3.2x the RPS of K-Ingress /
F-Ingress, with far lower end-to-end latency (K-Ingress degrades up to
11.7x at high client counts).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import CostModel
from ..platform import ServerlessPlatform
from ..sim import Environment
from ..workloads import ClientFleet, deploy_http_echo, ECHO_TENANT

from .parallel import Plan, sweep
from .runner import ExperimentResult, after
from .wiring import wire_ingress

__all__ = ["run_fig13", "run_ingress_point", "INGRESS_KINDS"]

INGRESS_KINDS = ("k-ingress", "f-ingress", "palladium")


def run_ingress_point(
    kind: str,
    clients: int,
    duration_us: float = 200_000.0,
    warmup_us: float = 60_000.0,
    cost: Optional[CostModel] = None,
    body_bytes: int = 256,
    timeout_us: Optional[float] = 2_000_000.0,
) -> Tuple[float, float, int]:
    """One Fig. 13 cell; returns ``(rps, mean_latency_us, errors)``."""
    cost = cost or CostModel()
    env = Environment()
    plat = ServerlessPlatform(env, cost=cost)
    resolver = deploy_http_echo(plat)
    ingress = wire_ingress(plat, kind, resolver, {ECHO_TENANT: 512}, cores=1)
    ingress.start()
    plat.start()
    fleet = ClientFleet(env, plat.cluster, ingress, path="/echo",
                        body_bytes=body_bytes, payload="e" * 8,
                        timeout_us=timeout_us)
    after(env, warmup_us, lambda: fleet.spawn(clients))
    measure_from = warmup_us + duration_us * 0.25
    env.run(until=warmup_us + duration_us)
    rps = fleet.rps(measure_from, warmup_us + duration_us)
    return rps, fleet.mean_latency_us(), fleet.total_errors()


@sweep
def run_fig13(
    client_counts=(1, 4, 16, 32, 64),
    duration_us: float = 200_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Reproduce Fig. 13: latency and RPS per ingress vs client count."""
    cost = cost or CostModel()
    grid = [(kind, n) for kind in INGRESS_KINDS for n in client_counts]
    points = yield [(run_ingress_point, (kind, n, duration_us),
                     {"cost": cost}) for kind, n in grid]
    result = ExperimentResult(
        "Fig 13 - cluster ingress designs (1 core)",
        columns=["ingress", "clients", "rps", "mean_latency_us", "errors"],
    )
    for (kind, clients), (rps, latency, errors) in zip(grid, points):
        result.add_row(kind, clients, round(rps), round(latency, 1), errors)
    result.note(
        "paper: Palladium ingress up to 3.2x RPS of F-Ingress and "
        "11.4x of K-Ingress; K-Ingress latency degrades up to 11.7x"
    )
    return result
