"""Extension ablations for design choices DESIGN.md calls out.

Beyond the paper's own figures, three of its design arguments are
directly measurable in this reproduction:

* **Sidecar placement** (§3.1): the classic container sidecar costs
  "as high as 30 %" vs Palladium's consolidated/eBPF sidecars.
* **Placement sensitivity** (§2): RDMA-based zero-copy makes
  locality-aware placement much less critical than for kernel-stack
  data planes — the motivation for scaling shared-memory processing
  across nodes.
* **Multi-instance ingress** (§4.1.3): load balancing across several
  Palladium ingress instances hides the scale-event service dips of
  Fig. 14 (2).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import CostModel
from ..ingress import IngressLoadBalancer
from ..platform import ServerlessPlatform
from ..sim import Environment
from ..workloads import ClientFleet, ECHO_TENANT, deploy_http_echo

from .fig16_boutique import run_boutique_point
from .parallel import Plan, sweep
from .runner import ExperimentResult, after
from .wiring import wire_ingress

__all__ = ["run_sidecar_ablation", "run_placement_ablation", "run_multi_ingress"]


@sweep
def run_sidecar_ablation(
    clients: int = 40,
    duration_us: float = 120_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Sidecar variants on the Palladium data plane (§3.1)."""
    cost = cost or CostModel()
    variants = {
        "container-sidecar": cost.container_sidecar_us,
        "ebpf-sidecar": cost.ebpf_sidecar_us,
        "shared-sidecar": cost.shared_sidecar_us,
    }
    points = yield [(run_boutique_point,
                     ("palladium-dne", "Home Query", clients, duration_us),
                     {"cost": cost, "sidecar_us": per_hop})
                    for per_hop in variants.values()]
    result = ExperimentResult(
        "Ablation - service mesh sidecar",
        columns=["sidecar", "per_hop_us", "rps", "latency_ms"],
    )
    for (name, per_hop), m in zip(variants.items(), points):
        result.add_row(name, per_hop, round(m["rps"]),
                       round(m["latency_ms"], 2))
    result.note("paper (§3.1): container sidecar overhead 'as high as 30%'")
    return result


@sweep
def run_placement_ablation(
    clients: int = 40,
    duration_us: float = 120_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Placement sensitivity: Palladium vs a kernel-stack data plane.

    The interesting number is each data plane's *own* degradation from
    best (co-located hotspots) to worst (everything remote): RDMA keeps
    the penalty small, which is why Palladium can skip locality-aware
    placement (§2).
    """
    cost = cost or CostModel()
    grid = [(plane, config, name, single)
            for plane, config in (("palladium", "palladium-dne"),
                                  ("spright", "spright"))
            for name, single in (("co-located", True), ("split", False))]
    points = yield [(run_boutique_point,
                     (config, "Home Query", clients, duration_us),
                     {"cost": cost, "single_node": single})
                    for _, config, _, single in grid]
    result = ExperimentResult(
        "Ablation - placement sensitivity",
        columns=["data_plane", "placement", "rps", "latency_ms"],
    )
    lat: Dict[Tuple[str, str], float] = {}
    for (plane, _, name, _), m in zip(grid, points):
        lat[plane, name] = m["latency_ms"]
        result.add_row(plane, name, round(m["rps"]),
                       round(m["latency_ms"], 2))
    degradation = {plane: lat[plane, "split"]
                   / max(1e-9, lat[plane, "co-located"])
                   for plane in ("palladium", "spright")}
    result.note(
        f"latency hit co-located->split: palladium "
        f"{degradation['palladium']:.2f}x, spright {degradation['spright']:.2f}x "
        f"(RDMA makes placement far less critical, §2)"
    )
    return result


def _multi_ingress_point(n: int, clients: int, duration_us: float,
                         cost: CostModel) -> Tuple[float, float, int]:
    """One balancer width; returns ``(rps, worst_gap_ms, completed)``."""
    env = Environment()
    plat = ServerlessPlatform(env, cost=cost)
    resolver = deploy_http_echo(plat)
    gateways = [wire_ingress(plat, "palladium", resolver,
                             {ECHO_TENANT: 512}, cores=2)
                for _ in range(n)]
    balancer = IngressLoadBalancer(gateways)
    balancer.start()
    plat.start()
    fleet = ClientFleet(env, plat.cluster, balancer, path="/echo",
                        body_bytes=128, payload="x",
                        stats_bucket_us=5_000.0)

    def restart_events():
        # force a staggered scale-event pause on every instance
        yield env.timeout(150_000)
        for gw in gateways:
            for worker in gw.pool.workers:
                worker.pause(cost.ingress_scale_event_pause_us / 10)
            yield env.timeout(50_000)

    after(env, 60_000, lambda: fleet.spawn(clients))
    env.process(restart_events())
    env.run(until=60_000 + duration_us)
    rps = fleet.rps(100_000, env.now)
    # Worst service interruption: longest run of empty throughput
    # buckets inside the restart window.
    bucket = fleet.throughput.bucket
    busy = {int(t // bucket) for t, rate in fleet.throughput.series() if rate}
    longest = current = 0
    for idx in range(int(150_000 // bucket),
                     int((60_000 + duration_us) // bucket)):
        current = 0 if idx in busy else current + 1
        longest = max(longest, current)
    return rps, longest * bucket / 1000.0, fleet.total_completed()


@sweep
def run_multi_ingress(
    instances: int = 2,
    clients: int = 24,
    duration_us: float = 300_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Scale-event dips with 1 vs N load-balanced ingress instances.

    Each instance is forced through a worker-process restart mid-run;
    with a single instance the whole service pauses, with a balancer
    only the restarting instance's connections stall.
    """
    cost = cost or CostModel()
    widths = (1, instances)
    points = yield [(_multi_ingress_point, (n, clients, duration_us, cost), {})
                    for n in widths]
    result = ExperimentResult(
        "Extension - multi-instance ingress load balancing",
        columns=["instances", "rps", "worst_gap_ms", "completed"],
    )
    for n, (rps, worst_gap_ms, completed) in zip(widths, points):
        result.add_row(n, round(rps), round(worst_gap_ms, 1), completed)
    result.note("paper (§4.1.3): scale-event interruption 'can be avoided by "
                "load balancing across multiple Palladium ingress instances'")
    return result
