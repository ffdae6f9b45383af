"""Extension — live migration downtime vs kill-and-cold-start.

Not a figure from the paper: this experiment exercises the migration
subsystem (:mod:`repro.migration`) end to end.  The Online Boutique
runs with ``currency`` — the /home chain's hottest leaf, invoked twice
per request — placed alone on worker1 (``ad`` keeps it company so node
drains move more than one function); everything else lives on worker0.
Mid-run, ``currency`` is relocated to worker0 under live closed-loop
/home traffic, either by **live migration** (checkpoint + image copy +
restore + atomic route flip; in-flight messages drained and
redelivered) or by the **kill-and-cold-start** baseline (tear down,
pay the container cold start, redeploy; in-flight requests die by
timeout).

Reported per point:

* ``downtime_ms`` — for migration, the instance's freeze-to-thaw
  blackout; for cold start, kill-to-first-request-served (TTFB).
* ``blip_p99_ms`` vs ``steady_p99_ms`` — client-observed p99 in the
  disruption window right after the relocation starts vs the steady
  window before it: the tail-latency blip.
* ``redirected`` — in-flight messages carried across the handover
  (checkpointed cargo + forwarded stragglers); always 0 for cold
  start, which simply loses them.

The migration rows sweep checkpoint state size: downtime grows with
the image (DMA + fabric copy + MTT registration) but stays well under
the cold start even at tens of MB — the Swift argument that elasticity
events should pay data-movement costs, not connection/runtime-setup
costs.  A final row drives a :meth:`FaultPlan.node_drain` through the
fault injector: worker1 gracefully drains (both functions live-migrate
off) and withdraws, with goodput intact.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import CostModel
from ..faults import FaultInjector, FaultPlan
from ..migration import kill_and_cold_start
from ..sim import Environment, LatencyStats
from ..workloads import ClientFleet, boutique_specs, path_payload

from .parallel import Plan, sweep
from .runner import ExperimentResult, after
from .wiring import build_boutique

__all__ = [
    "run_migration_point",
    "run_drain_point",
    "run_ext_migration",
    "MIGRATION_STATE_KBS",
]

#: checkpoint image sizes swept by the full experiment (KB)
MIGRATION_STATE_KBS = (64, 1024, 16_384)

#: functions placed on worker1 (the node drained / migrated from)
MOVABLE = ("currency", "ad")


def _place(plat) -> None:
    """Boutique singletons: everything on worker0 except ``MOVABLE``."""
    for spec in boutique_specs():
        plat.deploy(spec, "worker1" if spec.name in MOVABLE else "worker0")


def _window_p99(fleet: ClientFleet, marks: Dict[str, List[int]],
                start: str, end: str) -> float:
    """p99 over the latency samples completed between two index marks."""
    lo, hi = marks.get(start), marks.get(end)
    if lo is None or hi is None:
        return 0.0
    window = LatencyStats()
    window.samples = [s for client, i0, i1 in zip(fleet.clients, lo, hi)
                      for s in client.latency.samples[i0:i1]]
    return window.percentile(99)


def run_migration_point(
    state_kb: int,
    mode: str = "migrate",
    config: str = "palladium-dne",
    clients: int = 8,
    warmup_us: float = 40_000.0,
    move_at_us: float = 120_000.0,
    disruption_us: float = 60_000.0,
    post_us: float = 120_000.0,
    invoke_timeout_us: float = 15_000.0,
    client_timeout_us: float = 30_000.0,
    cost: Optional[CostModel] = None,
) -> Dict[str, float]:
    """One relocation of ``currency`` worker1 -> worker0 under traffic.

    ``mode`` is ``"migrate"`` (live migration, checkpoint image of
    ``state_kb`` KB) or ``"cold"`` (kill-and-cold-start; ``state_kb``
    is ignored — nothing is checkpointed).  Returns downtime and the
    steady/disruption-window client p99s.
    """
    if mode not in ("migrate", "cold"):
        raise ValueError(f"unknown relocation mode {mode!r}")
    cost = cost or CostModel()
    env = Environment()
    plat, ingress = build_boutique(config, env, cost, _place,
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

    # Per-client completed-sample counts at window boundaries, so the
    # steady and disruption windows see disjoint latency samples.
    marks: Dict[str, List[int]] = {}

    def marker(label: str, at_us: float):
        def proc():
            if at_us > env.now:
                yield env.timeout(at_us - env.now)
            marks[label] = [len(c.latency.samples) for c in fleet.clients]
        env.process(proc(), name=f"mark:{label}")

    # Cold start keeps the function dark for cost.cold_start_us, so its
    # disruption window (and the run itself) stretch to cover it.
    extra_us = cost.cold_start_us if mode == "cold" else 0.0
    marker("steady", warmup_us + 20_000.0)
    marker("move", move_at_us)
    marker("blip-end", move_at_us + disruption_us + extra_us)

    outcome: Dict[str, float] = {"downtime_us": -1.0, "bytes_copied": 0.0,
                                 "redirected": 0.0}

    def relocate():
        yield env.timeout(move_at_us)
        if mode == "migrate":
            record = yield from plat.migrate_function(
                "currency", "worker0", state_bytes=state_kb * 1024)
            outcome["downtime_us"] = record.downtime_us
            outcome["bytes_copied"] = float(record.bytes_copied)
            outcome["record"] = record
        else:
            t0 = env.now
            replacement = yield from kill_and_cold_start(
                plat, "currency", "worker0")
            # TTFB: cold start plus however long until the replacement
            # actually serves a request (clients must time out first).
            while replacement.handled == 0:
                yield env.timeout(200.0)
            outcome["downtime_us"] = env.now - t0

    env.process(relocate(), name="relocate")
    env.run(until=move_at_us + disruption_us + extra_us + post_us)

    record = outcome.pop("record", None)
    if record is not None:
        # the forwarder keeps counting stragglers after migrate() returns
        outcome["redirected"] = float(record.messages_redirected)
    steady_p99 = _window_p99(fleet, marks, "steady", "move")
    blip_p99 = _window_p99(fleet, marks, "move", "blip-end")
    completed = fleet.total_completed()
    errors = fleet.total_errors()
    return {
        **outcome,
        "steady_p99_us": steady_p99,
        "blip_p99_us": blip_p99,
        "blip_ratio": blip_p99 / steady_p99 if steady_p99 else 0.0,
        "steady_rps": fleet.rps(warmup_us + 20_000.0, move_at_us),
        "post_rps": fleet.rps(move_at_us + disruption_us + extra_us,
                              move_at_us + disruption_us + extra_us
                              + post_us),
        "client_errors": float(errors),
        "completed": float(completed),
    }


def run_drain_point(
    config: str = "palladium-dne",
    state_kb: int = 64,
    clients: int = 8,
    warmup_us: float = 40_000.0,
    drain_at_us: float = 120_000.0,
    deadline_us: Optional[float] = 200_000.0,
    post_us: float = 150_000.0,
    invoke_timeout_us: float = 15_000.0,
    client_timeout_us: float = 30_000.0,
    cost: Optional[CostModel] = None,
) -> Dict[str, float]:
    """Graceful worker1 drain via the fault plan, under live traffic.

    Both movable functions live-migrate to worker0, then the node
    withdraws.  Returns the drain duration, how many functions moved
    (vs fell back to crash semantics on deadline expiry), and goodput
    before/after.
    """
    cost = cost or CostModel()
    env = Environment()
    plat, ingress = build_boutique(config, env, cost, _place,
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

    plan = FaultPlan().node_drain(drain_at_us, "worker1",
                                  deadline_us=deadline_us,
                                  state_bytes=state_kb * 1024)
    injector = FaultInjector(env, plat, plan)
    injector.start()

    end = drain_at_us + post_us
    env.run(until=end)

    drained = [e for e in plat.coordinator.events if e[0] == "node-drained"]
    expired = [e for e in plat.coordinator.events
               if e[0] == "node-drain-expired"]
    migrated = len(drained[0][2]) if drained else 0
    drain_ms = -1.0
    if drained:
        records = plat.migrator.records
        if records:
            drain_ms = (max(r.t_thaw_us for r in records if r.ok)
                        - drain_at_us) / 1000.0
    return {
        "migrated": float(migrated),
        "expired": float(len(expired)),
        "withdrawn": float(len(plat.withdrawn_nodes)),
        "drain_ms": drain_ms,
        "pre_rps": fleet.rps(warmup_us + 20_000.0, drain_at_us),
        "post_rps": fleet.rps(drain_at_us + 40_000.0, end),
        "client_errors": float(fleet.total_errors()),
    }


@sweep
def run_ext_migration(
    state_kbs=MIGRATION_STATE_KBS,
    config: str = "palladium-dne",
    clients: int = 8,
    cost: Optional[CostModel] = None,
    **point_kwargs,
) -> Plan:
    """Migration downtime/blip vs state size, against kill-and-cold-start."""
    state_kbs = tuple(state_kbs)
    shared = dict(config=config, clients=clients, cost=cost)
    moves = [(kb, "migrate") for kb in state_kbs] + [(state_kbs[0], "cold")]
    calls = [(run_migration_point, move, {**shared, **point_kwargs})
             for move in moves]
    calls.append((run_drain_point, (), {**shared, "state_kb": state_kbs[0]}))
    *points, drain = yield calls
    result = ExperimentResult(
        "EXT - live migration vs kill-and-cold-start (currency moves)",
        columns=["mode", "state_kb", "downtime_ms", "steady_p99_ms",
                 "blip_p99_ms", "blip_ratio", "redirected",
                 "client_errors", "post_rps"],
    )
    labels = [("migrate", kb) for kb in state_kbs] + [("cold", "-")]
    for (mode, kb), m in zip(labels, points):
        result.add_row(mode, kb, round(m["downtime_us"] / 1000.0, 3),
                       round(m["steady_p99_us"] / 1000.0, 2),
                       round(m["blip_p99_us"] / 1000.0, 2),
                       round(m["blip_ratio"], 2),
                       int(m["redirected"]), int(m["client_errors"]),
                       round(m["post_rps"]))
    result.add_row("drain", state_kbs[0], round(drain["drain_ms"], 3),
                   "-", "-", "-", int(drain["migrated"]),
                   int(drain["client_errors"]), round(drain["post_rps"]))
    result.note(
        "live migration's freeze-to-thaw downtime must stay strictly "
        "below the kill-and-cold-start TTFB at every state size; the "
        "drain row gracefully empties worker1 (migrated == number of "
        "functions placed there) with goodput intact"
    )
    return result
