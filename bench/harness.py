"""One benchmark repeat: run one workload in this fresh interpreter.

``run.py`` starts this file once per repeat::

    python3 bench/harness.py WORKLOAD --seed N --scale X [--trace-dir DIR]

and reads the JSON record it prints as the last line of stdout.

Everything is measured from outside the simulator.  The harness calls
the public experiment entry points and finds the simulated objects
they build (environments, client fleets, open-loop sources, fluid
models, echo benches, engines, RNICs, gates) by wrapping public
constructors and loop entry points for the length of the run.

Importing this module imports only the standard library, so the setup
clock can start before ``import repro``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import pstats
import random
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: the packages under ``src/repro``; ``experiments`` also takes the
#: top-level modules, ``baselines``, ``migration`` and this
#: benchmark's own files
LAYERS = ("sim", "rdma", "dne", "platform", "ingress", "qos", "telemetry",
          "workloads", "hw", "memory", "dataplane", "net", "faults",
          "experiments")
EXPERIMENTS_LAYER = "experiments"

#: end-to-end metrics: name -> (unit, better).  Host metrics are timed;
#: ``sim_*`` and ``error_rate`` are simulated outputs, fixed by code
#: and seed.
END_TO_END = {
    "host_us_per_request": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_goodput_rps": ("req/s", "higher"),
    "sim_latency_p50_us": ("us", "lower"),
    "sim_latency_p99_us": ("us", "lower"),
    "error_rate": ("fraction", "lower"),
}

#: per-layer metrics from the traced pass: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = ("fraction", "lower")
    PER_LAYER[f"{_layer}.self_us_per_request"] = ("us", "lower")
    PER_LAYER[f"{_layer}.calls_per_request"] = ("count", "lower")
PER_LAYER.update({
    "sim.events_per_request": ("count", "lower"),
    "sim.resumes_per_request": ("count", "lower"),
    "sim.events_per_host_s": ("1/s", "higher"),
    "dne.tx_messages_per_request": ("count", "lower"),
    "dne.drop_ratio": ("fraction", "lower"),
    "qos.admit_ratio": ("fraction", "higher"),
    "qos.sched_dropped": ("count", "lower"),
    "ingress.drop_ratio": ("fraction", "lower"),
    "rdma.flushed_cqes": ("count", "lower"),
    "rdma.qp_reconnects": ("count", "higher"),
    "workloads.client_reconnects": ("count", "lower"),
    "workloads.epochs_per_host_s": ("1/s", "higher"),
    "telemetry.spans_per_request": ("count", "lower"),
    "tracing.overhead_ratio": ("ratio", "lower"),
})


# -- collecting what a workload builds -------------------------------------

class Probe:
    """Wraps public constructors and loop entry points for one run.

    ``install`` patches the classes, ``uninstall`` restores them.
    With a non-zero ``seed`` every :class:`OpenLoopSource` gets its own
    ``random.Random``, which makes its arrivals Poisson.
    """

    def __init__(self, seed: int):
        self.seed = seed
        #: host clock at the first call into a simulation loop
        self.first_loop_at: Optional[float] = None
        #: simulated time the fluid models spent admitting arrivals
        self.fluid_arrival_us = 0.0
        self.envs: list = []
        self.fleets: list = []
        self.sources: list = []
        self.models: list = []
        self.benches: list = []
        self.engines: list = []
        self.rnics: list = []
        self.conn_mgrs: list = []
        self.gates: list = []
        self.gateway_stats: list = []
        self.telemetries: list = []
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> "Probe":
        from repro.dne.engine import NetworkEngine
        from repro.experiments import fig12_primitives
        from repro.ingress.gateway import GatewayStats
        from repro.qos.admission import AdmissionGate
        from repro.rdma.connection import ConnectionManager
        from repro.rdma.rnic import Rnic
        from repro.sim import Environment
        from repro.telemetry import Telemetry
        from repro.workloads import (ClientFleet, FlowAggregateModel,
                                     OpenLoopSource)

        for cls, into in ((Environment, self.envs),
                          (ClientFleet, self.fleets),
                          (FlowAggregateModel, self.models),
                          (NetworkEngine, self.engines),
                          (Rnic, self.rnics),
                          (ConnectionManager, self.conn_mgrs),
                          (AdmissionGate, self.gates),
                          (GatewayStats, self.gateway_stats),
                          (Telemetry, self.telemetries)):
            self._patch(cls, "__init__", _collecting(cls.__init__, into))
        self._patch(OpenLoopSource, "__init__",
                    _seeding(OpenLoopSource.__init__, self.sources, self.seed))
        self._patch(Environment, "run", self._loop(Environment.run))
        self._patch(FlowAggregateModel, "run",
                    self._fluid_loop(FlowAggregateModel.run))
        self._patch(fig12_primitives, "run_variant",
                    _returning(fig12_primitives.run_variant, self.benches))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _mark_loop(self) -> None:
        if self.first_loop_at is None:
            self.first_loop_at = time.perf_counter()

    def _loop(self, original):
        def run(obj, *args, **kwargs):
            self._mark_loop()
            return original(obj, *args, **kwargs)
        return run

    def _fluid_loop(self, original):
        def run(obj, duration_us, *args, **kwargs):
            self._mark_loop()
            self.fluid_arrival_us += duration_us
            return original(obj, duration_us, *args, **kwargs)
        return run


def _collecting(original, into: list):
    def __init__(obj, *args, **kwargs):
        original(obj, *args, **kwargs)
        into.append(obj)
    return __init__


def _seeding(original, into: list, seed: int):
    def __init__(obj, *args, **kwargs):
        if seed:
            kwargs["rng"] = random.Random(f"{seed}:{kwargs.get('name')}")
        original(obj, *args, **kwargs)
        into.append(obj)
    return __init__


def _returning(original, into: list):
    def wrapper(*args, **kwargs):
        value = original(*args, **kwargs)
        into.append(value)
        return value
    return wrapper


# -- workloads ---------------------------------------------------------------

class Outcome(NamedTuple):
    """What one workload run produced, in simulated terms."""

    #: completed requests (for ``overload``: those that met the deadline)
    requests: int
    #: simulated time during which clients were active, summed over runs
    active_us: float
    #: latency samples as (value_us, weight)
    samples: List[Tuple[float, int]]
    ops_attempted: int
    ops_failed: int
    #: invariants that did not hold, each a short sentence
    broken: List[str]
    #: JSON-able simulated outputs, digested to detect schedule changes
    output: object


class Workload(NamedTuple):
    loop: str
    why: str
    run: Callable[[int, float, Probe], Outcome]
    #: workload whose simulated outputs must equal this one's
    twin: Optional[str] = None


def _closed_loop(probe: Probe, active_us: float, output,
                 broken: List[str]) -> Outcome:
    clients = [c for fleet in probe.fleets for c in fleet.clients]
    completed = sum(c.completed for c in clients)
    errors = sum(c.errors for c in clients)
    rejected = sum(c.rejected for c in clients)
    samples = [(s, 1) for c in clients for s in c.latency.samples]
    if len(samples) != completed:
        broken.append(f"{len(samples)} latency samples for "
                      f"{completed} completions")
    return Outcome(completed, active_us, samples, completed + errors + rejected,
                   errors + rejected, broken, output)


def _boutique(telemetry: bool):
    def run(seed: int, scale: float, probe: Probe) -> Outcome:
        from repro.experiments import run_boutique_point
        duration = 80_000.0 * scale
        point = run_boutique_point("palladium-dne", "Home Query", clients=20,
                                   duration_us=duration,
                                   with_telemetry=telemetry)
        point.pop("telemetry", None)
        broken = []
        if telemetry and not _span_count(probe):
            broken.append("telemetry recorded no spans")
        return _closed_loop(probe, duration, point, broken)
    return run


def _rdma_echo(seed: int, scale: float, probe: Probe) -> Outcome:
    from repro.experiments import run_fig12, to_json, validation
    duration = 20_000.0 * scale
    result = run_fig12(sizes=(256, 4096), concurrency=4, duration_us=duration)
    completed = sum(bench.completed for bench in probe.benches)
    samples = [(s, 1) for bench in probe.benches
               for s in bench.latency.samples]
    broken = [f"paper band: {failure}"
              for failure in validation.check_fig12(result)]
    if len(samples) != completed:
        broken.append(f"{len(samples)} latency samples for "
                      f"{completed} completions")
    return Outcome(completed, duration * len(probe.benches), samples,
                   completed, 0, broken, json.loads(to_json(result)))


def _overload(seed: int, scale: float, probe: Probe) -> Outcome:
    from repro.experiments import run_overload_point
    duration = 300_000.0 * scale
    point = run_overload_point("palladium-dne", 2.0, duration_us=duration)
    offered = sum(src.offered for src in probe.sources)
    good, late = point["good"], point["late"]
    rejected, lost = point["rejected"], point["lost"]
    # A 200 after the deadline is late, so the in-deadline samples are
    # exactly the good requests.
    samples = [(s, 1) for src in probe.sources
               for s in src.latency.samples if s <= src.deadline_us]
    broken = []
    if offered != good + late + rejected + lost:
        broken.append(f"ledger: offered {offered} != good {good} + late "
                      f"{late} + rejected {rejected} + lost {lost}")
    if len(samples) != good:
        broken.append(f"{len(samples)} in-deadline samples for {good} good")
    return Outcome(good, duration, samples, offered,
                   late + rejected + lost, broken, point)


def _crash(seed: int, scale: float, probe: Probe) -> Outcome:
    from repro.experiments import run_fault_point
    warmup = 40_000.0
    crash_at = (140_000.0 if seed == 0
                else random.Random(seed).uniform(120_000.0, 160_000.0))
    # Scaling keeps the 40 ms warm-up and shrinks the rest of the
    # timeline, but keeps 45 ms after the restart: the QP reconnect
    # the check looks for lands within that.
    scale = max(scale, 0.25)
    crash_at = warmup + (crash_at - warmup) * scale
    down, post = 100_000.0 * scale, max(90_000.0 * scale, 45_000.0)
    point = run_fault_point("palladium-dne", crash_at_us=crash_at,
                            down_us=down, post_us=post)
    broken = []
    if point["qp_reconnects"] < 1:
        broken.append("fault: no QP reconnected after the restart")
    if point["fault_events"] < 1:
        broken.append("fault: the fault timeline is empty")
    return _closed_loop(probe, crash_at + down + post - warmup, point, broken)


def _gateway_fluid(seed: int, scale: float, probe: Probe) -> Outcome:
    from repro.experiments import run_ext_gateway_scale, to_json
    result = run_ext_gateway_scale(duration_us=400_000.0 * scale,
                                   crash_post_us=150_000.0 * scale)
    admitted = completed = rejected = lost = 0
    broken = []
    for index, model in enumerate(probe.models):
        model_lost = (model.admitted - model.completed - model.rejected
                      - model.inflight())
        if not model.conserved() or model_lost:
            broken.append(f"ledger: model {index} not conserved "
                          f"(lost {model_lost})")
        admitted += model.admitted
        completed += model.completed
        rejected += model.rejected
        lost += model_lost
    samples = [(latency, count) for model in probe.models
               for _t, latency, count in model.samples]
    return Outcome(completed, probe.fluid_arrival_us, samples, admitted,
                   rejected + lost, broken, json.loads(to_json(result)))


WORKLOADS: Dict[str, Workload] = {
    "boutique": Workload(
        "closed, 20 clients",
        "full Fig. 16 data plane (ingress, DNE, RDMA, functions) with QoS, "
        "faults and telemetry idle; where dne does the most work",
        _boutique(telemetry=False)),
    "boutique-telemetry": Workload(
        "closed, 20 clients",
        "boutique with telemetry on: isolates the telemetry layer's cost and "
        "checks that telemetry leaves the simulation unchanged",
        _boutique(telemetry=True), twin="boutique"),
    "rdma-echo": Workload(
        "closed, 1 and 4 outstanding per variant",
        "Fig. 12 RNIC and verbs echo with no ingress, DNE or platform; "
        "rdma and sim carry almost everything",
        _rdma_echo),
    "overload": Workload(
        "open, 40k rps offered over 3 tenants (2x capacity)",
        "sheds at the admission gate, runs CoDel/DWRR over three tenants and "
        "applies credits; the only workload where qos does real work",
        _overload),
    "crash": Workload(
        "closed, 12 clients with redial",
        "worker crash and restart: QP flush and reconnect, replica failover "
        "and guard timers that fire; platform does the most work",
        _crash),
    "gateway-fluid": Workload(
        "open, fluid, 2M rps offered per point",
        "fluid gateway-tier model with zero kernel events; the control "
        "workload where a sim kernel change should move nothing",
        _gateway_fluid),
}


# -- simulated metrics -------------------------------------------------------

def percentile(samples: List[Tuple[float, int]], p: float) -> float:
    """Nearest-rank percentile of weighted ``(value, weight)`` samples."""
    rows = sorted(samples)
    total = sum(weight for _value, weight in rows)
    if not total:
        return 0.0
    target = max(1, math.ceil(p / 100.0 * total))
    running = 0
    for value, weight in rows:
        running += weight
        if running >= target:
            return value
    return rows[-1][0]


def _span_count(probe: Probe) -> int:
    return sum(len(t.tracer.spans) for t in probe.telemetries)


def _digest(outcome: Outcome, events: int, epochs: int) -> str:
    """sha256 of the simulated outputs; equal digests mean the same
    completions, latency samples and event schedule."""
    payload = json.dumps({
        "output": outcome.output,
        "requests": outcome.requests,
        "samples": outcome.samples,
        "events": events,
        "epochs": epochs,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _counters(probe: Probe) -> Dict[str, int]:
    """Public state the layers leave behind after a run."""
    engine_stats = [e.stats for e in probe.engines]
    return {
        "dne_tx_messages": sum(s.tx_messages for s in engine_stats),
        "dne_dropped": sum(s.dropped for s in engine_stats),
        "qos_admitted": sum(g.admitted for g in probe.gates),
        "qos_rejected": sum(g.rejected for g in probe.gates),
        "qos_sched_dropped": sum(e.scheduler.dropped for e in probe.engines),
        "ingress_accepted": sum(s.accepted for s in probe.gateway_stats),
        "ingress_dropped": sum(s.dropped for s in probe.gateway_stats),
        "rdma_flushed_cqes": sum(r.flushed_cqes for r in probe.rnics),
        "rdma_qp_reconnects": sum(m.reconnects_succeeded
                                  for m in probe.conn_mgrs),
        "workloads_client_reconnects": sum(
            c.reconnects for f in probe.fleets for c in f.clients),
        "telemetry_spans": _span_count(probe),
    }


# -- the per-layer ledger ----------------------------------------------------

def layer_of(filename: str) -> Optional[str]:
    """The layer that owns a profiled frame, or None for the standard
    library and builtins (which are charged to their callers)."""
    path = Path(filename)
    if not path.is_absolute():
        return None
    try:
        parts = path.relative_to(SRC / "repro").parts
    except ValueError:
        return EXPERIMENTS_LAYER if path.parent == BENCH_DIR else None
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else EXPERIMENTS_LAYER


def ledger(stats: dict, requests: int) -> dict:
    """Charge profiled self-time and calls to layers.

    ``stats`` is ``pstats.Stats.stats``.  A frame outside the repo is
    charged to the layers that called it, in proportion to the time
    (for self-time) or the calls (for counts) each caller spent in it,
    recursively, so the layer shares sum to 1.  ``calls`` counts calls
    into a layer's public functions from a frame of another layer;
    a generator resumed by the kernel counts as a call.
    """
    owner = {func: layer_of(func[0]) for func in stats}
    memo: Dict[Tuple[tuple, int], Dict[str, float]] = {}

    def attribution(func, index: int) -> Dict[str, float]:
        """Layer -> fraction for ``func``; ``index`` picks calls (0) or
        cumulative time (3) from the caller tuples."""
        if owner.get(func):
            return {owner[func]: 1.0}
        key = (func, index)
        if key in memo:
            return memo[key]
        memo[key] = {}  # a cycle through stdlib frames adds nothing
        shares: Dict[str, float] = defaultdict(float)
        for caller, row in stats[func][4].items():
            if caller in stats and row[index] > 0:
                for layer, fraction in attribution(caller, index).items():
                    shares[layer] += row[index] * fraction
        total = sum(shares.values())
        result = ({layer: v / total for layer, v in shares.items()}
                  if total else {EXPERIMENTS_LAYER: 1.0})
        memo[key] = result
        return result

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    resumes = 0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = owner[func]
        if layer:
            self_s[layer] += tt
        else:
            by_caller = {c: row[2] for c, row in callers.items()
                         if c in stats and row[2] > 0}
            spent = sum(by_caller.values())
            if not spent:
                self_s[EXPERIMENTS_LAYER] += tt
            for caller, t in by_caller.items():
                for owner_layer, fraction in attribution(caller, 3).items():
                    self_s[owner_layer] += tt * t / spent * fraction
        if func[2] == "_resume" and layer == "sim":
            resumes += nc
        if layer and func[2][:1].isalpha():
            for caller, row in callers.items():
                if caller in stats:
                    outside = 1.0 - attribution(caller, 0).get(layer, 0.0)
                    calls[layer] += row[0] * outside
    total = sum(self_s.values())
    per_request = max(1, requests)
    return {
        "total_self_s": total,
        "resumes": resumes,
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "self_share": self_s[layer] / total if total else 0.0,
                "self_us_per_request": self_s[layer] * 1e6 / per_request,
                "calls": calls[layer],
                "calls_per_request": calls[layer] / per_request,
            }
            for layer in LAYERS
        },
    }


# -- one repeat ----------------------------------------------------------------

def run_once(name: str, seed: int, scale: float,
             trace_dir: Optional[Path]) -> dict:
    """Run one workload in this process and return its record."""
    workload = WORKLOADS[name]
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (the setup clock covers the import)

    probe = Probe(seed).install()
    profile = cProfile.Profile() if trace_dir is not None else None
    try:
        if profile is not None:
            profile.enable()
        outcome = workload.run(seed, scale, probe)
        if profile is not None:
            profile.disable()
        t_end = time.perf_counter()
    finally:
        probe.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if probe.first_loop_at is None:
        raise RuntimeError(f"{name}: no simulation loop was entered")

    run_s = t_end - probe.first_loop_at
    events = sum(env.events_processed for env in probe.envs)
    epochs = sum(model.epochs for model in probe.models)
    requests = outcome.requests
    weight = sum(w for _v, w in outcome.samples)
    broken = list(outcome.broken)
    if requests < 1:
        broken.append("no request completed")
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": profile is not None,
        "setup_s": probe.first_loop_at - t_import,
        "run_s": run_s,
        "requests": requests,
        "host_us_per_request": run_s * 1e6 / max(1, requests),
        "peak_rss_mb": peak_rss_mb,
        "events": events,
        "epochs": epochs,
        "sim_goodput_rps": requests * 1e6 / outcome.active_us,
        "sim_latency_p50_us": percentile(outcome.samples, 50.0),
        "sim_latency_p99_us": percentile(outcome.samples, 99.0),
        "samples": weight,
        "ops_attempted": outcome.ops_attempted,
        "ops_failed": outcome.ops_failed,
        "broken": broken,
        "digest": _digest(outcome, events, epochs),
        "counters": _counters(probe),
    }
    if profile is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        profile.dump_stats(str(trace_dir / f"{name}.pstats"))
        layers = ledger(pstats.Stats(profile).stats, requests)
        (trace_dir / f"{name}.layers.json").write_text(
            json.dumps(layers, indent=1, sort_keys=True) + "\n")
        record["ledger"] = layers
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"harness: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    record = run_once(args.workload, args.seed, args.scale, args.trace_dir)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
