"""Benchmark of the simulator: host cost per simulated request.

Runs the reference workloads one after another.  Every repeat is a
fresh interpreter (``bench/harness.py``) with ``PYTHONHASHSEED=0`` and
``REPRO_JOBS=1``, so at most one simulation runs at a time.  Prints
each end-to-end metric with its unit, its value (the fastest repeat for
host time, the median otherwise) and the median and quartiles of the
repeats, checks the simulated outputs, writes the raw per-run values to
a JSON file and exits non-zero if a check fails.

Usage (from the repository root)::

    python3 bench/run.py                          # all workloads, 5 repeats
    python3 bench/run.py --workload crash --seconds 20 --seed 7
    python3 bench/run.py --trace 1 --trace-dir bench/out/trace
    python3 bench/run.py --compare BASE.json NEW.json

With exactly one ``--workload``, the last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics named in ``BENCHMARK.json``, or with ``--trace 1``
the per-layer ones).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import END_TO_END, LAYERS, PER_LAYER, ROOT, SRC, WORKLOADS

HARNESS = Path(__file__).resolve().parent / "harness.py"
OUT_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: fewest untraced repeats a time-budgeted run makes (1 with tracing,
#: where they only give the untraced baseline)
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
HOST_METRICS = ("host_us_per_request", "setup_s", "peak_rss_mb")
#: metrics a run reports as its fastest repeat rather than the median:
#: other tenants of a shared host only ever slow a repeat down, and
#: their slowdowns last seconds, so the median of a run moves with them
#: more than the fastest repeat does (bench/README.md has the numbers)
BEST_OF = ("host_us_per_request",)
SIM_METRICS = ("sim_goodput_rps", "sim_latency_p50_us", "sim_latency_p99_us")

#: bounds ``--compare`` uses for metrics that BENCHMARK.json does not
#: gate: (kind, limit), kind "rel" (share of the base median) or "abs"
REPORT_BOUNDS = {
    "sim_latency_p50_us": ("rel", 0.02),
    "sim_latency_p99_us": ("rel", 0.02),
    "error_rate": ("abs", 0.001),
}


class BenchError(Exception):
    """A repeat could not run (not a failed output check)."""


# -- running repeats -----------------------------------------------------------

def child(name: str, seed: int, scale: float,
          trace_dir: Optional[Path] = None) -> Tuple[dict, float]:
    """Run one repeat in a fresh interpreter; returns (record, wall s)."""
    cmd = [sys.executable, str(HARNESS), name, "--seed", str(seed),
           "--scale", repr(scale)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    env = dict(os.environ, PYTHONHASHSEED="0", REPRO_JOBS="1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: repeat exceeded {CHILD_TIMEOUT_S} s")
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: repeat exited with {proc.returncode}")
    return json.loads(lines[-1]), wall


def measure(name: str, seed: int, scale: float, trace_dir: Optional[Path],
            seconds: Optional[float], repeats: Optional[int]) -> dict:
    """All repeats of one workload: the traced one (if any), the twin
    (if any), then untraced ones until ``repeats`` are done or the
    next one would end past ``seconds``."""
    start = time.perf_counter()
    traced = child(name, seed, scale, trace_dir)[0] if trace_dir else None
    twin_name = WORKLOADS[name].twin
    twin = child(twin_name, seed, scale)[0] if twin_name else None
    minimum = 1 if trace_dir else MIN_REPEATS
    runs: List[dict] = []
    walls: List[float] = []
    while True:
        record, wall = child(name, seed, scale)
        runs.append(record)
        walls.append(wall)
        if repeats is not None:
            done = len(runs) >= repeats
        else:
            next_end = time.perf_counter() - start + statistics.median(walls)
            done = len(runs) >= minimum and next_end > seconds
        if done:
            return {"runs": runs, "traced": traced, "twin": twin}


# -- summarising -------------------------------------------------------------

def spread(values: List[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _checks(name: str, m: dict) -> List[str]:
    runs, traced, twin = m["runs"], m["traced"], m["twin"]
    checks = []
    for record in runs + ([traced] if traced else []):
        for broken in record["broken"]:
            check = f"{name}: {broken}"
            if check not in checks:
                checks.append(check)
    reference = runs[0]["digest"]
    if any(r["digest"] != reference for r in runs):
        checks.append(f"{name}: simulated outputs differ between repeats "
                      "of the same seed")
    if traced and traced["digest"] != reference:
        checks.append(f"{name}: the traced run's simulated outputs differ "
                      "from the untraced run's")
    if twin and twin["digest"] != reference:
        checks.append(f"{name}: completions, latency samples or event count "
                      f"differ from {WORKLOADS[name].twin}")
    return checks


def per_layer(traced: dict, runs: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from the traced run and the untraced runs."""
    ledger = traced["ledger"]
    counters = traced["counters"]
    requests = max(1, traced["requests"])
    fastest = min(runs, key=lambda r: r["run_s"])
    out: Dict[str, float] = {}
    for layer in LAYERS:
        row = ledger["layers"][layer]
        out[f"{layer}.self_share"] = row["self_share"]
        out[f"{layer}.self_us_per_request"] = row["self_us_per_request"]
        out[f"{layer}.calls_per_request"] = row["calls_per_request"]
    tx, dropped = counters["dne_tx_messages"], counters["dne_dropped"]
    admitted, rejected = counters["qos_admitted"], counters["qos_rejected"]
    out.update({
        "sim.events_per_request": traced["events"] / requests,
        "sim.resumes_per_request": ledger["resumes"] / requests,
        "sim.events_per_host_s": fastest["events"] / fastest["run_s"],
        "dne.tx_messages_per_request": tx / requests,
        "dne.drop_ratio": dropped / max(1, tx + dropped),
        # no admission gate means every request was admitted
        "qos.admit_ratio": (admitted / (admitted + rejected)
                            if admitted + rejected else 1.0),
        "qos.sched_dropped": counters["qos_sched_dropped"],
        "ingress.drop_ratio": (counters["ingress_dropped"]
                               / max(1, counters["ingress_accepted"])),
        "rdma.flushed_cqes": counters["rdma_flushed_cqes"],
        "rdma.qp_reconnects": counters["rdma_qp_reconnects"],
        "workloads.client_reconnects":
            counters["workloads_client_reconnects"],
        "workloads.epochs_per_host_s": fastest["epochs"] / fastest["run_s"],
        "telemetry.spans_per_request": counters["telemetry_spans"] / requests,
        "tracing.overhead_ratio": traced["run_s"] / fastest["run_s"],
    })
    return out


def summarize(name: str, m: dict) -> dict:
    """One workload's section of the results file."""
    runs = m["runs"]
    checks = _checks(name, m)
    first = runs[0]
    attempted = first["ops_attempted"]
    failed = attempted if checks else first["ops_failed"]
    values = {metric: [r[metric] for r in runs]
              for metric in HOST_METRICS + SIM_METRICS}
    values["error_rate"] = [failed / max(1, attempted)] * len(runs)
    metrics = {}
    for metric, vals in values.items():
        median, q1, q3 = spread(vals)
        metrics[metric] = {"unit": END_TO_END[metric][0],
                           "value": min(vals) if metric in BEST_OF else median,
                           "median": median, "q1": q1, "q3": q3,
                           "values": vals}
    section = {
        "loop": WORKLOADS[name].loop,
        "why": WORKLOADS[name].why,
        "repeats": len(runs),
        "metrics": metrics,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "samples": first["samples"],
        "requests": first["requests"],
        "events_per_request": first["events"] / max(1, first["requests"]),
        "digest": first["digest"],
        "checks": checks,
        # every repeat's simulated ops, and all of them failed when a
        # check did not hold
        "bench_ops": sum(r["ops_attempted"] for r in runs
                         + ([m["traced"]] if m["traced"] else [])),
        "runs": runs,
    }
    if m["traced"]:
        traced = dict(m["traced"])
        section["ledger"] = traced.pop("ledger")
        section["traced_run"] = traced
        section["per_layer"] = {
            metric: {"unit": PER_LAYER[metric][0], "value": value}
            for metric, value in per_layer(m["traced"], runs).items()}
    return section


# -- provenance ----------------------------------------------------------------

def git_commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git (which
    could read configuration outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": cpus,
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "traced": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- printing ------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_section(name: str, s: dict) -> None:
    print(f"== {name} ({s['loop']}): untraced repeats {s['repeats']} ==")
    print(f"  {'metric':<22}{'unit':>10}{'value':>14}{'median':>14}"
          f"{'q1':>14}{'q3':>14}")
    for metric, row in s["metrics"].items():
        print(f"  {metric:<22}{row['unit']:>10}"
              + "".join(f"{_fmt(row[k]):>14}"
                        for k in ("value", "median", "q1", "q3")))
    print(f"  ops_attempted {s['ops_attempted']}  ops_failed "
          f"{s['ops_failed']}  latency samples {s['samples']}  "
          f"events/request {_fmt(s['events_per_request'])}")
    print(f"  sim digest {s['digest'][:16]}  checks: "
          + ("ok" if not s["checks"] else "FAILED"))
    for check in s["checks"]:
        print(f"    FAILED {check}")
    if "per_layer" in s:
        values = {k: v["value"] for k, v in s["per_layer"].items()}
        print(f"  {'layer':<14}{'self_share':>12}{'self_us/req':>14}"
              f"{'calls/req':>12}")
        for layer in LAYERS:
            print(f"  {layer:<14}{values[layer + '.self_share']:>12.4f}"
                  f"{values[layer + '.self_us_per_request']:>14.3f}"
                  f"{values[layer + '.calls_per_request']:>12.3f}")
        for metric, value in values.items():
            if metric.split(".")[1] not in ("self_share",
                                             "self_us_per_request",
                                             "calls_per_request"):
                print(f"  {metric:<34}{_fmt(value):>14} "
                      f"{PER_LAYER[metric][0]}")


def contract_line(s: dict, trace: bool) -> dict:
    """The single-workload result object printed as the last line."""
    if trace:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in s["per_layer"].items()}
    else:
        metrics = {k: {"value": s["metrics"][k]["value"],
                       "unit": s["metrics"][k]["unit"]}
                   for k in gated_metrics()}
    return {"correct": not s["checks"], "attempted": s["bench_ops"],
            "failed": s["bench_ops"] if s["checks"] else 0,
            "metrics": metrics}


# -- comparing two results files ---------------------------------------------

def benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def gated_metrics() -> List[str]:
    return [m["name"] for m in benchmark_spec()["end_to_end"]]


def bounds() -> Dict[str, Tuple[str, float]]:
    gated = {m["name"]: ("rel", m["bound"])
             for m in benchmark_spec()["end_to_end"]}
    return {**REPORT_BOUNDS, **gated}


def judge(base: List[float], new: List[float], better: str,
          bound: Tuple[str, float]) -> str:
    """better / worse / unchanged / unresolved for one metric.

    Better needs the change to win 9 of 10 pairs and a median gap
    larger than the base's interquartile range.  Worse is a median
    worse by more than the bound.  When the base's own spread exceeds
    the bound, "no regression" cannot be told from noise: unresolved,
    unless every new run beats every base run.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median, q1, q3 = spread(base)
    gain = sign * (statistics.median(new) - base_median)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    kind, limit = bound
    allowed = limit * abs(base_median) if kind == "rel" else limit
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better"
    if -gain > allowed:
        return "worse"
    all_better = (min(sign * v for v in new) > max(sign * v for v in base))
    if q3 - q1 > allowed and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base_path: Path, new_path: Path) -> List[dict]:
    base = json.loads(base_path.read_text())["workloads"]
    new = json.loads(new_path.read_text())["workloads"]
    limits = bounds()
    rows = []
    for name, section in base.items():
        if name not in new:
            continue
        for metric, (unit, better) in END_TO_END.items():
            b = section["metrics"].get(metric)
            n = new[name]["metrics"].get(metric)
            if b is None or n is None:
                continue
            rows.append({
                "workload": name, "metric": metric, "unit": unit,
                "base": spread(b["values"]), "new": spread(n["values"]),
                "verdict": judge(b["values"], n["values"], better,
                                 limits[metric]),
            })
    print(f"{'workload':<20}{'metric':<22}{'unit':>9}"
          f"{'base median [q1, q3]':>36}{'new median [q1, q3]':>36}  verdict")
    for row in rows:
        cells = ["{} [{}, {}]".format(*(_fmt(v) for v in row[side]))
                 for side in ("base", "new")]
        print(f"{row['workload']:<20}{row['metric']:<22}{row['unit']:>9}"
              f"{cells[0]:>36}{cells[1]:>36}  {row['verdict']}")
    return rows


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces each experiment's own inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload (overrides "
                             "--repeats)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced repeats per workload (default 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds one cProfile-traced repeat per "
                             "workload and reports per-layer metrics")
    parser.add_argument("--trace-dir", type=Path,
                        default=OUT_DIR / "trace",
                        help="where traced repeats write "
                             "<workload>.pstats and <workload>.layers.json")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's simulated "
                             "duration (smoke tests use 0.05)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json",
                        help="results file with the raw per-run values")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"),
                        help="compare two results files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is not None:
        args.repeats = None
    names = args.workload or list(WORKLOADS)
    trace_dir = args.trace_dir.resolve() if args.trace else None

    results = {"provenance": provenance(args), "workloads": {}}
    try:
        for name in names:
            m = measure(name, args.seed, args.scale, trace_dir,
                        args.seconds, args.repeats)
            section = summarize(name, m)
            results["workloads"][name] = section
            print_section(name, section)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    sections = results["workloads"]
    if "boutique" in sections and "boutique-telemetry" in sections:
        plain = sections["boutique"]["metrics"]["host_us_per_request"]
        instrumented = sections["boutique-telemetry"]["metrics"][
            "host_us_per_request"]
        share = instrumented["value"] / plain["value"] - 1.0
        results["telemetry.overhead_share"] = share
        print(f"telemetry.overhead_share {_fmt(share)} (boutique-telemetry "
              "over boutique host_us_per_request, minus 1)")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    failures = [c for s in sections.values() for c in s["checks"]]
    print(f"results: {args.out}; checks: "
          + (f"{len(failures)} FAILED" if failures else "all passed"))
    if len(names) == 1:
        print(json.dumps(contract_line(sections[names[0]], args.trace)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
