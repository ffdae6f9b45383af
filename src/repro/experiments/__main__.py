"""Command-line reproduction runner.

Regenerate any (or every) figure/table of the paper's evaluation:

    python -m repro.experiments --list
    python -m repro.experiments fig12 fig13
    python -m repro.experiments --all
    python -m repro.experiments --quick fig16

``--quick`` shrinks parameters for a fast sanity pass; the defaults
match EXPERIMENTS.md.  Every experiment fans its points out over
``REPRO_JOBS`` workers (default 1: serial), with the same output for
any count.  ``GATES`` declares, per experiment, what its quick run
must reproduce; ``tools/gate.py`` runs them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import (
    run_critpath,
    run_ext_conn_churn,
    run_ext_cycle_breakdown,
    run_ext_fault_recovery,
    run_ext_gateway_scale,
    run_ext_migration,
    run_ext_overload,
    run_overload_isolation,
    run_fig09,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14_panels,
    run_fig15,
    run_fig16,
    run_multi_ingress,
    run_placement_ablation,
    run_sidecar_ablation,
    run_slo_fault,
    run_slo_overload,
    run_table1,
    run_table2,
)
from . import validation
from ..telemetry import CYCLE_CATEGORIES
from .parallel import Sweep, joined
from .report import save, to_json
from .runner import ExperimentResult


#: experiment id -> (full sweep, quick sweep); call a sweep to run it
EXPERIMENTS: Dict[str, Tuple[Sweep, Sweep]] = {
    "fig09": (
        run_fig09.sweep(duration_us=40_000),
        run_fig09.sweep(function_counts=(1, 6, 10), duration_us=15_000),
    ),
    "fig11": (
        run_fig11.sweep(duration_us=60_000),
        run_fig11.sweep(payload_sizes=(64, 4096), concurrencies=(1, 32),
                        duration_us=30_000),
    ),
    "fig12": (
        run_fig12.sweep(duration_us=40_000),
        run_fig12.sweep(sizes=(64, 4096), duration_us=20_000),
    ),
    "fig13": (
        run_fig13.sweep(duration_us=150_000),
        run_fig13.sweep(client_counts=(1, 16, 64), duration_us=60_000),
    ),
    "fig14": (
        run_fig14_panels.sweep(steps=10),
        run_fig14_panels.sweep(steps=4, time_scale=0.02, cost_scale=8.0),
    ),
    "fig15": (
        run_fig15.sweep(time_scale=1 / 120.0),
        run_fig15.sweep(time_scale=1 / 480.0),
    ),
    "fig16": (
        run_fig16.sweep(client_counts=(20, 80), duration_us=120_000),
        run_fig16.sweep(chains=("Home Query",), client_counts=(20, 80),
                        duration_us=80_000),
    ),
    "table1": (Sweep([], lambda _: run_table1()),) * 2,
    "table2": (
        run_table2.sweep(chains=("Home Query",), duration_us=120_000),
        run_table2.sweep(client_counts=(20,), chains=("Home Query",),
                         configs=("palladium-dne", "nightcore"),
                         duration_us=80_000),
    ),
    "sidecar": (
        run_sidecar_ablation.sweep(duration_us=100_000),
        run_sidecar_ablation.sweep(clients=20, duration_us=60_000),
    ),
    "placement": (
        run_placement_ablation.sweep(duration_us=100_000),
        run_placement_ablation.sweep(clients=20, duration_us=60_000),
    ),
    "multi-ingress": (
        run_multi_ingress.sweep(duration_us=250_000),
        run_multi_ingress.sweep(duration_us=150_000),
    ),
    "fault-recovery": (
        run_ext_fault_recovery.sweep(),
        run_ext_fault_recovery.sweep(
            configs=("palladium-dne", "palladium-dne-no-recovery"),
            clients=8, down_us=80_000.0, post_us=60_000.0),
    ),
    "migration": (
        run_ext_migration.sweep(),
        run_ext_migration.sweep(
            state_kbs=(64, 4096), clients=6, move_at_us=80_000.0,
            disruption_us=50_000.0, post_us=80_000.0),
    ),
    "gateway-scale": (
        run_ext_gateway_scale.sweep(),
        run_ext_gateway_scale.sweep(
            gateway_counts=(1, 2, 4), scale=0.02, duration_us=200_000.0,
            crash_post_us=100_000.0, table_capacity=8_192),
    ),
    "conn-churn": (
        run_ext_conn_churn.sweep(),
        run_ext_conn_churn.sweep(
            scenarios=("cold", "warm-fixed", "warm-predictive", "shared"),
            multipliers=(0.5, 2.0), day_us=600_000.0, max_instances=400),
    ),
    "cycle-breakdown": (
        run_ext_cycle_breakdown.sweep(),
        run_ext_cycle_breakdown.sweep(configs=("spright", "palladium-dne"),
                                      clients=8, duration_us=60_000.0),
    ),
    "slo": (
        joined(run_slo_overload.sweep(), run_slo_fault.sweep()),
        joined(run_slo_overload.sweep(configs=("palladium-dne", "spright"),
                                      multipliers=(0.8, 2.0)),
               run_slo_fault.sweep(configs=("palladium-dne",
                                            "palladium-dne-no-recovery"))),
    ),
    "critpath": (
        run_critpath.sweep(client_counts=(20, 40, 80)),
        run_critpath.sweep(client_counts=(20, 80), duration_us=60_000.0),
    ),
    "overload": (
        joined(run_ext_overload.sweep(), run_overload_isolation.sweep()),
        joined(run_ext_overload.sweep(multipliers=(0.8, 2.0),
                                      duration_us=80_000.0),
               run_overload_isolation.sweep(duration_us=80_000.0)),
    ),
}


Check = Callable[[Any], List[str]]


def claim(text: str, holds: Callable[[Any], bool]) -> Check:
    """A check that fails with ``text`` unless ``holds(outcome)``."""
    def check(outcome) -> List[str]:
        try:
            return [] if holds(outcome) else [text]
        except KeyError as missing:  # a row, panel or window not run
            return [f"{text}: point missing: {missing.args[0]}"]
    return check


@dataclass(frozen=True)
class Gate:
    """What an experiment's ``--quick`` entry must reproduce.

    ``tools/gate.py`` pins ``digest`` of the quick outcome in
    ``tests/golden/digests.json``, then applies ``checks`` (the
    experiment's expected shape) and ``bands`` (its paper anchors from
    :mod:`.validation`).  Each takes the outcome as the quick entry
    returns it and lists failures.  ``probe``, when set, does extra
    pinned work and returns ``(digests, failures)`` of its own.
    """

    checks: Sequence[Check]
    bands: Sequence[Check] = ()
    probe: Optional[Callable[[], Tuple[Dict[str, Any], List[str]]]] = None


def _results(outcome) -> List[ExperimentResult]:
    return outcome if isinstance(outcome, list) else [outcome]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(outcome) -> str:
    """sha256 over each result's JSON, newline-joined."""
    return _sha("\n".join(to_json(r) for r in _results(outcome)))


def _at(result: ExperimentResult, column: str, **match):
    return result.find_row(**match)[column]


def _panel(outcome, suffix: str) -> ExperimentResult:
    for result in outcome:
        if result.name.endswith(suffix):
            return result
    raise KeyError(f"no panel named *{suffix}")


def _window_ratio(result: ExperimentResult, lo_s: float, hi_s: float):
    rows = [r for r in result.rows if lo_s <= r[0] <= hi_s]
    t2 = sum(r[2] for r in rows)
    if not t2:
        raise KeyError(f"{result.name}: no tenant-2 rps in {lo_s}-{hi_s} s")
    return sum(r[1] for r in rows) / t2


def _fluid_models() -> Tuple[Dict[str, Any], List[str]]:
    """Pin every fluid model of the quick and full gateway sweeps.

    Both sweeps' points run here, outside ``parallel_map``, so each
    :class:`FlowAggregateModel` is built in this process; its latency
    samples, completion counts, tier counters and ledger are hashed at
    full precision (the table rounds them).  The full sweep is the one
    run that checks the million-client claims: it takes about 2 s.
    """
    from ..workloads import FlowAggregateModel

    models: List[FlowAggregateModel] = []
    original = FlowAggregateModel.run

    def run(self, *args, **kwargs):
        if self not in models:
            models.append(self)
        return original(self, *args, **kwargs)

    def hashes() -> List[str]:
        out = [_sha(json.dumps({
            "samples": m.samples,
            "completions_at": sorted(m.completions_at.items()),
            "counters": m.tier.counters(),
            "ledger": [m.admitted, m.completed, m.rejected,
                       m.redirected, m.flows_synced, m.epochs],
        })) for m in models]
        models.clear()
        return out

    def here(sweep: Sweep):
        return sweep.assemble([fn(*args, **kwargs)
                               for fn, args, kwargs in sweep.calls])

    full, quick = EXPERIMENTS["gateway-scale"]
    FlowAggregateModel.run = run
    try:
        here(quick)
        digests: Dict[str, Any] = {"models": hashes()}
        result = here(full)
        digests["full"] = {"models": hashes(), "result": digest(result)}
    finally:
        FlowAggregateModel.run = original
    return digests, [f for check in _GATEWAY_FULL for f in check(result)]


_GATEWAY_FULL = [
    claim("gateway-scale: every point models 1M clients",
          lambda r: min(r.column("clients")) >= 1_000_000),
    claim("gateway-scale: goodput rises from 1 to 4 to 16 gateways",
          lambda r: _at(r, "goodput_rps", gateways=1)
          < _at(r, "goodput_rps", gateways=4)
          < _at(r, "goodput_rps", gateways=16)),
    claim("gateway-scale: hot path above 90% at 16 gateways",
          lambda r: _at(r, "hot_pct", gateways=16) > 90.0),
    claim("gateway-scale: hot path higher at 16 than at 1 gateway",
          lambda r: _at(r, "hot_pct", gateways=16)
          > _at(r, "hot_pct", gateways=1)),
    claim("gateway-scale: the ledger loses no request",
          lambda r: set(r.column("lost")) == {0}),
    claim("gateway-scale: the crash ships flow state to successors",
          lambda r: _at(r, "flows_synced", gateways=16) > 0),
    claim("gateway-scale: goodput recovers past 70% after the crash",
          lambda r: _at(r, "post_rps", gateways=16)
          > 0.7 * _at(r, "goodput_rps", gateways=16)),
]


_NO_RECOVERY = "palladium-dne-no-recovery"


def _migrations(r: ExperimentResult) -> List[Dict[str, Any]]:
    return [r.row_dict(i) for i, row in enumerate(r.rows)
            if row[0] == "migrate"]


def _nonapp(r: ExperimentResult, config: str) -> float:
    return 100.0 - _at(r, "app_pct", config=config)


def _dominant_p99(r: ExperimentResult, clients: int) -> str:
    return max((row for row in r.rows if row[0] == clients),
               key=lambda row: row[5])[1]


#: experiment id -> its gate; each deleted bench or CI assert lives here
GATES: Dict[str, Gate] = {
    "fig09": Gate([
        claim("fig09: comch-e RTT below TCP at 6 functions",
              lambda r: _at(r, "mean_rtt_us", channel="comch-e", functions=6)
              < _at(r, "mean_rtt_us", channel="tcp", functions=6)),
    ]),
    "fig11": Gate([
        claim("fig11: off-path beats on-path RPS and latency at every point",
              lambda r: all(
                  row[3] > _at(r, "rps", panel=row[0], mode="on-path",
                               x=row[2])
                  and row[4] < _at(r, "mean_latency_us", panel=row[0],
                                   mode="on-path", x=row[2])
                  for row in r.rows if row[1] == "off-path")),
    ]),
    "fig12": Gate([
        claim("fig12: OWDL RTT above 1.8x two-sided at 4 KB",
              lambda r: _at(r, "mean_rtt_us", variant="owdl", size_bytes=4096)
              > 1.8 * _at(r, "mean_rtt_us", variant="two-sided",
                          size_bytes=4096)),
    ], bands=[validation.check_fig12]),
    "fig13": Gate([
        claim("fig13: palladium RPS above 8x k-ingress at 64 clients",
              lambda r: _at(r, "rps", ingress="palladium", clients=64)
              > 8 * _at(r, "rps", ingress="k-ingress", clients=64)),
    ], bands=[validation.check_fig13]),
    "fig14": Gate([
        claim("fig14: the palladium ramp records scale events",
              lambda rs: any("scale events" in n for n in rs[0].notes)),
    ]),
    "fig15": Gate([
        claim("fig15: DWRR t1/t2 within (4, 8) over 40-80 s",
              lambda rs: 4.0 < _window_ratio(_panel(rs, "(dwrr)"), 40, 80)
              < 8.0),
    ], bands=[validation.check_fig15]),
    "fig16": Gate([
        claim("fig16: DNE RPS above 5x nightcore at 80 clients",
              lambda r: _at(r, "rps", chain="Home Query",
                            config="palladium-dne", clients=80)
              > 5 * _at(r, "rps", chain="Home Query", config="nightcore",
                        clients=80)),
    ], bands=[validation.check_fig16]),
    "table1": Gate([
        claim("table1: PALLADIUM offers multi-tenancy",
              lambda r: _at(r, "multi-tenancy", system="PALLADIUM") == "yes"),
    ]),
    "table2": Gate([
        claim("table2: nightcore latency above 3x DNE at 20 clients",
              lambda r: _at(r, "Home Query@20", config="nightcore")
              > 3 * _at(r, "Home Query@20", config="palladium-dne")),
    ]),
    "sidecar": Gate([
        claim("sidecar: eBPF sidecar RPS above container sidecar",
              lambda r: _at(r, "rps", sidecar="ebpf-sidecar")
              > _at(r, "rps", sidecar="container-sidecar")),
    ]),
    "placement": Gate([
        claim("placement: split palladium latency below split spright",
              lambda r: _at(r, "latency_ms", data_plane="palladium",
                            placement="split")
              < _at(r, "latency_ms", data_plane="spright",
                    placement="split")),
    ]),
    "multi-ingress": Gate([
        claim("multi-ingress: two instances narrow the worst gap",
              lambda r: _at(r, "worst_gap_ms", instances=2)
              < _at(r, "worst_gap_ms", instances=1)),
    ]),
    "fault-recovery": Gate([
        claim("fault-recovery: DNE restores >= 90% during the outage",
              lambda r: _at(r, "restored_pct", config="palladium-dne")
              >= 90.0),
        claim("fault-recovery: no-recovery restores < 50%",
              lambda r: _at(r, "restored_pct", config=_NO_RECOVERY) < 50.0),
        claim("fault-recovery: no-recovery clients survive via redial",
              lambda r: _at(r, "avail_pct", config=_NO_RECOVERY) > 0),
    ]),
    "migration": Gate([
        claim("migration: downtime in (0, cold-start TTFB) at every size",
              lambda r: all(0 < m["downtime_ms"]
                            < _at(r, "downtime_ms", mode="cold")
                            for m in _migrations(r))),
        claim("migration: live migration loses no request",
              lambda r: all(m["client_errors"] == 0
                            for m in _migrations(r))),
        claim("migration: kill-and-cold-start loses requests",
              lambda r: _at(r, "client_errors", mode="cold") > 0),
        claim("migration: the drain migrates both worker1 functions",
              lambda r: _at(r, "redirected", mode="drain") == 2),
    ]),
    "gateway-scale": Gate([], probe=_fluid_models),
    "conn-churn": Gate([
        claim("conn-churn: TTFB p50 cold > warm-fixed > shared",
              lambda r: _at(r, "ttfb_p50_us", scenario="cold")
              > _at(r, "ttfb_p50_us", scenario="warm-fixed")
              > _at(r, "ttfb_p50_us", scenario="shared")),
        claim("conn-churn: every cold instance pays its own handshake",
              lambda r: _at(r, "setups", scenario="cold")
              == _at(r, "instances", scenario="cold")),
        claim("conn-churn: the warm pool saves handshakes",
              lambda r: _at(r, "setups", scenario="warm-fixed")
              < _at(r, "instances", scenario="warm-fixed")),
        claim("conn-churn: predictive pre-warm matches warm-fixed TTFB "
              "with at most a quarter of its pooled QPs",
              lambda r: _at(r, "ttfb_p50_us", scenario="warm-predictive")
              <= _at(r, "ttfb_p50_us", scenario="warm-fixed")
              and 4 * _at(r, "pooled_qps", scenario="warm-predictive")
              <= _at(r, "pooled_qps", scenario="warm-fixed")),
        claim("conn-churn: below the ceiling, completions track offered",
              lambda r: _at(r, "completed_per_s", scenario="ceiling@0.5x")
              > 0.9 * _at(r, "offered_per_s", scenario="ceiling@0.5x")),
        claim("conn-churn: past the ceiling, completions saturate",
              lambda r: _at(r, "completed_per_s", scenario="ceiling@2x")
              < 0.6 * _at(r, "offered_per_s", scenario="ceiling@2x")),
        claim("conn-churn: queueing dominates TTFB past the ceiling",
              lambda r: _at(r, "ttfb_p50_us", scenario="ceiling@2x")
              > 5 * _at(r, "ttfb_p50_us", scenario="ceiling@0.5x")),
    ]),
    "cycle-breakdown": Gate([
        claim("cycle-breakdown: copy + protocol dominate SPRIGHT overhead",
              lambda r: _at(r, "copy_pct", config="spright")
              + _at(r, "protocol_pct", config="spright")
              > 0.5 * _nonapp(r, "spright")),
        claim("cycle-breakdown: the DNE copies nothing",
              lambda r: _at(r, "copy_pct", config="palladium-dne") == 0.0),
        claim("cycle-breakdown: descriptors dominate DNE overhead",
              lambda r: _at(r, "descriptor_pct", config="palladium-dne")
              > 0.5 * _nonapp(r, "palladium-dne")),
        claim("cycle-breakdown: DNE overhead below half of SPRIGHT's",
              lambda r: _at(r, "overhead_pct", config="palladium-dne")
              < 0.5 * _at(r, "overhead_pct", config="spright")),
        claim("cycle-breakdown: five cycle categories",
              lambda r: len(CYCLE_CATEGORIES) == 5),
        claim("cycle-breakdown: the run attaches its metrics",
              lambda r: {"engine_tx_total", "ingress_latency_us"}
              <= set(r.metrics)),
    ]),
    "slo": Gate([
        claim("slo: the unrecovered crash pages",
              lambda rs: _at(rs[1], "pages", config=_NO_RECOVERY) > 0),
    ]),
    "critpath": Gate([
        claim("critpath: named stages cover >= 90% of p99 at every load",
              lambda r: all(sum(row[5] for row in r.rows if row[0] == n)
                            >= 0.9 for n in set(r.column("clients")))),
        claim("critpath: the p99 bottleneck shifts from fn.exec to queueing",
              lambda r: [_dominant_p99(r, n) for n in (20, 80)]
              == ["fn.exec", "queueing"]),
    ]),
    "overload": Gate([
        claim("overload: the DNE holds >= 90% of peak goodput at 2x",
              lambda rs: _at(rs[0], "pct_peak", config="palladium-dne",
                             multiplier=2.0) >= 90.0),
        claim("overload: tail-drop baselines collapse to zero at 2x",
              lambda rs: all(_at(rs[0], "goodput_rps", config=c,
                                 multiplier=2.0) == 0
                             for c in ("spright", "fuyao"))),
    ]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument("experiments", nargs="*",
                        help=f"one of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--quick", action="store_true",
                        help="smaller parameters for a fast pass")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write results as JSON/CSV under DIR")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = list(EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 2
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    for name in names:
        full, quick = EXPERIMENTS[name]
        started = time.time()
        print(f"\n### {name} {'(quick)' if args.quick else ''}")
        outcome = (quick if args.quick else full)()
        results = _results(outcome)
        for index, result in enumerate(results):
            print(result)
            print()
            if args.json:
                suffix = f"-{index}" if len(results) > 1 else ""
                save(result, args.json, stem=f"{name}{suffix}")
        print(f"[{name} took {time.time() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
