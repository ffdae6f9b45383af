"""Smoke + shape tests for every experiment (tiny parameterizations).

These check the *direction* of each paper result with small runs.  The
full-size reproduction is ``python -m repro.experiments --all``
(EXPERIMENTS.md); each experiment's quick run is pinned and checked by
its gate (``tools/gate.py``).
"""

import pytest

from repro.config import CostModel
from repro.experiments import (
    ExperimentResult,
    format_table,
    run_fault_point,
    run_table1,
)
from repro.experiments.fig09_comch import CHANNELS, run_channel
from repro.experiments.fig11_offpath import run_echo_point
from repro.experiments.fig12_primitives import run_variant
from repro.experiments.fig13_ingress import run_ingress_point
from repro.experiments.fig15_tenancy import run_tenancy
from repro.experiments.fig16_boutique import run_boutique_point


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_experiment_result_table_roundtrip():
    result = ExperimentResult("demo", columns=["a", "b"])
    result.add_row(1, 2.5)
    result.add_row("x", 10000.0)
    assert result.column("a") == [1, "x"]
    assert result.row_dict(0) == {"a": 1, "b": 2.5}
    assert result.find_row(a="x")["b"] == 10000.0
    text = str(result)
    assert "demo" in text and "10,000" in text


def test_experiment_result_row_arity_checked():
    result = ExperimentResult("demo", columns=["a", "b"])
    with pytest.raises(ValueError):
        result.add_row(1)


def test_experiment_result_find_row_missing():
    result = ExperimentResult("demo", columns=["a"])
    with pytest.raises(KeyError):
        result.find_row(a=1)


def test_format_table_handles_empty():
    assert "empty" in format_table("empty", ["x"], [])


# ---------------------------------------------------------------------------
# Fig. 9: channel ordering and Comch-P collapse
# ---------------------------------------------------------------------------

def test_fig09_latency_ordering():
    rtts = {}
    for name, cls in CHANNELS.items():
        rtts[name], _ = run_channel(cls, functions=2, duration_us=10_000)
    assert rtts["comch-p"] < rtts["comch-e"] < rtts["tcp"]


def test_fig09_comch_p_collapses_past_budget():
    _, rps_small = run_channel(CHANNELS["comch-p"], functions=4,
                               duration_us=10_000)
    _, rps_big = run_channel(CHANNELS["comch-p"], functions=9,
                             duration_us=10_000)
    assert rps_big < rps_small / 2


def test_fig09_comch_e_stable_past_budget():
    rtt_small, _ = run_channel(CHANNELS["comch-e"], functions=4,
                               duration_us=10_000)
    rtt_big, _ = run_channel(CHANNELS["comch-e"], functions=9,
                             duration_us=10_000)
    assert rtt_big < rtt_small * 2


# ---------------------------------------------------------------------------
# Fig. 11: off-path beats on-path, gap grows with concurrency
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig11_points():
    points = {}
    for mode in ("off-path", "on-path"):
        for concurrency in (1, 24):
            points[(mode, concurrency)] = run_echo_point(
                mode, 1024, concurrency, duration_us=40_000
            )
    return points


def test_fig11_offpath_lower_latency(fig11_points):
    assert fig11_points[("off-path", 1)][1] < fig11_points[("on-path", 1)][1]


def test_fig11_offpath_higher_rps_under_load(fig11_points):
    off = fig11_points[("off-path", 24)][0]
    on = fig11_points[("on-path", 24)][0]
    assert 1.1 < off / on < 1.6  # paper: up to ~30%


def test_fig11_offpath_higher_rps_at_64_concurrent():
    off, _ = run_echo_point("off-path", 1024, 64, duration_us=10_000)
    on, _ = run_echo_point("on-path", 1024, 64, duration_us=10_000)
    assert off > on


def test_fig11_gap_grows_with_concurrency(fig11_points):
    gap_low = (fig11_points[("off-path", 1)][0]
               / fig11_points[("on-path", 1)][0])
    gap_high = (fig11_points[("off-path", 24)][0]
                / fig11_points[("on-path", 24)][0])
    assert gap_high > gap_low


# ---------------------------------------------------------------------------
# Fig. 12: primitive ordering
# ---------------------------------------------------------------------------

def test_fig12_two_sided_wins_at_4kb():
    cost = CostModel()
    rtts = {}
    for variant in ("two-sided", "owrc-best", "owrc-worst", "owdl"):
        bench = run_variant(variant, cost, 4096, 1, 40_000)
        rtts[variant] = bench.latency.mean()
    assert rtts["two-sided"] < rtts["owrc-best"] < rtts["owrc-worst"] < rtts["owdl"]
    # OWDL roughly 2x+ the two-sided RTT (paper: 2.25x)
    assert rtts["owdl"] / rtts["two-sided"] > 1.8


def test_fig12_two_sided_rtt_near_paper():
    cost = CostModel()
    bench = run_variant("two-sided", cost, 4096, 1, 40_000)
    assert bench.latency.mean() == pytest.approx(11.6, rel=0.15)


# ---------------------------------------------------------------------------
# Fig. 13: ingress ordering
# ---------------------------------------------------------------------------

def test_fig13_ordering():
    results = {
        kind: run_ingress_point(kind, clients=12, duration_us=60_000)
        for kind in ("k-ingress", "f-ingress", "palladium")
    }
    assert results["palladium"][0] > results["f-ingress"][0] > results["k-ingress"][0]
    assert results["palladium"][1] < results["k-ingress"][1]


# ---------------------------------------------------------------------------
# Fig. 15: DWRR weighted shares vs FCFS starvation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tenancy_runs():
    return {
        sched: run_tenancy(sched, time_scale=1 / 480.0)
        for sched in ("dwrr", "fcfs")
    }


def _window_rates(result, lo_s, hi_s):
    rows = [r for r in result.rows if lo_s <= r[0] <= hi_s]
    assert rows, f"no samples in [{lo_s}, {hi_s}]"
    n = len(rows)
    return [sum(r[i] for r in rows) / n for i in (1, 2, 3)]


def test_fig15_dwrr_6_to_1_split(tenancy_runs):
    t1, t2, _ = _window_rates(tenancy_runs["dwrr"], 40, 80)
    assert t1 / t2 == pytest.approx(6.0, rel=0.25)


def test_fig15_dwrr_three_way_split(tenancy_runs):
    t1, t2, t3 = _window_rates(tenancy_runs["dwrr"], 100, 140)
    assert t1 / t2 == pytest.approx(6.0, rel=0.35)
    assert t3 / t2 == pytest.approx(2.0, rel=0.35)


def test_fig15_fcfs_starves_tenant1(tenancy_runs):
    dwrr_t1 = _window_rates(tenancy_runs["dwrr"], 40, 80)[0]
    fcfs_t1 = _window_rates(tenancy_runs["fcfs"], 40, 80)[0]
    assert fcfs_t1 < 0.75 * dwrr_t1


# ---------------------------------------------------------------------------
# Fig. 16 / Table 2: data plane ordering (single chain, small run)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def boutique_80():
    return {
        config: run_boutique_point(config, "Home Query", 40,
                                   duration_us=120_000)
        for config in ("palladium-dne", "palladium-cne", "spright",
                       "nightcore")
    }


def test_fig16_dne_beats_all(boutique_80):
    dne = boutique_80["palladium-dne"]["rps"]
    for other in ("palladium-cne", "spright", "nightcore"):
        assert dne > boutique_80[other]["rps"], other


def test_fig16_nightcore_worst(boutique_80):
    nightcore = boutique_80["nightcore"]["rps"]
    for other in ("palladium-dne", "palladium-cne", "spright"):
        assert nightcore < boutique_80[other]["rps"], other


def test_fig16_dne_uses_dpu_not_cpu_engine_cores(boutique_80):
    assert boutique_80["palladium-dne"]["dpu_pct"] > 150
    assert boutique_80["palladium-cne"]["dpu_pct"] == 0


def test_fig16_heap_holds_only_live_work(monkeypatch):
    # Each wrk-style client arms a 5 s guard per request and cancels it
    # when the response wins, so the heap ends a run with the same
    # handful of live entries however many requests completed.
    from repro.experiments import fig16_boutique
    from repro.sim import Environment

    envs = []

    class Recorded(Environment):
        def __init__(self):
            super().__init__()
            envs.append(self)

    monkeypatch.setattr(fig16_boutique, "Environment", Recorded)
    live = []
    for duration in (10_000.0, 20_000.0):
        point = run_boutique_point("palladium-dne", "Home Query", 20,
                                   duration_us=duration)
        assert point["rps"] > 0
        env = envs[-1]
        live.append(len(env._queue) - env._cancelled)
        # Uncancelled guards would leave one entry per completed
        # request here (about 260 and 500).
        assert len(env._queue) < 128
    assert live[0] == live[1] < 64


# ---------------------------------------------------------------------------
# Fault recovery: the CNE, which the quick gate leaves out, also recovers
# ---------------------------------------------------------------------------

def test_fault_recovery_cne_restores_goodput_during_the_outage():
    m = run_fault_point("palladium-cne", clients=4, down_us=80_000.0,
                        post_us=60_000.0)
    assert m["restored_pct"] >= 90.0


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def test_table1_matches_paper_matrix():
    result = run_table1()
    rows = {row[0]: row[1:] for row in result.rows}
    assert rows["PALLADIUM"] == ["yes", "yes", "yes", "yes"]
    assert rows["NightCore"] == ["no", "no", "no", "no"]
    assert rows["SPRIGHT"] == ["no", "no", "no", "no"]
    assert rows["FUYAO"][2] == "yes"  # DPU offloading
    assert rows["RMMAP"][1] == "yes"  # distributed zero-copy
