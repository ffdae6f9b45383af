"""Tests for paper-anchor validation and the open-loop source."""

import random

import pytest

from repro.experiments import ExperimentResult, validation
from repro.experiments.validation import Band
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.workloads import OpenLoopSource, deploy_http_echo
from repro.ingress import PalladiumIngress


# ---------------------------------------------------------------------------
# Band / validators
# ---------------------------------------------------------------------------

def test_band_inside_and_outside():
    band = Band(10.0, 8.0, 12.0, "test")
    assert band.check(9.0, "x") == []
    violations = band.check(13.0, "x")
    assert violations and "outside" in violations[0]


def test_check_fig12_with_synthetic_result():
    result = ExperimentResult("f12", columns=["variant", "size_bytes",
                                              "mean_rtt_us", "rps"])
    for variant, rtt in (("two-sided", 11.3), ("owrc-best", 13.5),
                         ("owrc-worst", 15.1), ("owdl", 26.3)):
        result.add_row(variant, 4096, rtt, 100)
    assert validation.check_fig12(result) == []
    # now inject a bad number
    result.rows[0][2] = 50.0
    assert validation.check_fig12(result)


def test_check_fig13_ratios():
    result = ExperimentResult("f13", columns=["ingress", "clients", "rps",
                                              "mean_latency_us", "errors"])
    result.add_row("palladium", 64, 160_000, 400, 0)
    result.add_row("f-ingress", 64, 50_000, 1300, 0)
    result.add_row("k-ingress", 64, 11_000, 7000, 0)
    assert validation.check_fig13(result) == []


def test_check_fig15_detects_starvation():
    result = ExperimentResult("f15", columns=["paper_time_s", "tenant-1_rps",
                                              "tenant-2_rps", "tenant-3_rps"])
    result.add_row(120.0, 0, 50_000, 50_000)  # tenant-1 starved
    failures = validation.check_fig15(result)
    assert failures and "zero throughput" in failures[0]


def test_check_fig15_empty_window():
    result = ExperimentResult("f15", columns=["paper_time_s", "a", "b", "c"])
    assert validation.check_fig15(result)


def test_check_fig16_ratios():
    result = ExperimentResult("f16", columns=["chain", "config", "clients",
                                              "rps"])
    for config, rps in (("palladium-dne", 34_000), ("palladium-cne", 20_000),
                        ("fuyao-f", 10_000), ("spright", 8_000),
                        ("nightcore", 3_000)):
        result.add_row("Home Query", config, 80, rps)
    assert validation.check_fig16(result) == []


def test_check_fig13_missing_anchor_is_a_failure_not_a_crash():
    # the quick fig13 config has no 64-client point
    result = ExperimentResult("f13", columns=["ingress", "clients", "rps",
                                              "mean_latency_us", "errors"])
    for kind in ("palladium", "f-ingress", "k-ingress"):
        result.add_row(kind, 16, 50_000, 400, 0)
    failures = validation.check_fig13(result)
    assert len(failures) == 1
    assert "fig13" in failures[0] and "'clients': 64" in failures[0]


def test_check_fig16_missing_anchor_is_a_failure_not_a_crash():
    # the quick fig16 config has no 80-client point
    result = ExperimentResult("f16", columns=["chain", "config", "clients",
                                              "rps"])
    result.add_row("Home Query", "palladium-dne", 20, 34_000)
    failures = validation.check_fig16(result)
    assert len(failures) == 1
    assert "fig16" in failures[0] and "'clients': 80" in failures[0]


def test_check_fig15_accepts_the_quick_list_of_panels():
    # the quick fig15 entry returns [fcfs, dwrr]; only DWRR has bands
    columns = ["paper_time_s", "tenant-1_rps", "tenant-2_rps",
               "tenant-3_rps"]
    fcfs = ExperimentResult("Fig 15 - tenant bandwidth sharing (fcfs)",
                            columns=columns)
    fcfs.add_row(120.0, 30_000, 30_000, 30_000)
    dwrr = ExperimentResult("Fig 15 - tenant bandwidth sharing (dwrr)",
                            columns=columns)
    dwrr.add_row(120.0, 60_000, 10_000, 20_000)
    assert validation.check_fig15([fcfs, dwrr]) == []
    dwrr.rows[0][1] = 30_000
    failures = validation.check_fig15([fcfs, dwrr])
    assert failures and "fig15:t1/t2" in failures[0]
    assert validation.check_fig15([fcfs]) == [
        "fig15: no DWRR panel among the results"]


# ---------------------------------------------------------------------------
# OpenLoopSource
# ---------------------------------------------------------------------------

def open_loop_setup(rate_rps, rng=None):
    env = Environment()
    plat = ServerlessPlatform(env)
    resolver = deploy_http_echo(plat)
    ingress = PalladiumIngress(env, plat.cluster, plat.fabric, plat.cost,
                               resolver, min_workers=2)
    ingress.add_tenant("echo", buffers=512)
    plat.coordinator.subscribe(ingress.routes)
    plat.register_external(ingress.AGENT, "ingress")
    ingress.start()
    plat.start()
    source = OpenLoopSource(env, plat.cluster, ingress, rate_rps=rate_rps,
                            path="/echo", rng=rng)
    return env, plat, source


def test_open_loop_rate_validation():
    env, plat, _ = open_loop_setup(1000)
    with pytest.raises(ValueError):
        OpenLoopSource(env, plat.cluster, None, rate_rps=0)


def test_open_loop_offers_at_configured_rate():
    env, plat, source = open_loop_setup(10_000)  # one per 100 us

    def kickoff():
        yield env.timeout(50_000)
        yield from source.run(until_us=250_000)

    env.process(kickoff())
    env.run(until=300_000)
    # 200 ms at 10 K RPS => ~2000 offered, all served (under capacity)
    assert source.offered == pytest.approx(2000, rel=0.05)
    assert source.completed == pytest.approx(source.offered, abs=20)


def test_open_loop_poisson_arrivals_with_rng():
    rng = random.Random(7)
    env, plat, source = open_loop_setup(20_000, rng=rng)

    def kickoff():
        yield env.timeout(50_000)
        yield from source.run(until_us=150_000)

    env.process(kickoff())
    env.run(until=200_000)
    assert source.offered > 1000  # ~2000 expected, randomized
    assert source.completed > 0


def test_open_loop_does_not_self_throttle():
    """Offered load keeps growing even when completions lag (overload)."""
    env, plat, source = open_loop_setup(400_000)  # far above capacity

    def kickoff():
        yield env.timeout(50_000)
        yield from source.run(until_us=150_000)

    env.process(kickoff())
    env.run(until=160_000)
    assert source.offered > source.completed * 1.5
