"""Paper anchors as data: programmatic reproduction checks.

EXPERIMENTS.md narrates the paper-vs-measured comparison; this module
encodes the same anchors as machine-checkable bands so a benchmark run
can be *validated* automatically::

    from repro.experiments import run_fig12, validation
    failures = validation.check_fig12(run_fig12())
    assert not failures

Each check returns a list of human-readable violation strings (empty =
the run is inside every band).  The ``--quick`` configs include the
anchor points (64 clients for Fig. 13, 80 for Fig. 16), and each
experiment's gate (``GATES`` in ``repro.experiments.__main__``) applies
these checks to its quick output.  A run that lacks an anchor point is
a violation that names the missing point, not an exception.  Bands are
deliberately generous — the reproduction target is shape and factor,
not testbed-exact numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

from .runner import ExperimentResult

__all__ = ["Band", "PAPER_ANCHORS", "check_fig12", "check_fig13",
           "check_fig15", "check_fig16"]


@dataclass(frozen=True)
class Band:
    """An acceptance band around a paper anchor."""

    paper: float
    low: float
    high: float
    source: str

    def check(self, measured: float, label: str) -> List[str]:
        if self.low <= measured <= self.high:
            return []
        return [
            f"{label}: measured {measured:.3g} outside "
            f"[{self.low:.3g}, {self.high:.3g}] (paper {self.paper:.3g}; "
            f"{self.source})"
        ]


#: the paper numbers each experiment is validated against
PAPER_ANCHORS: Dict[str, Dict[str, Band]] = {
    "fig12_rtt_us@4096": {
        "two-sided": Band(11.6, 9.0, 14.0, "Fig. 12 (1)"),
        "owrc-best": Band(15.0, 11.5, 18.5, "Fig. 12 (1)"),
        "owrc-worst": Band(16.7, 13.0, 21.0, "Fig. 12 (1)"),
        "owdl": Band(26.1, 20.0, 33.0, "Fig. 12 (1)"),
    },
    "fig13_rps_ratio": {
        "palladium/f-ingress": Band(3.2, 2.0, 4.5, "§4.1.3"),
        "palladium/k-ingress": Band(11.4, 7.0, 20.0, "§4.1.3"),
    },
    "fig15_share_ratio": {
        "t1/t2": Band(6.0, 4.5, 7.5, "Fig. 15 (2), weights 6:1"),
        "t3/t2": Band(2.0, 1.4, 2.7, "Fig. 15 (2), weights 2:1"),
    },
    "fig16_rps_ratio@80": {
        "dne/cne": Band(1.55, 1.2, 2.0, "§4.3: 1.3-1.8x beyond 20 clients"),
        "dne/fuyao-f": Band(3.0, 2.0, 4.5, "§4.3: 2.1-4.1x"),
        "dne/spright": Band(3.2, 2.2, 4.8, "§4.3: 2.4-4.1x"),
        "dne/nightcore": Band(12.0, 5.0, 21.0, "§4.3: 5.1-20.9x"),
    },
}


def check_fig12(result: ExperimentResult) -> List[str]:
    """Validate Fig. 12 RTTs at 4 KB against the paper's numbers."""
    failures: List[str] = []
    bands = PAPER_ANCHORS["fig12_rtt_us@4096"]
    for variant, band in bands.items():
        row = result.find_row(variant=variant, size_bytes=4096)
        failures += band.check(row["mean_rtt_us"], f"fig12:{variant}@4KB")
    return failures


def check_fig13(result: ExperimentResult, clients: int = 64) -> List[str]:
    """Validate the ingress RPS ratios at high client count."""
    failures: List[str] = []
    try:
        rps = {
            kind: result.find_row(ingress=kind, clients=clients)["rps"]
            for kind in ("palladium", "f-ingress", "k-ingress")
        }
    except KeyError as missing:
        return [f"fig13: anchor point missing: {missing.args[0]}"]
    bands = PAPER_ANCHORS["fig13_rps_ratio"]
    failures += bands["palladium/f-ingress"].check(
        rps["palladium"] / max(1, rps["f-ingress"]), "fig13:palladium/f")
    failures += bands["palladium/k-ingress"].check(
        rps["palladium"] / max(1, rps["k-ingress"]), "fig13:palladium/k")
    return failures


def check_fig15(result: Union[ExperimentResult, Sequence[ExperimentResult]],
                window_s=(100.0, 140.0)) -> List[str]:
    """Validate the DWRR three-tenant split in the all-active window.

    ``result`` is the DWRR panel, or both panels as the ``--quick``
    entry returns them (a list; the DWRR one is checked).
    """
    if not isinstance(result, ExperimentResult):
        panels = [r for r in result if r.name.endswith("(dwrr)")]
        if not panels:
            return ["fig15: no DWRR panel among the results"]
        result = panels[0]
    rows = [r for r in result.rows if window_s[0] <= r[0] <= window_s[1]]
    if not rows:
        return [f"fig15: no samples in window {window_s}"]
    t1 = sum(r[1] for r in rows) / len(rows)
    t2 = sum(r[2] for r in rows) / len(rows)
    t3 = sum(r[3] for r in rows) / len(rows)
    if min(t1, t2, t3) <= 0:
        return ["fig15: a tenant saw zero throughput in the shared window"]
    bands = PAPER_ANCHORS["fig15_share_ratio"]
    return (bands["t1/t2"].check(t1 / t2, "fig15:t1/t2")
            + bands["t3/t2"].check(t3 / t2, "fig15:t3/t2"))


def check_fig16(result: ExperimentResult, chain: str = "Home Query",
                clients: int = 80) -> List[str]:
    """Validate the boutique data-plane RPS ratios."""
    try:
        rps = {
            config: result.find_row(chain=chain, config=config,
                                    clients=clients)["rps"]
            for config in ("palladium-dne", "palladium-cne", "fuyao-f",
                           "spright", "nightcore")
        }
    except KeyError as missing:
        return [f"fig16: anchor point missing: {missing.args[0]}"]
    dne = rps["palladium-dne"]
    bands = PAPER_ANCHORS["fig16_rps_ratio@80"]
    failures: List[str] = []
    failures += bands["dne/cne"].check(
        dne / max(1, rps["palladium-cne"]), "fig16:dne/cne")
    failures += bands["dne/fuyao-f"].check(
        dne / max(1, rps["fuyao-f"]), "fig16:dne/fuyao-f")
    failures += bands["dne/spright"].check(
        dne / max(1, rps["spright"]), "fig16:dne/spright")
    failures += bands["dne/nightcore"].check(
        dne / max(1, rps["nightcore"]), "fig16:dne/nightcore")
    return failures

