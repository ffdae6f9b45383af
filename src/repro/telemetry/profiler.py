"""Cycle accounting: where do the data plane's CPU cycles go?

The paper's Fig. 4/5 argument is a *breakdown*: SPRIGHT-style gateways
burn most of their cycles on data copies and kernel TCP protocol
processing, while Palladium's DNE spends them on descriptor handling
and useful work.  :class:`CycleLedger` reproduces that attribution for
the simulated cores in ``hw/cpu.py``.  The cores charge it: every piece
of work a core runs names its categories, ``core.run(("copy", us), ...)``,
and the core charges each part it executes, so the ledger holds exactly
the work done.  The five categories:

``app``
    handler compute (``FunctionContext.compute``) — useful work.
``copy``
    data copies (cross-domain rule, kernel socket copies, FUYAO's
    receiver-side copy, migration checkpoint/restore and redirects).
``descriptor``
    descriptor-passing machinery: engine TX/RX processing, Comch
    channel CPU, SK_MSG sends, mempool ops, MR registration.
``protocol``
    transport/protocol stacks: kernel TCP + IRQs, F-Stack, HTTP
    parse/serialize, proxy overhead, sidecar interception, interrupt
    handling.
``scheduling``
    DWRR/tenant scheduling decisions.

Charges are core-local microseconds (already scaled by the core's
speed factor, i.e. matching ``busy_us`` accounting); ``cycles()``
converts to cycles with the host clock.  The ledger is passive
arithmetic — charging never touches the event loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..config import NodeSpec

__all__ = ["CYCLE_CATEGORIES", "CycleLedger"]

CYCLE_CATEGORIES: Tuple[str, ...] = (
    "app", "copy", "descriptor", "protocol", "scheduling",
)

#: categories that are pure overhead (everything except useful app work
#: and the descriptor passing that replaces it in a shared-memory DPU
#: design — the paper counts descriptor work as the "useful" cost of
#: doing business, copies/protocol as waste)
OVERHEAD_CATEGORIES: Tuple[str, ...] = ("copy", "protocol", "scheduling")

#: the host clock ``cycles()`` converts at: the testbed's x86 cores
HOST_GHZ = NodeSpec.cpu_ghz


class CycleLedger:
    """Accumulates core-microseconds per category."""

    def __init__(self):
        self.host_ghz = HOST_GHZ
        self._by_category: Dict[str, float] = {c: 0.0 for c in CYCLE_CATEGORIES}

    def charge(self, category: str, core_us: float) -> None:
        """Attribute ``core_us`` core-microseconds to ``category``."""
        if category not in self._by_category:
            raise ValueError(f"unknown cycle category {category!r}; "
                             f"expected one of {CYCLE_CATEGORIES}")
        if core_us <= 0.0:
            return
        self._by_category[category] += core_us

    # -- queries -------------------------------------------------------------
    def us(self, category: str) -> float:
        return self._by_category[category]

    def cycles(self, category: str) -> float:
        """Core-us converted to cycles at the host clock."""
        return self._by_category[category] * self.host_ghz * 1e3

    def total_us(self, categories: Optional[Iterable[str]] = None) -> float:
        cats = CYCLE_CATEGORIES if categories is None else tuple(categories)
        return sum(self._by_category[c] for c in cats)

    def fractions(self) -> Dict[str, float]:
        """Per-category share of all attributed cycles (sums to 1)."""
        total = self.total_us()
        if total <= 0:
            return {c: 0.0 for c in CYCLE_CATEGORIES}
        return {c: self._by_category[c] / total for c in CYCLE_CATEGORIES}

    def overhead_fraction(self) -> float:
        """Copy+protocol+scheduling share — the Fig. 4/5 headline."""
        total = self.total_us()
        if total <= 0:
            return 0.0
        return self.total_us(OVERHEAD_CATEGORIES) / total

    def snapshot(self) -> Dict[str, object]:
        return {
            "host_ghz": self.host_ghz,
            "us": {c: self._by_category[c] for c in CYCLE_CATEGORIES},
            "fractions": self.fractions(),
            "overhead_fraction": self.overhead_fraction(),
        }

    def reset(self) -> None:
        """Zero all counters (e.g. after warmup)."""
        for c in CYCLE_CATEGORIES:
            self._by_category[c] = 0.0
