"""The cycle ledger holds exactly the work the cores executed.

Every CPU cost is stated once, as the ``(category, host_us)`` charges a
call site hands to ``run``; the core charges the ledger itself.  So on
any instrumented run the ledger total equals the core-microseconds the
cores ran, for every data plane, FUYAO's engine included.
"""

import pytest

from repro.experiments.fig16_boutique import run_boutique_point
from repro.hw import CorePool, PinnedCore, work_us


@pytest.mark.parametrize("config", ["spright", "palladium-dne",
                                    "palladium-cne", "fuyao-k"])
def test_ledger_equals_executed_core_us(config, monkeypatch):
    executed = [0.0]
    for cls in (CorePool, PinnedCore):
        run = cls.run

        def counting(self, *charges, _run=run):
            executed[0] += work_us(charges) * self.factor
            return _run(self, *charges)

        monkeypatch.setattr(cls, "run", counting)
    m = run_boutique_point(config, "Home Query", clients=8,
                           duration_us=20_000.0, with_telemetry=True)
    ledger = m["telemetry"].cycles
    assert executed[0] > 0.0
    assert ledger.total_us() == pytest.approx(executed[0], rel=1e-9)

