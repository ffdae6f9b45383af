#!/usr/bin/env python3
"""Pin the fluid gateway model's outputs to committed digests.

Runs the gateway-scale sweep (:func:`run_ext_gateway_scale`) in this
process and hashes two things:

* ``result``: ``sha256(to_json(result))``, the experiment table;
* ``models``: one hash per :class:`FlowAggregateModel` the sweep
  built, over its latency ``samples``, ``completions_at``,
  ``tier.counters()`` and ledger.

The table rounds its values, so the model hashes are what catch a
change in a single sample or completion count.

Usage::

    PYTHONPATH=src python tools/fluid_digest.py            # reduced sweep
    PYTHONPATH=src python tools/fluid_digest.py --full     # default sweep
    PYTHONPATH=src python tools/fluid_digest.py --full --update

Without ``--update`` it exits non-zero when a digest differs from
``tests/golden/fluid_gateway.json``.  ``--update`` rewrites that
sweep's entry; a change that moves it must say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" \
    / "fluid_gateway.json"

#: the sweeps that have a committed digest; ``reduced`` is the CI
#: serial-vs-jobs sweep, ``full`` the experiment's defaults
SWEEPS: Dict[str, Dict[str, object]] = {
    "reduced": dict(gateway_counts=(1, 2, 4), scale=0.02,
                    duration_us=200_000.0, crash_post_us=100_000.0,
                    table_capacity=8_192),
    "full": {},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_digest(model) -> str:
    """Hash everything a fluid run produces, at full precision."""
    return _sha(json.dumps({
        "samples": model.samples,
        "completions_at": sorted(model.completions_at.items()),
        "counters": model.tier.counters(),
        "ledger": [model.admitted, model.completed, model.rejected,
                   model.redirected, model.flows_synced, model.epochs],
    }))


def digest(sweep: str) -> Dict[str, object]:
    """Run one named sweep serially and return its digests."""
    from repro.experiments.ext_gateway_scale import run_ext_gateway_scale
    from repro.experiments.report import to_json
    from repro.workloads import FlowAggregateModel

    models: List[FlowAggregateModel] = []
    original = FlowAggregateModel.run

    def run(self, *args, **kwargs):
        if self not in models:
            models.append(self)
        return original(self, *args, **kwargs)

    FlowAggregateModel.run = run
    try:
        result = run_ext_gateway_scale(jobs=1, **SWEEPS[sweep])
    finally:
        FlowAggregateModel.run = original
    return {"result": _sha(to_json(result)),
            "models": [model_digest(m) for m in models]}


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="the default sweep (1-16 gateways, 1M clients)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed digest")
    args = parser.parse_args(argv)
    sweep = "full" if args.full else "reduced"
    got = digest(sweep)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.update:
        golden[sweep] = got
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"{sweep}: wrote {GOLDEN.name}")
        return 0
    if golden.get(sweep) != got:
        print(f"{sweep}: fluid gateway outputs moved\n"
              f"  want {json.dumps(golden.get(sweep))}\n"
              f"  got  {json.dumps(got)}", file=sys.stderr)
        return 1
    print(f"{sweep}: result {got['result'][:16]}, "
          f"{len(got['models'])} models match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
