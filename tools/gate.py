#!/usr/bin/env python3
"""Run experiment gates against their committed digests.

Each experiment in ``repro.experiments.__main__.EXPERIMENTS`` has a
gate in ``GATES`` next to it.  A gate runs the experiment's ``--quick``
entry, compares ``sha256(to_json(result))`` with its entry in
``tests/golden/digests.json``, and then applies the experiment's checks
and paper bands.

Usage::

    PYTHONPATH=src python tools/gate.py                  # every gate
    PYTHONPATH=src python tools/gate.py fig12 slo        # some gates
    PYTHONPATH=src python tools/gate.py fig13 --update   # re-pin digests

With several ids, each gate runs in a fresh interpreter.  Every
experiment's points fan out over ``REPRO_JOBS`` workers; the digests
are the same for any worker count and any ``PYTHONHASHSEED``.
``--update`` rewrites the named entries.  A change that moves one must
say which table values moved and why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

DIGESTS = Path(__file__).resolve().parent.parent / "tests" / "golden" \
    / "digests.json"


def run_gate(name: str) -> Tuple[Dict[str, Any], List[str]]:
    """Run one gate in this process: its digests and check failures."""
    from repro.experiments.__main__ import EXPERIMENTS, GATES, digest

    gate = GATES[name]
    outcome = EXPERIMENTS[name][1]()
    digests: Dict[str, Any] = {"result": digest(outcome)}
    failures = [f for check in list(gate.checks) + list(gate.bands)
                for f in check(outcome)]
    if gate.probe is not None:
        extra, more = gate.probe()
        digests.update(extra)
        failures += more
    return digests, failures


def _gate_here(name: str, update: bool) -> int:
    started = time.time()
    got, failures = run_gate(name)
    golden = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if update:
        golden[name] = got
        DIGESTS.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")
    elif golden.get(name) != got:
        failures.insert(0, f"{name}: digest moved\n"
                           f"  want {json.dumps(golden.get(name))}\n"
                           f"  got  {json.dumps(got)}")
    for failure in failures:
        print(f"GATE FAIL: {failure}", file=sys.stderr)
    print(f"[{name}: {'FAIL' if failures else 'ok'}, "
          f"{got['result'][:16]}, {time.time() - started:.1f}s]")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.experiments.__main__ import EXPERIMENTS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ids", nargs="*", help="experiment ids (all if none)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the named digests")
    args = parser.parse_args(argv)
    names = args.ids or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    if len(names) == 1:
        return _gate_here(names[0], args.update)
    flags = ["--update"] if args.update else []
    failed = [n for n in names
              if subprocess.call([sys.executable, __file__, n] + flags)]
    print(f"{len(names) - len(failed)}/{len(names)} gates pass"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
