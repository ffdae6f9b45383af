"""Result persistence: JSON / CSV export and import of experiment tables.

The benchmarks print human tables; this module gives the same results a
machine-readable form so EXPERIMENTS.md deltas, plots, or regression
checks can be produced without re-running the simulations.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Union

from .runner import ExperimentResult

__all__ = ["to_json", "from_json", "to_csv", "save", "load"]

_FORMAT_VERSION = 1


def to_json(result: ExperimentResult) -> str:
    """Serialize a result (table + series + notes) to a JSON string."""
    payload = {
        "version": _FORMAT_VERSION,
        "name": result.name,
        "columns": result.columns,
        "rows": result.rows,
        "series": {key: [list(p) if isinstance(p, (list, tuple)) else p
                         for p in points]
                   for key, points in result.series.items()},
        "notes": result.notes,
    }
    if result.metrics:
        payload["metrics"] = result.metrics
    if result.alerts:
        payload["alerts"] = result.alerts
    return json.dumps(payload, indent=2, sort_keys=True)


def from_json(text: str) -> ExperimentResult:
    """Reconstruct a result from :func:`to_json` output."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported result format version: {version!r}")
    result = ExperimentResult(payload["name"], columns=list(payload["columns"]))
    for row in payload["rows"]:
        result.add_row(*row)
    for key, points in payload.get("series", {}).items():
        result.add_series(key, [tuple(p) if isinstance(p, list) else p
                                for p in points])
    for note in payload.get("notes", []):
        result.note(note)
    result.metrics = payload.get("metrics", {})
    result.alerts = payload.get("alerts", [])
    return result


def to_csv(result: ExperimentResult) -> str:
    """The result's table as CSV (series/notes are JSON-only)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(result.columns)
    writer.writerows(result.rows)
    return out.getvalue()


def save(result: ExperimentResult, directory: Union[str, Path],
         stem: str = "") -> Path:
    """Write ``<stem>.json`` (and ``.csv``) under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = stem or result.name.lower().replace(" ", "_").replace("/", "-")
    json_path = directory / f"{stem}.json"
    json_path.write_text(to_json(result))
    (directory / f"{stem}.csv").write_text(to_csv(result))
    return json_path


def load(path: Union[str, Path]) -> ExperimentResult:
    """Read a result previously written by :func:`save`."""
    return from_json(Path(path).read_text())
