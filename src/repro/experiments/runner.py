"""Experiment harness shared by every figure/table reproduction.

Each experiment module exposes a ``run_*`` function returning an
:class:`ExperimentResult`: a named table of rows (what the paper's
figure plots) plus free-form series for time-series figures.  The
benchmarks print these tables; EXPERIMENTS.md records them against the
paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ExperimentResult", "after", "format_table"]


def after(env, delay_us: float, fn) -> None:
    """Call ``fn()`` ``delay_us`` from now, from a process.

    Not :meth:`~repro.sim.Environment.defer`: that would save the
    process's start event and so move every pinned event count.
    """
    def fire():
        yield env.timeout(delay_us)
        fn()

    env.process(fire(), name="kickoff")


@dataclass
class ExperimentResult:
    """One experiment's output: a table plus optional named series."""

    name: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    series: Dict[str, List] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: optional telemetry snapshot (a :meth:`MetricsRegistry.snapshot`
    #: dict) captured when the experiment ran instrumented
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: optional SLO alert timeline from the monitor: JSON-safe
    #: transition dicts ({alert, state, ts, window, severity, burn, ...})
    #: in firing order, tagged with the run that produced them
    alerts: List[Dict[str, Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.name}: row has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_series(self, key: str, points: List) -> None:
        self.series[key] = points

    def note(self, text: str) -> None:
        self.notes.append(text)

    def attach_alerts(self, monitor, **tags: Any) -> None:
        """Append a monitor's alert timeline, tagging every transition
        with the given run coordinates (e.g. config=..., multiplier=...)."""
        timeline = getattr(monitor, "timeline", monitor)
        for transition in timeline:
            self.alerts.append({**transition, **tags})

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def row_dict(self, index: int) -> Dict[str, Any]:
        return dict(zip(self.columns, self.rows[index]))

    def find_row(self, **match: Any) -> Dict[str, Any]:
        """First row whose named columns equal the given values."""
        for row in self.rows:
            d = dict(zip(self.columns, row))
            if all(d.get(k) == v for k, v in match.items()):
                return d
        raise KeyError(f"{self.name}: no row matching {match}")

    def __str__(self) -> str:
        return format_table(self.name, self.columns, self.rows, self.notes)


def format_table(name: str, columns: Sequence[str], rows: Sequence[Sequence[Any]],
                 notes: Optional[Sequence[str]] = None) -> str:
    """Render a fixed-width table like the paper's result tables."""
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 10:
                return f"{value:.1f}"
            return f"{value:.2f}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in str_rows)) if str_rows else len(str(col))
        for i, col in enumerate(columns)
    ]
    lines = [f"== {name} =="]
    lines.append("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    for note in notes or []:
        lines.append(f"note: {note}")
    return "\n".join(lines)
