"""Measurement helpers: time series, counters, latency statistics.

Every experiment in the reproduction reports either a rate (requests
per second), a latency distribution, or a utilization time series.
These helpers centralize that bookkeeping so experiment code stays
declarative.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["TimeSeries", "LatencyStats", "RateMeter", "summarize"]


class TimeSeries:
    """An append-only sequence of ``(time, value)`` samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError("time series samples must be chronological")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def mean(self) -> float:
        """Arithmetic mean of the sample values."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent ``(time, value)`` sample, if any."""
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def window_mean(self, start: float, end: float) -> float:
        """Mean of samples whose timestamp lies in ``[start, end)``."""
        vals = [v for t, v in zip(self.times, self.values) if start <= t < end]
        return sum(vals) / len(vals) if vals else 0.0


class LatencyStats:
    """Collects latency samples and reports summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []
        #: sorted view, computed lazily and invalidated on record() so
        #: repeated percentile summaries don't re-sort large runs
        self._sorted: Optional[List[float]] = None

    def record(self, latency: float) -> None:
        """Add one latency sample (same unit as the simulation clock)."""
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self.samples.append(latency)
        self._sorted = None

    def mean(self) -> float:
        """Mean latency, 0 if no samples."""
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in [0, 100]."""
        if not self.samples:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self._sorted is None or len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
        ordered = self._sorted
        rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
        return ordered[rank]


class RateMeter:
    """Counts discrete completions and converts them to rates.

    ``bucket`` groups completions into fixed windows so experiments can
    plot throughput over time (e.g. Fig. 14/15 time series).
    """

    def __init__(self, name: str = "", bucket: float = 1_000_000.0):
        self.name = name
        self.bucket = bucket
        #: fine-grained internal resolution so `rate()` stays accurate
        #: for windows smaller than the reporting bucket
        self.resolution = min(bucket, 10_000.0)
        self.count = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        self._fine: Dict[int, int] = {}

    def record(self, time: float, n: int = 1) -> None:
        """Register ``n`` completions at simulated ``time``."""
        if self.first_time is None:
            self.first_time = time
        self.last_time = time
        self.count += n
        idx = int(time // self.resolution)
        self._fine[idx] = self._fine.get(idx, 0) + n

    def rate(self, start: float, end: float) -> float:
        """Completions per time unit over ``[start, end)`` wall window.

        Buckets that only partially overlap the window contribute
        proportionally to the overlap, so short or unaligned windows are
        not skewed by whole-bucket counting at the edges.
        """
        if end <= start:
            return 0.0
        res = self.resolution
        n = 0.0
        for idx, c in self._fine.items():
            b0 = idx * res
            overlap = min(end, b0 + res) - max(start, b0)
            if overlap > 0:
                n += c if overlap >= res else c * (overlap / res)
        return n / (end - start)

    def series(self) -> TimeSeries:
        """Per-bucket throughput as a time series (rate per time unit)."""
        coarse: Dict[int, int] = {}
        for idx, c in self._fine.items():
            cidx = int(idx * self.resolution // self.bucket)
            coarse[cidx] = coarse.get(cidx, 0) + c
        ts = TimeSeries(self.name)
        for cidx in sorted(coarse):
            ts.record(cidx * self.bucket, coarse[cidx] / self.bucket)
        return ts


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Small helper returning mean/min/max of a sequence."""
    if not values:
        return {"mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
    }
