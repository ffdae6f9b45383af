"""Tests for measurement helpers (repro.sim.monitor) and RNG registry."""

import pytest

from repro.sim import LatencyStats, RateMeter, TimeSeries
from repro.sim.monitor import summarize


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

def test_time_series_records_in_order():
    ts = TimeSeries("x")
    ts.record(1.0, 10.0)
    ts.record(2.0, 20.0)
    assert list(ts) == [(1.0, 10.0), (2.0, 20.0)]
    assert len(ts) == 2


def test_time_series_rejects_time_travel():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.record(4.0, 1.0)


def test_time_series_mean_and_last():
    ts = TimeSeries()
    assert ts.mean() == 0.0
    assert ts.last() is None
    ts.record(0.0, 2.0)
    ts.record(1.0, 4.0)
    assert ts.mean() == 3.0
    assert ts.last() == (1.0, 4.0)


def test_time_series_window_mean():
    ts = TimeSeries()
    for t in range(10):
        ts.record(float(t), float(t))
    assert ts.window_mean(2.0, 5.0) == pytest.approx(3.0)
    assert ts.window_mean(100.0, 200.0) == 0.0


# ---------------------------------------------------------------------------
# LatencyStats
# ---------------------------------------------------------------------------

def test_latency_stats_basic():
    stats = LatencyStats()
    for value in (1.0, 2.0, 3.0, 4.0):
        stats.record(value)
    assert len(stats.samples) == 4
    assert stats.mean() == 2.5
    assert stats.percentile(100) == 4.0


def test_latency_stats_percentiles():
    stats = LatencyStats()
    for value in range(1, 101):
        stats.record(float(value))
    assert stats.percentile(50) == 50.0
    assert stats.percentile(99) == 99.0
    assert stats.percentile(100) == 100.0
    assert stats.percentile(0) == 1.0


def test_latency_stats_rejects_negative():
    with pytest.raises(ValueError):
        LatencyStats().record(-1.0)


def test_latency_stats_empty():
    stats = LatencyStats()
    assert stats.mean() == 0.0
    assert stats.percentile(99) == 0.0


def test_latency_percentile_range_check():
    stats = LatencyStats()
    stats.record(1.0)
    with pytest.raises(ValueError):
        stats.percentile(101)


# ---------------------------------------------------------------------------
# RateMeter
# ---------------------------------------------------------------------------

def test_rate_meter_counts():
    meter = RateMeter(bucket=1000.0)
    for t in (10.0, 20.0, 30.0):
        meter.record(t)
    assert meter.count == 3
    assert meter.first_time == 10.0
    assert meter.last_time == 30.0


def test_rate_meter_windowed_rate():
    meter = RateMeter(bucket=1_000_000.0)
    # 100 completions in [0, 100_000): one every 1000 us
    for i in range(100):
        meter.record(i * 1000.0)
    rate = meter.rate(0.0, 100_000.0)
    assert rate == pytest.approx(0.001)  # 1 per 1000 us


def test_rate_meter_subwindow_of_bucket():
    """rate() must work for windows smaller than the reporting bucket."""
    meter = RateMeter(bucket=1_000_000.0)
    for i in range(50):
        meter.record(150_000.0 + i * 100.0)
    assert meter.rate(150_000.0, 200_000.0) > 0
    assert meter.rate(300_000.0, 400_000.0) == 0.0


def test_rate_meter_series_aggregates_buckets():
    meter = RateMeter(bucket=1000.0)
    for i in range(10):
        meter.record(i * 500.0)  # 2 per bucket
    series = meter.series()
    assert all(v == pytest.approx(2 / 1000.0) for _, v in series)


def test_rate_meter_empty_window():
    meter = RateMeter()
    assert meter.rate(0, 0) == 0.0
    assert meter.rate(10, 5) == 0.0


def test_summarize():
    assert summarize([]) == {"mean": 0.0, "min": 0.0, "max": 0.0}
    result = summarize([1.0, 2.0, 3.0])
    assert result == {"mean": 2.0, "min": 1.0, "max": 3.0}
