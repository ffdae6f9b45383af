"""Discrete-event simulation substrate for the Palladium reproduction."""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .monitor import LatencyStats, RateMeter, TimeSeries
from .resources import Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "LatencyStats",
    "Process",
    "RateMeter",
    "SimulationError",
    "Store",
    "TimeSeries",
    "Timeout",
]
