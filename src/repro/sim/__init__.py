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
from .monitor import LatencyStats, RateMeter, TimeSeries, UtilizationTracker
from .resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "LatencyStats",
    "Process",
    "RateMeter",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "TimeSeries",
    "Timeout",
    "UtilizationTracker",
]
