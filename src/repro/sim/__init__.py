"""Discrete-event simulation substrate for the Palladium reproduction."""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .monitor import LatencyStats, RateMeter, TimeSeries, UtilizationTracker
from .resources import FilterStore, Request, Resource, Store
from .rng import FAULT_STREAM, RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "FAULT_STREAM",
    "FilterStore",
    "Interrupt",
    "LatencyStats",
    "Process",
    "RateMeter",
    "Request",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Store",
    "TimeSeries",
    "Timeout",
    "UtilizationTracker",
]
