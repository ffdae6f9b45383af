"""Baseline data planes: SPRIGHT, NightCore, FUYAO, and Palladium variants."""

from .builders import (
    DATA_PLANES,
    DataPlane,
    build_cne,
    build_dne,
    build_dne_fcfs,
    build_dne_onpath,
    build_fuyao,
    build_spright,
)
from .fuyao import FuyaoEngine
from .nightcore import NIGHTCORE_GATEWAY_US, NIGHTCORE_IPC_US, nightcore_engine_builder
from .spright import SprightEngine

__all__ = [
    "DATA_PLANES",
    "DataPlane",
    "FuyaoEngine",
    "NIGHTCORE_GATEWAY_US",
    "NIGHTCORE_IPC_US",
    "SprightEngine",
    "build_cne",
    "build_dne",
    "build_dne_fcfs",
    "build_dne_onpath",
    "build_fuyao",
    "build_spright",
    "nightcore_engine_builder",
]
