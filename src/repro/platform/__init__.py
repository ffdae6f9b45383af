"""Serverless platform: functions, tenants, I/O library, coordinator, assembly."""

from .cluster import ServerlessPlatform, build_palladium_dne
from .autoscaling import Autoscaler
from .elasticity import ElasticPlatform, ServiceGroup
from .coordinator import Coordinator
from .function import FunctionContext, FunctionInstance, FunctionSpec, Message
from .iolib import (
    InvokeTimeout,
    IoLibrary,
    KernelTcpFallback,
    NodeRuntime,
    SendError,
)
from .tenant import ChainSpec, Tenant

__all__ = [
    "Autoscaler",
    "ChainSpec",
    "Coordinator",
    "ElasticPlatform",
    "FunctionContext",
    "FunctionInstance",
    "FunctionSpec",
    "InvokeTimeout",
    "IoLibrary",
    "KernelTcpFallback",
    "Message",
    "NodeRuntime",
    "SendError",
    "ServerlessPlatform",
    "ServiceGroup",
    "Tenant",
    "build_palladium_dne",
]
