"""RDMA substrate: verbs, queue pairs, RNIC model, connections, locks,
and the explicit control plane (QP setup, MR lifecycle, pre-warming)."""

from .connection import ConnectionManager
from .controlplane import (
    ControlPlaneConfig,
    DemandPredictivePrewarm,
    FixedFloorPrewarm,
    MrHandle,
    PrewarmPolicy,
    RdmaControlPlane,
    make_prewarm_policy,
)
from .fabric import RdmaFabric
from .locks import DistributedLock, LockStats
from .mr import MemoryRegion, MemoryRegionTable, RegistrationError
from .qp import (
    IllegalTransition,
    LEGAL_TRANSITIONS,
    QPState,
    QpError,
    QueuePair,
    ReceiveBufferRegistry,
    SharedReceiveQueue,
)
from .rnic import AtomicWord, Rnic
from .verbs import Completion, Opcode, RDMA_HEADER_BYTES, WorkRequest

__all__ = [
    "AtomicWord",
    "Completion",
    "ConnectionManager",
    "ControlPlaneConfig",
    "DemandPredictivePrewarm",
    "DistributedLock",
    "FixedFloorPrewarm",
    "IllegalTransition",
    "LEGAL_TRANSITIONS",
    "LockStats",
    "MemoryRegion",
    "MemoryRegionTable",
    "MrHandle",
    "Opcode",
    "PrewarmPolicy",
    "QPState",
    "QpError",
    "QueuePair",
    "RDMA_HEADER_BYTES",
    "RdmaControlPlane",
    "RdmaFabric",
    "ReceiveBufferRegistry",
    "RegistrationError",
    "Rnic",
    "SharedReceiveQueue",
    "WorkRequest",
    "make_prewarm_policy",
]
