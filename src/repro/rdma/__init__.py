"""RDMA substrate: verbs, queue pairs, RNIC model, connections, locks,
and the control plane (RC handshake, MR lifecycle, pre-warming)."""

from .connection import ConnectionManager
from .controlplane import (
    DemandPredictivePrewarm,
    FixedFloorPrewarm,
    PrewarmPolicy,
    RdmaControlPlane,
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
    "DemandPredictivePrewarm",
    "DistributedLock",
    "FixedFloorPrewarm",
    "IllegalTransition",
    "LEGAL_TRANSITIONS",
    "LockStats",
    "MemoryRegion",
    "MemoryRegionTable",
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
]
